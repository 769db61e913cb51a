// ClassicalChannel decorator that records a span around every call crossing
// one boundary of the session's channel stack, and counts the traffic and
// round trips it sees there.
//
// The traced session stack is, on each side:
//   Traced("auth") -> AuthenticatedChannel -> Traced("arq")
//     -> ReliableChannel -> Traced("raw") -> in-process pair endpoint
// so the self time of the "auth" spans is Wegman-Carter tag work, that of
// "arq" is the ARQ layer's own work, and "raw" receives are the time spent
// blocked waiting for the peer.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "protocol/channel.hpp"
#include "trace.hpp"

namespace perfbench {

class TracedChannel final : public qkdpp::protocol::ClassicalChannel {
 public:
  /// `send_name`/`recv_name` are static span names, e.g. "auth.send".
  TracedChannel(std::unique_ptr<qkdpp::protocol::ClassicalChannel> inner,
                const char* send_name, const char* recv_name)
      : inner_(std::move(inner)),
        send_name_(send_name),
        recv_name_(recv_name) {}

  void send(std::vector<std::uint8_t> frame) override {
    ScopedSpan span(send_name_);
    ++sends_;
    last_was_send_ = true;
    inner_->send(std::move(frame));
  }

  std::vector<std::uint8_t> receive() override {
    ScopedSpan span(recv_name_);
    note_receive();
    return inner_->receive();
  }

  std::optional<std::vector<std::uint8_t>> receive_for(
      std::chrono::microseconds timeout) override {
    ScopedSpan span(recv_name_);
    note_receive();
    return inner_->receive_for(timeout);
  }

  void close() override { inner_->close(); }

  qkdpp::protocol::ChannelCounters counters() const override {
    return inner_->counters();
  }

  std::uint64_t sends() const noexcept { return sends_; }
  /// Receives that followed a send of this endpoint: each is one wait for
  /// the peer's answer.
  std::uint64_t round_trips() const noexcept { return round_trips_; }

 private:
  void note_receive() noexcept {
    if (last_was_send_) ++round_trips_;
    last_was_send_ = false;
  }

  std::unique_ptr<qkdpp::protocol::ClassicalChannel> inner_;
  const char* send_name_;
  const char* recv_name_;
  std::uint64_t sends_ = 0;
  std::uint64_t round_trips_ = 0;
  bool last_was_send_ = false;
};

}  // namespace perfbench
