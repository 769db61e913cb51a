// Two-party session integration tests: Alice and Bob on separate threads
// over the in-process channel (raw and Wegman-Carter authenticated),
// producing identical keys - bit-identical to the in-process engine's;
// adversarial paths and malformed batches abort cleanly on both ends.
#include "pipeline/session.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <tuple>

#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/sim_adapter.hpp"
#include "protocol/auth_channel.hpp"
#include "protocol/messages.hpp"
#include "sim/bb84.hpp"

namespace qkdpp::pipeline {
namespace {

struct LinkData {
  protocol::AliceTransmitLog alice_log;
  BobDetections bob;
};

LinkData simulate_link(double km, std::uint64_t seed, std::size_t pulses,
                       double intercept = 0.0) {
  sim::LinkConfig link;
  link.channel.length_km = km;
  link.eve.intercept_fraction = intercept;
  Xoshiro256 rng(seed);
  const auto record = sim::Bb84Simulator(link).run(pulses, rng);
  LinkData data;
  data.alice_log = {record.alice_bits, record.alice_bases,
                    record.alice_class};
  data.bob.block_id = 1;
  data.bob.n_pulses = record.n_pulses;
  data.bob.detected_idx = record.detected_idx;
  data.bob.bits = record.bob_bits;
  data.bob.bases = record.bob_bases;
  return data;
}

std::pair<SessionResult, SessionResult> run_session(
    const LinkData& data, const SessionConfig& config,
    protocol::ClassicalChannel& alice_channel,
    protocol::ClassicalChannel& bob_channel, std::uint64_t alice_seed = 777) {
  auto alice_future = std::async(std::launch::async, [&] {
    Xoshiro256 rng(alice_seed);
    return run_alice_session(alice_channel, data.alice_log, 1, config, rng);
  });
  const SessionResult bob = run_bob_session(bob_channel, data.bob, config);
  const SessionResult alice = alice_future.get();
  return {alice, bob};
}

SessionConfig metro_session_config() {
  SessionConfig config;
  config.ldpc.min_frame = 4096;
  return config;
}

TEST(Session, LdpcProducesIdenticalKeys) {
  const auto data = simulate_link(25.0, 100, 1 << 20);
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const auto [alice, bob] = run_session(data, metro_session_config(),
                                        *alice_channel, *bob_channel);
  ASSERT_TRUE(alice.success) << alice.abort_reason;
  ASSERT_TRUE(bob.success) << bob.abort_reason;
  EXPECT_FALSE(alice.final_key.empty());
  EXPECT_EQ(alice.final_key, bob.final_key);
  EXPECT_EQ(alice.key_id, bob.key_id);
  EXPECT_EQ(alice.leak_ec_bits, bob.leak_ec_bits);
  EXPECT_EQ(alice.reconciled_bits, bob.reconciled_bits);
  EXPECT_DOUBLE_EQ(alice.qber_estimate, bob.qber_estimate);
}

TEST(Session, CascadeProducesIdenticalKeys) {
  const auto data = simulate_link(25.0, 101, 1 << 20);
  SessionConfig config = metro_session_config();
  config.method = protocol::ReconcileMethod::kCascade;
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const auto [alice, bob] =
      run_session(data, config, *alice_channel, *bob_channel);
  ASSERT_TRUE(alice.success) << alice.abort_reason;
  ASSERT_TRUE(bob.success) << bob.abort_reason;
  EXPECT_EQ(alice.final_key, bob.final_key);
  EXPECT_EQ(alice.leak_ec_bits, bob.leak_ec_bits);
  // Cascade's leakage stays under LDPC-typical levels on clean channels but
  // costs many round-trips.
  EXPECT_GT(alice.channel.messages_received, 20u);
}

TEST(Session, AuthenticatedChannelEndToEnd) {
  const auto data = simulate_link(25.0, 102, 1 << 20);
  Xoshiro256 pool_rng(55);
  const BitVec a2b = pool_rng.random_bits(auth::kTagKeyBits * 4096);
  const BitVec b2a = pool_rng.random_bits(auth::kTagKeyBits * 4096);
  auth::KeyPool alice_send(a2b), alice_recv(b2a);
  auth::KeyPool bob_send(b2a), bob_recv(a2b);

  auto [raw_alice, raw_bob] = protocol::make_channel_pair();
  protocol::AuthenticatedChannel alice_channel(std::move(raw_alice),
                                               alice_send, alice_recv);
  protocol::AuthenticatedChannel bob_channel(std::move(raw_bob), bob_send,
                                             bob_recv);
  const auto [alice, bob] = run_session(data, metro_session_config(),
                                        alice_channel, bob_channel);
  ASSERT_TRUE(alice.success) << alice.abort_reason;
  ASSERT_TRUE(bob.success) << bob.abort_reason;
  EXPECT_EQ(alice.final_key, bob.final_key);
  // Authentication must have consumed key on both sides, in sync.
  EXPECT_GT(alice_send.total_consumed(), 0u);
  EXPECT_EQ(alice_send.total_consumed(), bob_recv.total_consumed());
  EXPECT_EQ(bob_send.total_consumed(), alice_recv.total_consumed());
}

TEST(Session, InterceptResendAbortsBothSides) {
  const auto data = simulate_link(10.0, 103, 1 << 18, /*intercept=*/1.0);
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const auto [alice, bob] = run_session(data, metro_session_config(),
                                        *alice_channel, *bob_channel);
  EXPECT_FALSE(alice.success);
  EXPECT_FALSE(bob.success);
  EXPECT_EQ(alice.abort_reason, "qber above abort threshold");
  EXPECT_EQ(bob.abort_reason, "qber above abort threshold");
  EXPECT_TRUE(alice.final_key.empty());
  EXPECT_TRUE(bob.final_key.empty());
}

TEST(Session, TamperedChannelDetectedByAuthentication) {
  const auto data = simulate_link(25.0, 104, 1 << 18);
  Xoshiro256 pool_rng(56);
  const BitVec a2b = pool_rng.random_bits(auth::kTagKeyBits * 1024);
  const BitVec b2a = pool_rng.random_bits(auth::kTagKeyBits * 1024);
  auth::KeyPool alice_send(a2b), alice_recv(b2a);
  auth::KeyPool bob_send(b2a), bob_recv(a2b);

  auto [raw_alice, raw_bob] = protocol::make_channel_pair();
  // Adversary flips a bit in every 3rd frame Alice sends.
  auto tampered = protocol::make_tampering_channel(std::move(raw_alice), 3);
  protocol::AuthenticatedChannel alice_channel(std::move(tampered),
                                               alice_send, alice_recv);
  protocol::AuthenticatedChannel bob_channel(std::move(raw_bob), bob_send,
                                             bob_recv);

  auto alice_future = std::async(std::launch::async, [&] {
    Xoshiro256 rng(777);
    auto r = run_alice_session(alice_channel, data.alice_log, 1,
                               metro_session_config(), rng);
    alice_channel.close();
    return r;
  });
  const auto bob =
      run_bob_session(bob_channel, data.bob, metro_session_config());
  bob_channel.close();
  const auto alice = alice_future.get();

  // Bob rejects the tampered frame with a *typed* abort, not an unwind.
  EXPECT_FALSE(bob.success);
  ASSERT_TRUE(bob.fault_code.has_value());
  EXPECT_EQ(*bob.fault_code, ErrorCode::kAuthentication);
  // Bob's Abort notification reaches Alice, so she aborts too instead of
  // hanging; neither side holds key material.
  EXPECT_FALSE(alice.success);
  EXPECT_TRUE(alice.final_key.empty());
  EXPECT_TRUE(bob.final_key.empty());

  // One-time-pad discipline: every frame Bob verified — including the
  // tampered one that failed — consumed exactly one tag's worth of key.
  // A failed verify must not refund its bits (that would reuse a one-time
  // key), and Alice's sign pool must track her sent frames the same way.
  EXPECT_GT(bob_recv.total_consumed(), 0u);
  EXPECT_EQ(bob_recv.total_consumed(),
            bob.channel.messages_received * auth::kTagKeyBits);
  // Send pools may run one tag ahead of the wire: signing consumes key
  // even when the transmit then fails on a closed peer (never refunded).
  EXPECT_GE(alice_send.total_consumed(),
            alice.channel.messages_sent * auth::kTagKeyBits);
  EXPECT_GE(bob_send.total_consumed(),
            bob.channel.messages_sent * auth::kTagKeyBits);
}

TEST(Session, ShortBlockAbortsGracefully) {
  const auto data = simulate_link(25.0, 105, 2000);  // ~40 detections
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const auto [alice, bob] = run_session(data, metro_session_config(),
                                        *alice_channel, *bob_channel);
  EXPECT_FALSE(alice.success);
  EXPECT_FALSE(bob.success);
  EXPECT_FALSE(alice.abort_reason.empty());
  EXPECT_FALSE(bob.abort_reason.empty());
}

TEST(Session, ChannelAccountingConsistent) {
  const auto data = simulate_link(25.0, 106, 1 << 19);
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const auto [alice, bob] = run_session(data, metro_session_config(),
                                        *alice_channel, *bob_channel);
  ASSERT_TRUE(alice.success);
  EXPECT_EQ(alice.channel.messages_sent, bob.channel.messages_received);
  EXPECT_EQ(bob.channel.messages_sent, alice.channel.messages_received);
  EXPECT_EQ(alice.channel.bytes_sent, bob.channel.bytes_received);
}

TEST(Session, LatencyModelAccumulatesVirtualTime) {
  const auto data = simulate_link(25.0, 107, 1 << 19);
  protocol::ChannelModel model;
  model.latency_s = 0.001;
  auto [alice_channel, bob_channel] = protocol::make_channel_pair(model);
  const auto [alice, bob] = run_session(data, metro_session_config(),
                                        *alice_channel, *bob_channel);
  ASSERT_TRUE(alice.success);
  EXPECT_GT(alice.channel.virtual_time_s, 0.0);
  // Each one-way message charges at least the latency.
  EXPECT_GE(alice.channel.virtual_time_s,
            0.001 * static_cast<double>(alice.channel.messages_sent));
}

TEST(Session, DifferentAliceSeedsGiveDifferentKeys) {
  const auto data = simulate_link(25.0, 108, 1 << 19);
  SessionConfig config = metro_session_config();
  auto [c1a, c1b] = protocol::make_channel_pair();
  const auto [alice1, bob1] = run_session(data, config, *c1a, *c1b, 1);
  auto [c2a, c2b] = protocol::make_channel_pair();
  const auto [alice2, bob2] = run_session(data, config, *c2a, *c2b, 2);
  ASSERT_TRUE(alice1.success) << alice1.abort_reason;
  ASSERT_TRUE(alice2.success) << alice2.abort_reason;
  // Same raw data, different sampling/seeds -> different final keys.
  EXPECT_NE(alice1.final_key, alice2.final_key);
}

// --- engine/session identity ---------------------------------------------

// The session and the in-process engine run the same stage code: from the
// same detections and the same Alice seed they must distil the same key
// with the same leak, and the session must keep every block the engine
// keeps. Metro-sized blocks (about 40k sifted bits) cut into several
// reconciliation frames.
class EngineSessionIdentity
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(EngineSessionIdentity, SameKeyAndLeakAsEngine) {
  const auto [seed, misalignment] = GetParam();
  sim::LinkConfig link;
  link.channel.length_km = 25.0;
  link.channel.misalignment = misalignment;
  const std::size_t pulses = sim::pulses_for_sifted_target(
      link, 40000.0, std::size_t{1} << 20, std::size_t{1} << 26);
  Xoshiro256 sim_rng(seed);
  const auto record = sim::Bb84Simulator(link).run(pulses, sim_rng);
  const std::uint64_t block_id = 40 + seed;
  const engine::BlockInput input = engine::make_block_input(record, block_id);
  const std::uint64_t alice_seed = 1000 + seed;
  const SessionConfig config = metro_session_config();

  engine::PostprocessEngine engine(config, engine::EngineOptions::cpu_only());
  Xoshiro256 engine_rng(alice_seed);
  const engine::BlockOutcome outcome =
      engine.process_block(input, block_id, engine_rng);
  ASSERT_TRUE(outcome.success) << outcome.abort_reason;
  EXPECT_GT(outcome.reconcile_frames, 1u);

  BobDetections bob_view;
  bob_view.block_id = block_id;
  bob_view.n_pulses = input.report.n_pulses;
  bob_view.detected_idx = input.report.detected_idx;
  bob_view.bits = input.bob_bits;
  bob_view.bases = input.report.bob_bases;
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  auto alice_future = std::async(std::launch::async, [&] {
    Xoshiro256 rng(alice_seed);
    return run_alice_session(*alice_channel, input.log, block_id, config,
                             rng);
  });
  const SessionResult bob = run_bob_session(*bob_channel, bob_view, config);
  const SessionResult alice = alice_future.get();

  ASSERT_TRUE(alice.success) << alice.abort_reason;
  ASSERT_TRUE(bob.success) << bob.abort_reason;
  EXPECT_EQ(alice.final_key, outcome.final_key);
  EXPECT_EQ(bob.final_key, outcome.final_key);
  EXPECT_EQ(alice.leak_ec_bits, outcome.leak_ec_bits);
  EXPECT_EQ(bob.leak_ec_bits, outcome.leak_ec_bits);
  EXPECT_EQ(alice.reconciled_bits, outcome.reconciled_bits);
}

INSTANTIATE_TEST_SUITE_P(
    MetroGrid, EngineSessionIdentity,
    ::testing::Combine(::testing::Values<std::uint64_t>(2, 4, 7),
                       ::testing::Values(0.015, 0.035)));

// --- malformed batches ------------------------------------------------------

/// Endpoint wrapper that rewrites the first sent message of type T.
template <typename T>
class MutateFirst final : public protocol::ClassicalChannel {
 public:
  MutateFirst(std::unique_ptr<protocol::ClassicalChannel> inner,
              std::function<void(T&)> mutate)
      : inner_(std::move(inner)), mutate_(std::move(mutate)) {}

  void send(std::vector<std::uint8_t> frame) override {
    if (!done_) {
      protocol::Message message = protocol::decode_message(frame);
      if (auto* typed = std::get_if<T>(&message)) {
        mutate_(*typed);
        frame = protocol::encode_message(message);
        done_ = true;
      }
    }
    inner_->send(std::move(frame));
  }
  std::vector<std::uint8_t> receive() override { return inner_->receive(); }
  void close() override { inner_->close(); }
  protocol::ChannelCounters counters() const override {
    return inner_->counters();
  }

 private:
  std::unique_ptr<protocol::ClassicalChannel> inner_;
  std::function<void(T&)> mutate_;
  bool done_ = false;
};

/// Runs one block with Alice's (or Bob's) sends wrapped in `wrap`; the side
/// that reads the malformed message must end with a typed kProtocol fault,
/// and the other side with the same reason carried by its Abort.
template <typename T>
void expect_typed_abort_on_malformed(bool alice_sends,
                                     std::function<void(T&)> mutate) {
  const auto data = simulate_link(25.0, 109, 1 << 20);
  auto [raw_alice, raw_bob] = protocol::make_channel_pair();
  std::unique_ptr<protocol::ClassicalChannel> alice_channel =
      alice_sends ? std::make_unique<MutateFirst<T>>(std::move(raw_alice),
                                                     mutate)
                  : std::move(raw_alice);
  std::unique_ptr<protocol::ClassicalChannel> bob_channel =
      alice_sends ? std::move(raw_bob)
                  : std::make_unique<MutateFirst<T>>(std::move(raw_bob),
                                                     mutate);
  const auto [alice, bob] = run_session(data, metro_session_config(),
                                        *alice_channel, *bob_channel);
  const SessionResult& detector = alice_sends ? bob : alice;
  const SessionResult& peer = alice_sends ? alice : bob;
  EXPECT_FALSE(detector.success);
  ASSERT_TRUE(detector.fault_code.has_value()) << detector.abort_reason;
  EXPECT_EQ(*detector.fault_code, ErrorCode::kProtocol);
  EXPECT_FALSE(peer.success);
  EXPECT_EQ(peer.abort_reason, detector.abort_reason);
  EXPECT_TRUE(alice.final_key.empty());
  EXPECT_TRUE(bob.final_key.empty());
}

TEST(Session, ShortSyndromeBatchIsTypedAbort) {
  expect_typed_abort_on_malformed<protocol::ReconcileStart>(
      /*alice_sends=*/true, [](protocol::ReconcileStart& start) {
        start.syndromes.resize(start.syndromes.size() - 1);
      });
}

TEST(Session, WrongLengthDoneBitmapIsTypedAbort) {
  expect_typed_abort_on_malformed<protocol::ReconcileDone>(
      /*alice_sends=*/false, [](protocol::ReconcileDone& done) {
        done.frames_ok.push_back(true);
      });
}

TEST(Session, FloatDecoderConfigIsTypedConfigAbort) {
  const auto data = simulate_link(25.0, 110, 1 << 18);
  SessionConfig config = metro_session_config();
  config.ldpc.decoder.quantized = false;
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const auto [alice, bob] =
      run_session(data, config, *alice_channel, *bob_channel);
  for (const SessionResult& side : {alice, bob}) {
    EXPECT_FALSE(side.success);
    ASSERT_TRUE(side.fault_code.has_value());
    EXPECT_EQ(*side.fault_code, ErrorCode::kConfig);
  }
}

}  // namespace
}  // namespace qkdpp::pipeline
