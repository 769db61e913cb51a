#include "pipeline/session.hpp"

#include <algorithm>

#include "common/crc.hpp"
#include "common/ct_equal.hpp"
#include "common/error.hpp"
#include "engine/primitives.hpp"
#include "privacy/pa_planner.hpp"
#include "privacy/verification.hpp"
#include "protocol/messages.hpp"
#include "protocol/param_estimation.hpp"

namespace qkdpp::pipeline {

namespace {

using protocol::Abort;
using protocol::BlindRequest;
using protocol::BlindResponse;
using protocol::ClassicalChannel;
using protocol::DetectionReport;
using protocol::KeyConfirm;
using protocol::Message;
using protocol::PaParams;
using protocol::ParityRequest;
using protocol::ParityResponse;
using protocol::PeReport;
using protocol::PeReveal;
using protocol::PeVerdict;
using protocol::ReconcileDone;
using protocol::ReconcileMethod;
using protocol::ReconcileStart;
using protocol::SiftResult;
using protocol::VerifyRequest;
using protocol::VerifyResponse;

/// Control-flow unwind for peer-initiated aborts (expected outcome, turned
/// into SessionResult at the top level - never escapes this file).
struct AbortSignal {
  std::string reason;
};

void send_msg(ClassicalChannel& channel, const Message& message) {
  channel.send(protocol::encode_message(message));
}

void send_abort(ClassicalChannel& channel, std::uint64_t block_id,
                const std::string& reason) {
  send_msg(channel, Abort{block_id, 0, reason});
}

/// The peer's next message; a peer Abort unwinds as AbortSignal.
Message receive_msg(ClassicalChannel& channel) {
  Message message = protocol::decode_message(channel.receive());
  if (auto* abort = std::get_if<Abort>(&message)) {
    throw AbortSignal{abort->detail};
  }
  return message;
}

template <typename T>
T expect_msg(ClassicalChannel& channel) {
  Message message = receive_msg(channel);
  auto* typed = std::get_if<T>(&message);
  if (typed == nullptr) {
    throw_error(ErrorCode::kProtocol,
                std::string("unexpected message ") +
                    protocol::message_name(message));
  }
  return std::move(*typed);
}

/// Convert a channel/auth failure into a typed abort on `result` and tell
/// the peer (best effort — the channel may already be dead; a lost Abort
/// just means the peer aborts on its own deadline instead).
void record_fault(SessionResult& result, ClassicalChannel& channel,
                  std::uint64_t block_id, const Error& error) {
  result.success = false;
  result.abort_reason = error.what();
  result.fault_code = error.code();
  if (error.code() != ErrorCode::kChannelClosed) {
    try {
      send_abort(channel, block_id, error.what());
    } catch (const Error&) {
    }
  }
}

std::uint32_t pa_params_crc(const PaParams& params) {
  std::uint8_t bytes[24];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(params.block_id >> (8 * i));
    bytes[8 + i] = static_cast<std::uint8_t>(params.seed >> (8 * i));
    bytes[16 + i] = static_cast<std::uint8_t>(params.out_len >> (8 * i));
  }
  return crc32c(bytes);
}

/// Bob-side oracle that forwards parity queries over the channel.
class RemoteParityOracle final : public reconcile::ParityOracle {
 public:
  RemoteParityOracle(ClassicalChannel& channel, std::uint64_t block_id)
      : channel_(channel), block_id_(block_id) {}

  BitVec parities(std::uint32_t pass,
                  std::span<const reconcile::ParityRange> ranges) override {
    ParityRequest request;
    request.block_id = block_id_;
    request.pass = pass;
    request.range_begins.reserve(ranges.size());
    request.range_ends.reserve(ranges.size());
    for (const auto range : ranges) {
      request.range_begins.push_back(range.begin);
      request.range_ends.push_back(range.end);
    }
    send_msg(channel_, request);
    auto response = expect_msg<ParityResponse>(channel_);
    if (response.parities.size() != ranges.size()) {
      throw_error(ErrorCode::kProtocol, "parity response shape mismatch");
    }
    return std::move(response.parities);
  }

 private:
  ClassicalChannel& channel_;
  std::uint64_t block_id_;
};

/// Alice's LDPC half: every frame's syndrome in one ReconcileStart, one
/// BlindResponse per BlindRequest, until Bob's ReconcileDone names the
/// frames that converged. Returns their payloads in frame order; `leak`
/// gains every bit disclosed.
BitVec reconcile_ldpc_alice(ClassicalChannel& channel, const BitVec& key,
                            const reconcile::FramePlan& plan,
                            std::uint64_t block_id, double qber_hint,
                            const reconcile::LdpcReconcilerConfig& config,
                            Xoshiro256& rng, std::uint64_t& leak) {
  const std::size_t frames = key.size() / plan.payload_bits;
  const auto senders = reconcile::make_frame_senders(
      key, plan, reconcile::frame_seeds(block_id, frames), rng, nullptr);
  ReconcileStart start;
  start.block_id = block_id;
  start.code_id = plan.code_id;
  start.n_punctured = plan.n_punctured;
  start.n_shortened = plan.n_shortened;
  start.qber_hint = qber_hint;
  for (const auto& sender : senders) start.syndromes.append(sender.syndrome());
  send_msg(channel, start);
  leak += frames * (reconcile::code_by_id(plan.code_id).m() - plan.n_punctured);

  for (std::uint32_t round = 1;; ++round) {
    const Message message = receive_msg(channel);
    if (const auto* done = std::get_if<ReconcileDone>(&message)) {
      protocol::check_reconcile_done(*done, frames);
      return reconcile::converged_payloads(key, plan, done->frames_ok);
    }
    const auto* request = std::get_if<BlindRequest>(&message);
    if (request == nullptr || request->round != round ||
        round > config.max_blind_rounds) {
      throw_error(ErrorCode::kProtocol,
                  std::string("out of turn during reconciliation: ") +
                      protocol::message_name(message));
    }
    protocol::check_blind_request(*request, frames);
    BlindResponse response{block_id, round,
                           reconcile::reveal_chunks(senders, request->frames,
                                                    round,
                                                    config.max_blind_rounds)};
    leak += response.values.size();
    send_msg(channel, response);
  }
}

/// Bob's LDPC half: checks Alice's start against his own frame plan, then
/// decodes every frame in lockstep with one blind exchange per round and
/// reports which frames converged. Returns their corrected payloads in
/// frame order; `leak` gains every bit disclosed.
BitVec reconcile_ldpc_bob(ClassicalChannel& channel, const BitVec& key,
                          const ReconcileStart& start, std::uint64_t block_id,
                          const reconcile::LdpcReconcilerConfig& config,
                          std::uint64_t& leak) {
  const double qber = engine::qber_floor(start.qber_hint);
  const auto plan = reconcile::plan_key_frames(key.size(), qber, config);
  const std::size_t frames = key.size() / plan.payload_bits;
  if (start.code_id != plan.code_id || start.n_punctured != plan.n_punctured ||
      start.n_shortened != plan.n_shortened) {
    throw_error(ErrorCode::kProtocol, "frame plan mismatch");
  }
  protocol::check_syndromes(start, frames,
                            reconcile::code_by_id(plan.code_id).m());
  reconcile::DecoderConfig decoder = config.decoder;
  decoder.max_iterations =
      std::min(decoder.max_iterations, reconcile::kBatchIterationCap);
  reconcile::LdpcBatchReceiver receiver(
      plan, key, qber, reconcile::frame_seeds(block_id, frames),
      start.syndromes, decoder, config.max_blind_rounds);

  while (receiver.decode()) {
    const BlindRequest request{block_id, receiver.round(),
                               receiver.request()};
    send_msg(channel, request);
    const auto response = expect_msg<BlindResponse>(channel);
    protocol::check_blind_response(response, request, receiver.reveal_bits());
    receiver.apply_reveals(response.values);
  }
  send_msg(channel, ReconcileDone{block_id, receiver.converged_frames()});
  leak += receiver.stats().leaked_bits;
  return receiver.corrected_key();
}

/// The session reconciles LDPC keys on the lockstep batch decoder only.
void require_batched_decoder(const SessionConfig& config) {
  if (!config.ldpc.decoder.quantized) {
    throw_error(ErrorCode::kConfig,
                "the session reconciles on the quantized batch decoder only");
  }
}

}  // namespace

SessionResult run_alice_session(ClassicalChannel& channel,
                                const protocol::AliceTransmitLog& log,
                                std::uint64_t block_id,
                                const SessionConfig& config, Xoshiro256& rng) {
  SessionResult result;
  result.key_id = block_id;
  try {
    require_batched_decoder(config);
    // --- sifting ---------------------------------------------------------
    const auto report = expect_msg<DetectionReport>(channel);
    if (report.block_id != block_id) {
      throw_error(ErrorCode::kProtocol, "detection report for wrong block");
    }
    const auto sift = protocol::sift_alice(log, report);
    send_msg(channel, sift.result);
    result.sifted_bits = sift.sifted_key.size();

    // --- parameter estimation ---------------------------------------------
    const auto split =
        engine::split_sifted(sift.sifted_key, sift.result.signal_mask);
    result.key_candidate_bits = split.signal_positions.size();
    if (split.signal_positions.size() < 64) {
      send_abort(channel, block_id, "insufficient sifted key");
      result.abort_reason = "insufficient sifted key";
      result.channel = channel.counters();
      return result;
    }
    PeReveal reveal;
    reveal.block_id = block_id;
    reveal.positions =
        engine::choose_pe_positions(split, config.pe_fraction, rng);
    for (const auto p : reveal.positions) {
      reveal.alice_bits.push_back(sift.sifted_key.get(p));
    }
    send_msg(channel, reveal);

    const auto pe_report = expect_msg<PeReport>(channel);
    if (pe_report.bob_bits.size() != reveal.positions.size()) {
      throw_error(ErrorCode::kProtocol, "PE report shape mismatch");
    }
    const std::size_t mismatches =
        BitVec::hamming_distance(reveal.alice_bits, pe_report.bob_bits);
    const auto estimate = protocol::estimate_qber(
        reveal.positions.size(), mismatches, config.security.eps_pe);
    result.qber_estimate = estimate.qber;

    PeVerdict verdict;
    verdict.block_id = block_id;
    verdict.qber_estimate = estimate.qber;
    verdict.qber_upper = estimate.qber_upper;
    // Go/no-go on the point estimate (the confidence bound feeds PA).
    verdict.proceed = estimate.qber < config.qber_abort;
    send_msg(channel, verdict);
    if (!verdict.proceed) {
      result.abort_reason = "qber above abort threshold";
      result.channel = channel.counters();
      return result;
    }

    const BitVec key = engine::remaining_key(
        sift.sifted_key, sift.result.signal_mask, reveal.positions);
    const double qber_hint = engine::qber_floor(estimate.qber);

    // --- reconciliation -----------------------------------------------------
    BitVec reconciled;
    if (config.method == ReconcileMethod::kLdpc) {
      reconcile::FramePlan plan;
      try {
        plan = reconcile::plan_key_frames(key.size(), qber_hint, config.ldpc);
      } catch (const Error&) {
        send_abort(channel, block_id, "key shorter than one frame");
        result.abort_reason = "key shorter than one frame";
        result.channel = channel.counters();
        return result;
      }
      reconciled = reconcile_ldpc_alice(channel, key, plan, block_id,
                                        qber_hint, config.ldpc, rng,
                                        result.leak_ec_bits);
    } else {
      // Cascade: Alice is the parity server.
      const std::uint64_t perm_seed = rng.next_u64();
      ReconcileStart start;
      start.block_id = block_id;
      start.method = ReconcileMethod::kCascade;
      start.perm_seed = perm_seed;
      start.qber_hint = qber_hint;
      send_msg(channel, start);

      const reconcile::CascadeResponder responder(key, perm_seed,
                                                  config.cascade.passes);
      for (;;) {
        const Message message = receive_msg(channel);
        if (const auto* request = std::get_if<ParityRequest>(&message)) {
          if (request->range_begins.size() != request->range_ends.size()) {
            throw_error(ErrorCode::kProtocol, "parity request shape");
          }
          std::vector<reconcile::ParityRange> ranges;
          ranges.reserve(request->range_begins.size());
          for (std::size_t i = 0; i < request->range_begins.size(); ++i) {
            ranges.push_back(
                {request->range_begins[i], request->range_ends[i]});
          }
          ParityResponse response;
          response.block_id = block_id;
          response.pass = request->pass;
          response.parities = responder.parities(request->pass, ranges);
          result.leak_ec_bits += ranges.size();
          send_msg(channel, response);
          continue;
        }
        if (auto* done = std::get_if<ReconcileDone>(&message)) {
          // Bob reports round-budget exhaustion (keys provably still
          // differ): leave `reconciled` empty so the no-reconciled-frames
          // abort below fires instead of leaking a doomed verification tag.
          protocol::check_reconcile_done(*done, 1);
          if (done->frames_ok.get(0)) reconciled = key;
          break;
        }
        throw_error(ErrorCode::kProtocol, "unexpected message in cascade");
      }
    }
    result.reconciled_bits = reconciled.size();
    if (reconciled.empty()) {
      send_abort(channel, block_id, "no reconciled frames");
      result.abort_reason = "no reconciled frames";
      result.channel = channel.counters();
      return result;
    }

    // --- verification ---------------------------------------------------------
    VerifyRequest verify;
    verify.block_id = block_id;
    verify.seed = rng.next_u64();
    const U128 tag = privacy::verification_tag(reconciled, verify.seed);
    verify.tag_hi = tag.hi;
    verify.tag_lo = tag.lo;
    send_msg(channel, verify);
    const auto verify_response = expect_msg<VerifyResponse>(channel);
    if (!verify_response.match) {
      send_abort(channel, block_id, "verification mismatch");
      result.abort_reason = "verification mismatch";
      result.channel = channel.counters();
      return result;
    }

    // --- privacy amplification --------------------------------------------------
    const auto pa_plan = privacy::plan_privacy_amplification(
        reconciled.size(), reveal.positions.size(), estimate.qber,
        result.leak_ec_bits + engine::kVerifyTagBits, config.security);
    if (!pa_plan.viable) {
      send_abort(channel, block_id, "no extractable secret key");
      result.abort_reason = "no extractable secret key";
      result.channel = channel.counters();
      return result;
    }
    PaParams pa;
    pa.block_id = block_id;
    pa.seed = rng.next_u64();
    pa.out_len = pa_plan.output_bits;
    send_msg(channel, pa);
    result.final_key =
        engine::apply_toeplitz(pa.seed, reconciled, pa_plan.output_bits);

    // --- confirmation (non-secret parameter checksum) ---------------------------
    KeyConfirm confirm{block_id, block_id, pa_params_crc(pa)};
    send_msg(channel, confirm);
    const auto bob_confirm = expect_msg<KeyConfirm>(channel);
    if (bob_confirm.crc != confirm.crc) {
      throw_error(ErrorCode::kProtocol, "key confirmation mismatch");
    }
    result.success = true;
  } catch (const AbortSignal& abort) {
    result.abort_reason = abort.reason;
  } catch (const Error& error) {
    record_fault(result, channel, block_id, error);
  }
  result.channel = channel.counters();
  return result;
}

SessionResult run_bob_session(ClassicalChannel& channel,
                              const BobDetections& detections,
                              const SessionConfig& config) {
  SessionResult result;
  result.key_id = detections.block_id;
  const std::uint64_t block_id = detections.block_id;
  try {
    require_batched_decoder(config);
    // --- sifting ---------------------------------------------------------
    DetectionReport report;
    report.block_id = block_id;
    report.n_pulses = detections.n_pulses;
    report.detected_idx = detections.detected_idx;
    report.bob_bases = detections.bases;
    send_msg(channel, report);

    const auto sift_result = expect_msg<SiftResult>(channel);
    const BitVec sifted = protocol::sift_bob(detections.bits, sift_result);
    result.sifted_bits = sifted.size();

    // --- parameter estimation ---------------------------------------------
    const auto reveal = expect_msg<PeReveal>(channel);
    PeReport pe_report;
    pe_report.block_id = block_id;
    for (const auto p : reveal.positions) {
      if (p >= sifted.size()) {
        throw_error(ErrorCode::kProtocol, "PE position out of range");
      }
      pe_report.bob_bits.push_back(sifted.get(p));
    }
    send_msg(channel, pe_report);

    const auto verdict = expect_msg<PeVerdict>(channel);
    result.qber_estimate = verdict.qber_estimate;
    if (!verdict.proceed) {
      result.abort_reason = "qber above abort threshold";
      result.channel = channel.counters();
      return result;
    }

    const BitVec key = engine::remaining_key(sifted, sift_result.signal_mask,
                                             reveal.positions);
    result.key_candidate_bits = key.size();

    // --- reconciliation -----------------------------------------------------
    BitVec reconciled;
    const auto start = expect_msg<ReconcileStart>(channel);
    if (start.method == ReconcileMethod::kLdpc) {
      reconciled = reconcile_ldpc_bob(channel, key, start, block_id,
                                      config.ldpc, result.leak_ec_bits);
    } else {
      // Cascade: Bob drives, Alice serves parities.
      RemoteParityOracle oracle(channel, block_id);
      reconcile::CascadeConfig cascade = config.cascade;
      cascade.qber_hint = engine::qber_floor(start.qber_hint);
      cascade.seed = start.perm_seed;
      BitVec corrected = key;
      const auto cascade_result =
          reconcile::cascade_reconcile(corrected, oracle, cascade);
      result.leak_ec_bits += cascade_result.leaked_bits;
      // Report the real convergence state: on round-budget exhaustion the
      // keys provably still differ and verification (which both peers still
      // run, keeping the message flow fixed) is guaranteed to fail.
      send_msg(channel,
               ReconcileDone{block_id, BitVec(1, cascade_result.converged)});
      reconciled = std::move(corrected);
    }
    result.reconciled_bits = reconciled.size();

    // --- verification ---------------------------------------------------------
    const auto verify = expect_msg<VerifyRequest>(channel);
    const U128 tag = privacy::verification_tag(reconciled, verify.seed);
    const bool match = ct_equal(tag, U128{verify.tag_hi, verify.tag_lo});
    send_msg(channel, VerifyResponse{block_id, match});
    if (!match) {
      // Alice will send Abort; consume it for a clean shutdown.
      try {
        (void)expect_msg<VerifyResponse>(channel);
      } catch (const AbortSignal&) {
      }
      result.abort_reason = "verification mismatch";
      result.channel = channel.counters();
      return result;
    }

    // --- privacy amplification --------------------------------------------------
    const auto pa = expect_msg<PaParams>(channel);
    result.final_key = engine::apply_toeplitz(
        pa.seed, reconciled, static_cast<std::size_t>(pa.out_len));

    // --- confirmation -----------------------------------------------------------
    const auto alice_confirm = expect_msg<KeyConfirm>(channel);
    KeyConfirm confirm{block_id, block_id, pa_params_crc(pa)};
    send_msg(channel, confirm);
    if (alice_confirm.crc != confirm.crc) {
      throw_error(ErrorCode::kProtocol, "key confirmation mismatch");
    }
    result.success = true;
  } catch (const AbortSignal& abort) {
    result.abort_reason = abort.reason;
  } catch (const Error& error) {
    record_fault(result, channel, block_id, error);
  }
  result.channel = channel.counters();
  return result;
}

}  // namespace qkdpp::pipeline
