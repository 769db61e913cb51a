#include "reconcile/reconciler.hpp"

#include <algorithm>
#include <utility>

#include "common/arena.hpp"
#include "common/entropy.hpp"
#include "common/error.hpp"
#include "reconcile/batch_decoder.hpp"

namespace qkdpp::reconcile {

namespace {

/// [begin, end) of blind round `round`'s chunk of `total` punctured
/// positions: the positions split into max_rounds near-equal chunks.
std::pair<std::size_t, std::size_t> reveal_range(std::size_t total,
                                                 unsigned round,
                                                 unsigned max_rounds) {
  if (total == 0 || max_rounds == 0) return {0, 0};
  const std::size_t chunk = (total + max_rounds - 1) / max_rounds;
  const std::size_t begin = std::min(total, chunk * (round - 1));
  return {begin, std::min(total, begin + chunk)};
}

}  // namespace

std::vector<std::uint64_t> frame_seeds(std::uint64_t block_id,
                                       std::size_t frames) {
  std::vector<std::uint64_t> seeds(frames);
  for (std::size_t f = 0; f < frames; ++f) seeds[f] = frame_seed(block_id, f);
  return seeds;
}

FramePlan plan_key_frames(std::size_t key_bits, double qber,
                          const LdpcReconcilerConfig& config) {
  return config.decoder.quantized
             ? plan_frame_batched(key_bits, qber, config.f_target,
                                  config.adapt_fraction,
                                  config.batch_target_frames)
             : plan_frame_fitting(key_bits, qber, config.f_target,
                                  config.adapt_fraction);
}

LdpcFrameSender::LdpcFrameSender(const FramePlan& plan, const BitVec& payload,
                                 std::uint64_t frame_seed,
                                 Xoshiro256& private_rng)
    : plan_(plan) {
  const LdpcCode& code = code_by_id(plan.code_id);
  QKDPP_REQUIRE(payload.size() == plan.payload_bits,
                "payload does not match frame plan");
  adaptation_ = derive_adaptation(code.n(), plan.n_punctured,
                                  plan.n_shortened, frame_seed);
  frame_ = BitVec(code.n());
  for (std::size_t i = 0; i < adaptation_.payload.size(); ++i) {
    if (payload.get(i)) frame_.set(adaptation_.payload[i], true);
  }
  // Punctured positions carry the sender's *private* randomness - never
  // transmitted, unknown to Eve; shortened positions stay 0.
  for (const auto p : adaptation_.punctured) {
    if (private_rng.bernoulli(0.5)) frame_.set(p, true);
  }
  syndrome_ = code.syndrome(frame_);
}

LdpcFrameSender::Reveal LdpcFrameSender::reveal_chunk(
    unsigned round, unsigned max_rounds) const {
  QKDPP_REQUIRE(round >= 1, "blind rounds are 1-based");
  Reveal reveal;
  const auto [begin, end] =
      reveal_range(adaptation_.punctured.size(), round, max_rounds);
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t position = adaptation_.punctured[i];
    reveal.positions.push_back(position);
    reveal.values.push_back(frame_.get(position));
  }
  return reveal;
}

LdpcFrameReceiver::LdpcFrameReceiver(const FramePlan& plan,
                                     const BitVec& payload,
                                     std::uint64_t frame_seed, double qber,
                                     DecoderConfig decoder)
    : plan_(plan), decoder_(decoder) {
  const LdpcCode& code = code_by_id(plan.code_id);
  QKDPP_REQUIRE(payload.size() == plan.payload_bits,
                "payload does not match frame plan");
  adaptation_ = derive_adaptation(code.n(), plan.n_punctured,
                                  plan.n_shortened, frame_seed);
  const float channel = bsc_llr(qber);
  llr_.assign(code.n(), 0.0f);
  for (std::size_t i = 0; i < adaptation_.payload.size(); ++i) {
    llr_[adaptation_.payload[i]] = payload.get(i) ? -channel : channel;
  }
  for (const auto s : adaptation_.shortened) llr_[s] = kKnownLlr;
  // Punctured positions stay at LLR 0 (erasures).
}

LdpcFrameReceiver::Attempt LdpcFrameReceiver::try_decode(
    const BitVec& syndrome) {
  const LdpcCode& code = code_by_id(plan_.code_id);
  const DecodeResult result =
      decoder_.quantized ? decode_syndrome_quant(code, syndrome, llr_, decoder_)
                         : decode_syndrome(code, syndrome, llr_, decoder_);
  decoded_ = result.word;
  return Attempt{result.converged, result.iterations};
}

void LdpcFrameReceiver::apply_reveal(
    const std::vector<std::uint32_t>& positions, const BitVec& values) {
  QKDPP_REQUIRE(positions.size() == values.size(), "reveal shape mismatch");
  for (std::size_t i = 0; i < positions.size(); ++i) {
    QKDPP_REQUIRE(positions[i] < llr_.size(), "reveal position out of range");
    llr_[positions[i]] = values.get(i) ? -kKnownLlr : kKnownLlr;
  }
}

BitVec LdpcFrameReceiver::corrected_payload() const {
  return decoded_.gather(adaptation_.payload);
}

ReconcileOutcome ldpc_reconcile_local(const BitVec& alice_payload,
                                      const BitVec& bob_payload, double qber,
                                      const FramePlan& plan,
                                      std::uint64_t frame_seed,
                                      const LdpcReconcilerConfig& config,
                                      Xoshiro256& alice_private_rng) {
  const LdpcCode& code = code_by_id(plan.code_id);
  LdpcFrameSender alice(plan, alice_payload, frame_seed, alice_private_rng);
  LdpcFrameReceiver bob(plan, bob_payload, frame_seed, qber, config.decoder);

  ReconcileOutcome outcome;
  outcome.rounds = 1;  // syndrome message
  outcome.leaked_bits = code.m() - plan.n_punctured;

  auto attempt = bob.try_decode(alice.syndrome());
  outcome.decoder_iterations = attempt.iterations;
  unsigned round = 0;
  while (!attempt.converged && round < config.max_blind_rounds) {
    ++round;
    const auto reveal = alice.reveal_chunk(round, config.max_blind_rounds);
    if (reveal.positions.empty()) break;
    bob.apply_reveal(reveal.positions, reveal.values);
    outcome.leaked_bits += reveal.positions.size();
    outcome.rounds += 1;
    attempt = bob.try_decode(alice.syndrome());
    outcome.decoder_iterations += attempt.iterations;
  }
  outcome.blind_rounds = round;
  outcome.success = attempt.converged;
  if (outcome.success) {
    outcome.corrected = bob.corrected_payload();
    // Converged to the wrong codeword? The verification stage catches it;
    // the outcome still reports success at this layer.
  }
  outcome.efficiency =
      static_cast<double>(outcome.leaked_bits) /
      (static_cast<double>(plan.payload_bits) * binary_entropy(qber));
  return outcome;
}

std::vector<LdpcFrameSender> make_frame_senders(
    const BitVec& key, const FramePlan& plan,
    std::span<const std::uint64_t> frame_seeds, Xoshiro256& private_rng,
    BlockArena* arena) {
  QKDPP_REQUIRE(frame_seeds.size() * plan.payload_bits <= key.size(),
                "frames exceed key length");
  BitVec local_payload;
  BitVec& payload = arena != nullptr ? arena->scratch_bits() : local_payload;
  std::vector<LdpcFrameSender> senders;
  senders.reserve(frame_seeds.size());
  for (std::size_t f = 0; f < frame_seeds.size(); ++f) {
    key.subvec_into(f * plan.payload_bits, plan.payload_bits, payload);
    senders.emplace_back(plan, payload, frame_seeds[f], private_rng);
  }
  return senders;
}

BitVec reveal_chunks(std::span<const LdpcFrameSender> senders,
                     std::span<const std::uint32_t> frames, unsigned round,
                     unsigned max_rounds) {
  BitVec values;
  for (const std::uint32_t f : frames) {
    values.append(senders[f].reveal_chunk(round, max_rounds).values);
  }
  return values;
}

LdpcBatchReceiver::LdpcBatchReceiver(const FramePlan& plan, const BitVec& key,
                                     double qber,
                                     std::span<const std::uint64_t> frame_seeds,
                                     const BitVec& syndromes,
                                     DecoderConfig decoder,
                                     unsigned max_blind_rounds)
    : plan_(plan),
      qber_(qber),
      decoder_(decoder),
      max_blind_rounds_(max_blind_rounds) {
  const LdpcCode& code = code_by_id(plan.code_id);
  const std::size_t count = frame_seeds.size();
  QKDPP_REQUIRE(count * plan.payload_bits <= key.size(),
                "frames exceed key length");
  QKDPP_REQUIRE(syndromes.size() == count * code.m(),
                "one m-bit syndrome per frame");
  // Priors, identical to LdpcFrameReceiver's construction: channel LLRs at
  // payload positions, pinned shortened positions, erased (punctured)
  // positions at zero.
  const float channel = bsc_llr(qber);
  frames_.resize(count);
  pending_.resize(count);
  for (std::size_t f = 0; f < count; ++f) {
    Frame& frame = frames_[f];
    frame.syndrome = syndromes.subvec(f * code.m(), code.m());
    frame.adaptation = derive_adaptation(code.n(), plan.n_punctured,
                                         plan.n_shortened, frame_seeds[f]);
    frame.llr.assign(code.n(), 0.0f);
    const auto& positions = frame.adaptation.payload;
    const std::size_t base = f * plan.payload_bits;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      frame.llr[positions[i]] = key.get(base + i) ? -channel : channel;
    }
    for (const auto s : frame.adaptation.shortened) frame.llr[s] = kKnownLlr;
    frame.leaked = code.m() - plan.n_punctured;
    pending_[f] = static_cast<std::uint32_t>(f);
  }
}

bool LdpcBatchReceiver::decode() {
  const LdpcCode& code = code_by_id(plan_.code_id);
  std::vector<QuantDecodeJob> jobs;
  std::vector<DecodeResult> results;
  for (std::size_t off = 0; off < pending_.size(); off += kMaxBatchFrames) {
    const std::size_t count = std::min(kMaxBatchFrames, pending_.size() - off);
    jobs.clear();
    for (std::size_t i = 0; i < count; ++i) {
      const Frame& frame = frames_[pending_[off + i]];
      jobs.push_back(QuantDecodeJob{&frame.syndrome, &frame.llr});
    }
    decode_syndrome_batch(code, jobs, decoder_, results);
    for (std::size_t i = 0; i < count; ++i) {
      Frame& frame = frames_[pending_[off + i]];
      frame.iterations += results[i].iterations;
      if (results[i].converged) {
        frame.converged = true;
        frame.early_exit = results[i].iterations < decoder_.max_iterations;
        frame.corrected = results[i].word.gather(frame.adaptation.payload);
      }
    }
  }
  // Every pending frame has been through the same number of rounds, so the
  // blind budget is one test for the whole batch.
  request_.clear();
  if (round_ < max_blind_rounds_) {
    for (const std::uint32_t f : pending_) {
      if (!frames_[f].converged) request_.push_back(f);
    }
  }
  pending_.clear();
  if (request_.empty()) return false;
  ++round_;
  for (const std::uint32_t f : request_) frames_[f].blind = round_;
  return true;
}

std::size_t LdpcBatchReceiver::reveal_bits() const {
  std::size_t bits = 0;
  for (const std::uint32_t f : request_) {
    const auto [begin, end] = reveal_range(
        frames_[f].adaptation.punctured.size(), round_, max_blind_rounds_);
    bits += end - begin;
  }
  return bits;
}

void LdpcBatchReceiver::apply_reveals(const BitVec& values) {
  QKDPP_REQUIRE(values.size() == reveal_bits(), "reveal answer length");
  std::size_t offset = 0;
  for (const std::uint32_t f : request_) {
    Frame& frame = frames_[f];
    const auto [begin, end] = reveal_range(frame.adaptation.punctured.size(),
                                           round_, max_blind_rounds_);
    if (begin == end) continue;  // nothing left to disclose
    for (std::size_t i = begin; i < end; ++i) {
      frame.llr[frame.adaptation.punctured[i]] =
          values.get(offset++) ? -kKnownLlr : kKnownLlr;
    }
    frame.leaked += end - begin;
    frame.rounds += 1;
    pending_.push_back(f);
  }
  request_.clear();
}

BitVec LdpcBatchReceiver::converged_frames() const {
  BitVec frames_ok(frames_.size());
  for (std::size_t f = 0; f < frames_.size(); ++f) {
    frames_ok.set(f, frames_[f].converged);
  }
  return frames_ok;
}

BitVec LdpcBatchReceiver::corrected_key() const {
  BitVec key;
  for (const Frame& frame : frames_) key.append(frame.corrected);
  return key;
}

BitVec converged_payloads(const BitVec& key, const FramePlan& plan,
                          const BitVec& frames_ok) {
  BitVec payloads;
  for (std::size_t f = 0; f < frames_ok.size(); ++f) {
    if (frames_ok.get(f)) {
      payloads.append(key.subvec(f * plan.payload_bits, plan.payload_bits));
    }
  }
  return payloads;
}

ReconcileOutcome LdpcBatchReceiver::outcome(std::uint32_t f) const {
  const Frame& frame = frames_[f];
  ReconcileOutcome outcome;
  outcome.success = frame.converged;
  outcome.corrected = frame.corrected;
  outcome.leaked_bits = frame.leaked;
  outcome.rounds = frame.rounds;
  outcome.decoder_iterations = frame.iterations;
  outcome.blind_rounds = frame.blind;
  outcome.efficiency =
      static_cast<double>(frame.leaked) /
      (static_cast<double>(plan_.payload_bits) * binary_entropy(qber_));
  return outcome;
}

BatchReconcileStats LdpcBatchReceiver::stats() const {
  BatchReconcileStats stats;
  stats.frames = frames_.size();
  for (const Frame& frame : frames_) {
    stats.iterations += frame.iterations;
    stats.blind_rounds += frame.blind;
    stats.leaked_bits += frame.leaked;
    stats.rounds += frame.rounds;
    stats.frames_ok += frame.converged;
    stats.early_exit_frames += frame.converged && frame.early_exit;
  }
  return stats;
}

BatchReconcileStats ldpc_reconcile_key_batch(
    const BitVec& alice_key, const BitVec& bob_key, double qber,
    const FramePlan& plan, std::span<const std::uint64_t> frame_seeds,
    const LdpcReconcilerConfig& config, Xoshiro256& alice_private_rng,
    BlockArena* arena, BitVec& alice_out, BitVec& bob_out,
    std::vector<ReconcileOutcome>* per_frame) {
  const std::size_t frames = frame_seeds.size();
  QKDPP_REQUIRE(alice_key.size() == bob_key.size(),
                "batch keys must have equal length");
  if (per_frame != nullptr) per_frame->assign(frames, ReconcileOutcome{});
  if (frames == 0) return BatchReconcileStats{};

  DecoderConfig decoder = config.decoder;
  if (arena != nullptr) decoder.arena = arena;

  const std::vector<LdpcFrameSender> senders = make_frame_senders(
      alice_key, plan, frame_seeds, alice_private_rng, arena);
  BitVec syndromes;
  for (const auto& sender : senders) syndromes.append(sender.syndrome());
  LdpcBatchReceiver bob(plan, bob_key, qber, frame_seeds, syndromes, decoder,
                        config.max_blind_rounds);
  while (bob.decode()) {
    bob.apply_reveals(reveal_chunks(senders, bob.request(), bob.round(),
                                    config.max_blind_rounds));
  }

  alice_out.append(converged_payloads(alice_key, plan, bob.converged_frames()));
  bob_out.append(bob.corrected_key());
  if (per_frame != nullptr) {
    for (std::uint32_t f = 0; f < frames; ++f) (*per_frame)[f] = bob.outcome(f);
  }
  return bob.stats();
}

ReconcileOutcome cascade_reconcile_local(const BitVec& alice_key,
                                         const BitVec& bob_key, double qber,
                                         const CascadeConfig& config) {
  QKDPP_REQUIRE(alice_key.size() == bob_key.size(),
                "cascade keys must have equal length");
  LocalParityOracle oracle(alice_key, config.seed, config.passes);
  BitVec corrected = bob_key;
  const CascadeResult result = cascade_reconcile(corrected, oracle, config);

  ReconcileOutcome outcome;
  outcome.corrected = std::move(corrected);
  // Non-convergence (round budget exhausted with odd blocks outstanding)
  // means the keys provably still differ; converged runs may still carry a
  // residual undetected error pair, which verification catches.
  outcome.success = result.converged;
  outcome.leaked_bits = result.leaked_bits;
  outcome.rounds = result.rounds;
  outcome.efficiency = result.efficiency(alice_key.size(), qber);
  return outcome;
}

}  // namespace qkdpp::reconcile
