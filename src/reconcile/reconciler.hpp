// High-level reconciliation API: one call per frame, with exact leakage and
// efficiency reporting. Two families behind one result type:
//
//   * LDPC - one-way syndrome coding with blind (incremental) rate
//     adaptation. A key is cut into frames that reconcile in lockstep:
//     Alice's syndromes travel as one message, and each blind round costs
//     one more round trip for every frame still failing. The engine runs
//     both halves in-process (ldpc_reconcile_key_batch); the two-party
//     session runs make_frame_senders on Alice's side and
//     LdpcBatchReceiver on Bob's, with the same plan (plan_key_frames),
//     frame seeds (frame_seed) and iteration cap (kBatchIterationCap).
//   * Cascade (see cascade.hpp) - interactive, efficiency ~1.05-1.2 but
//     O(log n) round trips per error.
//
// The pipeline chooses per block; the benches compare them head-to-head.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "reconcile/cascade.hpp"
#include "reconcile/ldpc_decoder.hpp"
#include "reconcile/rate_adapt.hpp"

namespace qkdpp {
class BlockArena;
}

namespace qkdpp::reconcile {

struct ReconcileOutcome {
  bool success = false;
  BitVec corrected;             ///< Bob's corrected payload (= Alice's)
  std::uint64_t leaked_bits = 0;
  std::uint64_t rounds = 0;     ///< protocol round-trips consumed
  unsigned decoder_iterations = 0;
  unsigned blind_rounds = 0;
  double efficiency = 0.0;      ///< leak / (payload * h2(qber))
};

struct LdpcReconcilerConfig {
  /// Regular (3,dc) PEG codes are not capacity-tight; 1.45 keeps the frame
  /// error rate near zero without blind rescues (measured in
  /// reconcile_ldpc_test). Tighter targets trade blind round-trips for
  /// leakage - see the F4/F8 benches.
  double f_target = 1.45;
  double adapt_fraction = 0.10;
  std::size_t min_frame = 4096;
  unsigned max_blind_rounds = 4;
  /// Lockstep frames the batched planner aims to cut a key into (see
  /// plan_frame_batched); only consulted when decoder.quantized is set.
  std::size_t batch_target_frames = 8;
  DecoderConfig decoder;
};

/// Per-attempt iteration cap of the lockstep batch decoder (engine and
/// session alike). Frames that need more than this almost never recover
/// within the attempt - they converge after the next blind reveal instead,
/// so short attempts waste less lockstep width on stragglers.
inline constexpr unsigned kBatchIterationCap = 20;

/// Seed of frame `f` of block `block_id`. Both peers derive each frame's
/// puncture/shorten partition from it, so it never travels on the wire.
constexpr std::uint64_t frame_seed(std::uint64_t block_id,
                                   std::size_t f) noexcept {
  return (block_id << 20) ^ (f * 0x9e3779b97f4a7c15ULL);
}

/// frame_seed(block_id, f) for f in [0, frames).
std::vector<std::uint64_t> frame_seeds(std::uint64_t block_id,
                                       std::size_t frames);

/// The frame plan for a `key_bits`-bit key. The quantized decoder gets
/// plan_frame_batched (enough frames to fill its lanes); the legacy float
/// path wants the largest fitting frame (plan_frame_fitting). Throws
/// Error{kConfig} when the key is shorter than every frame.
FramePlan plan_key_frames(std::size_t key_bits, double qber,
                          const LdpcReconcilerConfig& config);

/// Alice-side state for one LDPC frame: keeps the filled frame (payload +
/// private punctured randomness) so blind reveals can be served.
class LdpcFrameSender {
 public:
  /// `payload` must have exactly plan.payload_bits bits.
  LdpcFrameSender(const FramePlan& plan, const BitVec& payload,
                  std::uint64_t frame_seed, Xoshiro256& private_rng);

  const BitVec& syndrome() const noexcept { return syndrome_; }
  const FramePlan& plan() const noexcept { return plan_; }

  /// Serve blind round `round` (1-based): the values of the next chunk of
  /// punctured positions. Empty when everything is already revealed.
  struct Reveal {
    std::vector<std::uint32_t> positions;
    BitVec values;
  };
  Reveal reveal_chunk(unsigned round, unsigned max_rounds) const;

 private:
  FramePlan plan_;
  RateAdaptation adaptation_;
  BitVec frame_;
  BitVec syndrome_;
};

/// Alice's half of a lockstep batch: one sender per frame, built in frame
/// order from consecutive payload-sized slices of `key`, so `private_rng`
/// is consumed frame by frame. `arena` (nullable) backs the payload scratch.
std::vector<LdpcFrameSender> make_frame_senders(
    const BitVec& key, const FramePlan& plan,
    std::span<const std::uint64_t> frame_seeds, Xoshiro256& private_rng,
    BlockArena* arena);

/// Bob-side decoder for one LDPC frame.
class LdpcFrameReceiver {
 public:
  LdpcFrameReceiver(const FramePlan& plan, const BitVec& payload,
                    std::uint64_t frame_seed, double qber,
                    DecoderConfig decoder);

  /// Attempt decode against Alice's syndrome. Call apply_reveal() between
  /// attempts on failure.
  struct Attempt {
    bool converged = false;
    unsigned iterations = 0;
  };
  Attempt try_decode(const BitVec& syndrome);

  void apply_reveal(const std::vector<std::uint32_t>& positions,
                    const BitVec& values);

  /// Corrected payload; only meaningful after a converged attempt.
  BitVec corrected_payload() const;

 private:
  FramePlan plan_;
  RateAdaptation adaptation_;
  std::vector<float> llr_;
  DecoderConfig decoder_;
  BitVec decoded_;
};

/// Run the whole LDPC exchange in-process (tests, benches, offline
/// pipeline): Alice = `alice_payload`, Bob = `bob_payload`.
ReconcileOutcome ldpc_reconcile_local(const BitVec& alice_payload,
                                      const BitVec& bob_payload, double qber,
                                      const FramePlan& plan,
                                      std::uint64_t frame_seed,
                                      const LdpcReconcilerConfig& config,
                                      Xoshiro256& alice_private_rng);

/// Aggregate statistics for one batched reconcile call (all counters are
/// sums over frames unless noted).
struct BatchReconcileStats {
  std::uint64_t frames = 0;
  std::uint64_t frames_ok = 0;       ///< converged frames
  std::uint64_t iterations = 0;      ///< decoder iterations, all attempts
  std::uint64_t early_exit_frames = 0;  ///< converged before the iteration cap
  std::uint64_t blind_rounds = 0;
  std::uint64_t leaked_bits = 0;
  std::uint64_t rounds = 0;          ///< protocol round-trips
};

/// Alice's answer to the round-`round` blind request naming `frames`: each
/// named frame's reveal chunk, concatenated in request order.
BitVec reveal_chunks(std::span<const LdpcFrameSender> senders,
                     std::span<const std::uint32_t> frames, unsigned round,
                     unsigned max_rounds);

/// The payload-sized slices of `key` whose bit in `frames_ok` is set, in
/// frame order: Alice's reconciled key once Bob names the converged frames.
BitVec converged_payloads(const BitVec& key, const FramePlan& plan,
                          const BitVec& frames_ok);

/// Bob's half of a lockstep batch over consecutive payload-sized slices of
/// his key. Each decode() runs every pending frame through one quantized
/// batch decode (sub-batches of kMaxBatchFrames); the frames that failed
/// with blind budget left form the blind request of the next round.
/// Alice's answer (apply_reveals) sends each named frame into the next,
/// smaller batch; a frame whose chunk is empty has nothing left to learn
/// and drops out. Leak and round accounting count exactly what Alice
/// discloses.
class LdpcBatchReceiver {
 public:
  /// Frame f decodes `key[f * payload, (f + 1) * payload)` under
  /// frame_seeds[f]'s partition against its m-bit slice of `syndromes`
  /// (every frame's syndrome, concatenated in frame order).
  /// `decoder.arena` (nullable) backs the decoder scratch.
  LdpcBatchReceiver(const FramePlan& plan, const BitVec& key, double qber,
                    std::span<const std::uint64_t> frame_seeds,
                    const BitVec& syndromes, DecoderConfig decoder,
                    unsigned max_blind_rounds);

  /// Decode the pending frames. True when a blind round is due: request()
  /// then names the frames still failing with blind budget left.
  bool decode();
  /// The current blind request: ascending frame indices.
  const std::vector<std::uint32_t>& request() const noexcept {
    return request_;
  }
  /// Blind rounds requested so far; request() is for this round.
  unsigned round() const noexcept { return round_; }
  /// Length of Alice's answer to the current request.
  std::size_t reveal_bits() const;
  /// Apply Alice's answer to the current request (reveal_bits() values, as
  /// reveal_chunks lays them out) and queue its frames for decode().
  void apply_reveals(const BitVec& values);

  /// One bit per frame, set when the frame converged.
  BitVec converged_frames() const;
  /// Corrected payloads of the converged frames, in frame order.
  BitVec corrected_key() const;
  /// Per-frame accounting, as ldpc_reconcile_local would report it.
  ReconcileOutcome outcome(std::uint32_t f) const;
  /// Accounting summed over every frame.
  BatchReconcileStats stats() const;

 private:
  struct Frame {
    RateAdaptation adaptation;
    std::vector<float> llr;
    BitVec syndrome;
    std::uint64_t leaked = 0;
    std::uint64_t rounds = 1;  // syndrome message
    unsigned iterations = 0;
    unsigned blind = 0;
    bool converged = false;
    bool early_exit = false;
    BitVec corrected;
  };

  FramePlan plan_;
  double qber_;
  DecoderConfig decoder_;
  unsigned max_blind_rounds_;
  unsigned round_ = 0;
  std::vector<Frame> frames_;
  std::vector<std::uint32_t> pending_;
  std::vector<std::uint32_t> request_;
};

/// Reconcile frame_seeds.size() consecutive payload-sized slices of the
/// two keys in lockstep: the in-process composition of make_frame_senders
/// (Alice) and LdpcBatchReceiver (Bob) - all frames share one quantized
/// batch decode per blind stage, failed frames apply their own reveal
/// chunk and re-decode as a shrinking sub-batch. Surviving payload pairs
/// are appended to alice_out / bob_out in frame order (failed frames are
/// skipped but their leakage still counts). Per-frame results - corrected
/// payloads, leak accounting, rounds - are bit-identical to calling
/// ldpc_reconcile_local frame by frame with the same shared private RNG
/// and a quantized DecoderConfig (the equivalence the reconcile_batch
/// tests pin down). `per_frame`, when non-null, receives one
/// ReconcileOutcome per frame. `arena` (nullable) backs the decoder and
/// payload scratch.
BatchReconcileStats ldpc_reconcile_key_batch(
    const BitVec& alice_key, const BitVec& bob_key, double qber,
    const FramePlan& plan, std::span<const std::uint64_t> frame_seeds,
    const LdpcReconcilerConfig& config, Xoshiro256& alice_private_rng,
    BlockArena* arena, BitVec& alice_out, BitVec& bob_out,
    std::vector<ReconcileOutcome>* per_frame = nullptr);

/// Run Cascade in-process; thin wrapper pairing the engine with a local
/// oracle and translating to ReconcileOutcome.
ReconcileOutcome cascade_reconcile_local(const BitVec& alice_key,
                                         const BitVec& bob_key, double qber,
                                         const CascadeConfig& config);

}  // namespace qkdpp::reconcile
