// Typed protocol messages exchanged over the classical channel.
//
// Every message carries the block id it refers to, so a session can detect
// out-of-order or replayed frames cheaply (full integrity/authenticity is the
// authenticated channel's job). Wire format: 1 type byte + fields in
// ByteWriter little-endian encoding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bitvec.hpp"

namespace qkdpp::protocol {

/// Bob -> Alice: which gates clicked and in which bases they were measured.
struct DetectionReport {
  std::uint64_t block_id = 0;
  std::uint64_t n_pulses = 0;
  std::vector<std::uint32_t> detected_idx;
  BitVec bob_bases;  ///< one bit per detection
};

/// Alice -> Bob: which detections had matching bases (mask over detections)
/// and which of the kept bits are non-signal pulses (decoy/vacuum, to be
/// fully revealed during estimation rather than keyed).
struct SiftResult {
  std::uint64_t block_id = 0;
  BitVec keep_mask;    ///< over detections
  BitVec signal_mask;  ///< over kept bits: 1 = signal pulse (key material)
};

/// Alice -> Bob: reveal request for parameter estimation. `positions` index
/// into the *sifted* string; alice_bits are her values there (disclosed).
struct PeReveal {
  std::uint64_t block_id = 0;
  std::vector<std::uint32_t> positions;
  BitVec alice_bits;
};

/// Bob -> Alice: his bits at the requested positions.
struct PeReport {
  std::uint64_t block_id = 0;
  BitVec bob_bits;
};

/// Alice -> Bob: continue/abort decision with the estimate that drove it.
struct PeVerdict {
  std::uint64_t block_id = 0;
  bool proceed = false;
  double qber_estimate = 0.0;
  double qber_upper = 0.0;
};

/// Reconciliation method selector.
enum class ReconcileMethod : std::uint8_t { kCascade = 0, kLdpc = 1 };

/// Alice -> Bob: reconciliation parameters. LDPC: the frame plan and every
/// frame's syndrome, concatenated in frame order (frames x m bits); frame
/// seeds follow reconcile::frame_seed, so none travels. Cascade:
/// `perm_seed` drives both sides' shuffles.
struct ReconcileStart {
  std::uint64_t block_id = 0;
  ReconcileMethod method = ReconcileMethod::kLdpc;
  std::uint64_t perm_seed = 0;
  std::uint32_t code_id = 0;
  std::uint32_t n_punctured = 0;
  std::uint32_t n_shortened = 0;
  double qber_hint = 0.0;
  BitVec syndromes;
};

/// Bob -> Alice (Cascade): batched parity queries over half-open ranges in
/// the pass-`pass` permuted domain.
struct ParityRequest {
  std::uint64_t block_id = 0;
  std::uint32_t pass = 0;
  std::vector<std::uint32_t> range_begins;
  std::vector<std::uint32_t> range_ends;
};

/// Alice -> Bob (Cascade): one parity bit per requested range.
struct ParityResponse {
  std::uint64_t block_id = 0;
  std::uint32_t pass = 0;
  BitVec parities;
};

/// Bob -> Alice: reconciliation finished on his side. One bit per frame
/// (LDPC) or a single bit for the whole key (Cascade): 1 = converged.
struct ReconcileDone {
  std::uint64_t block_id = 0;
  BitVec frames_ok;
};

/// Bob -> Alice (blind LDPC): the frames still failing after round - 1
/// reveals, ascending; each wants its round-`round` chunk of punctured
/// values.
struct BlindRequest {
  std::uint64_t block_id = 0;
  std::uint32_t round = 0;
  std::vector<std::uint32_t> frames;
};

/// Alice -> Bob (blind LDPC): each requested frame's chunk of punctured
/// values, concatenated in request order. Chunk positions and lengths
/// follow from the frame's seed and the round, so none travels.
struct BlindResponse {
  std::uint64_t block_id = 0;
  std::uint32_t round = 0;
  BitVec values;
};

/// Alice -> Bob: seeded universal-hash challenge over her corrected key.
struct VerifyRequest {
  std::uint64_t block_id = 0;
  std::uint64_t seed = 0;
  std::uint64_t tag_hi = 0;
  std::uint64_t tag_lo = 0;
};

/// Bob -> Alice: whether his key hashes to the same tag.
struct VerifyResponse {
  std::uint64_t block_id = 0;
  bool match = false;
};

/// Alice -> Bob: privacy-amplification parameters (Toeplitz seed + length).
struct PaParams {
  std::uint64_t block_id = 0;
  std::uint64_t seed = 0;
  std::uint64_t out_len = 0;
};

/// Both directions: final-key fingerprint for bookkeeping (not secret).
struct KeyConfirm {
  std::uint64_t block_id = 0;
  std::uint64_t key_id = 0;
  std::uint32_t crc = 0;
};

/// Either side: abandon the block (reason mirrors ErrorCode).
struct Abort {
  std::uint64_t block_id = 0;
  std::uint8_t reason = 0;
  std::string detail;
};

using Message =
    std::variant<DetectionReport, SiftResult, PeReveal, PeReport, PeVerdict,
                 ReconcileStart, ParityRequest, ParityResponse, ReconcileDone,
                 BlindRequest, BlindResponse, VerifyRequest, VerifyResponse,
                 PaParams, KeyConfirm, Abort>;

/// Stable wire tag of the alternative held by `m`.
std::uint8_t message_type(const Message& m) noexcept;
/// Human-readable name, for logs and protocol errors.
const char* message_name(const Message& m) noexcept;

std::vector<std::uint8_t> encode_message(const Message& m);
/// Throws Error{kSerialization} on malformed frames.
Message decode_message(std::span<const std::uint8_t> frame);

// Plan checks of the batched LDPC exchange. Each peer checks the other's
// counts and indices against its own frame plan - `frames` frames of a code
// with `syndrome_bits` (= m) checks - before any of it reaches the decoder;
// a mismatch throws Error{kProtocol}.

/// One syndrome_bits-bit syndrome per frame.
void check_syndromes(const ReconcileStart& start, std::size_t frames,
                     std::size_t syndrome_bits);
/// At least one frame named; indices strictly ascending and below `frames`.
void check_blind_request(const BlindRequest& request, std::size_t frames);
/// Answers `request`'s round with the `reveal_bits` values its frames'
/// chunks hold.
void check_blind_response(const BlindResponse& response,
                          const BlindRequest& request, std::size_t reveal_bits);
/// One success bit per frame.
void check_reconcile_done(const ReconcileDone& done, std::size_t frames);

}  // namespace qkdpp::protocol
