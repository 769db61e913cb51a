// Correctness checks. Each derives from a property the method must have or
// from a computation made apart from the library, never from the library's
// own view of its result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Collects failed checks; the run is correct when none failed.
class Checks {
 public:
  void fail(std::string message);
  /// Records `message` when `ok` is false; returns `ok`.
  bool expect(bool ok, const std::string& message);
  bool passed() const noexcept { return failures_.empty(); }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// Every key handed out by enc_keys and every key collected by dec_keys,
/// by UUID. A key counts as delivered only once the slave collected the
/// same bytes under the same UUID. Collected keys are forgotten except for
/// a 64-bit digest of their UUID, so the ledger stays small next to the
/// memory the program itself uses.
class DeliveryLedger {
 public:
  void record_enc(std::string_view pair, const std::string& uuid,
                  const std::string& key_hex);
  void record_dec(std::string_view pair, const std::string& uuid,
                  const std::string& key_hex);

  /// Bits of keys collected bit-identically by the slave.
  std::uint64_t matched_bits() const noexcept { return matched_bits_; }

  /// UUIDs never repeat, every dec_keys key equals the enc_keys key of the
  /// same UUID on the same pair, and every enc_keys key was collected.
  void check(Checks& checks);

 private:
  struct Pending {
    std::string pair;
    std::string key;
  };
  std::unordered_map<std::string, Pending> pending_;  ///< not yet collected
  std::vector<std::uint64_t> minted_;  ///< UUID digests, in minting order
  std::vector<std::string> errors_;
  std::uint64_t matched_bits_ = 0;
};

/// Bits deposited = bits drawn by every consumer + bits left in the store.
void check_conservation(Checks& checks, std::string_view link,
                        std::uint64_t deposited,
                        const std::map<std::string, std::uint64_t>& drawn,
                        std::uint64_t left);

/// Privacy amplification may not output more than the reconciled bits minus
/// everything disclosed: final + leak_ec + the 128-bit verify tag.
void check_amplification(Checks& checks, std::uint64_t block,
                         std::uint64_t final_bits, std::uint64_t leak_ec_bits,
                         std::uint64_t reconciled_bits);

/// Ground truth of one detection record, counted from the raw Alice/Bob bit
/// and basis arrays.
struct GroundTruth {
  std::uint64_t signal_sifted = 0;  ///< matched-basis signal-class bits
  std::uint64_t signal_errors = 0;
  std::uint64_t other_sifted = 0;   ///< matched-basis decoy/vacuum bits
  std::uint64_t other_errors = 0;

  double signal_qber() const noexcept {
    return signal_sifted ? static_cast<double>(signal_errors) /
                               static_cast<double>(signal_sifted)
                         : 0.0;
  }
};

/// The estimate discloses every non-signal sifted bit plus a uniform sample
/// of floor(pe_fraction * signal_sifted) signal bits, so its expectation and
/// hypergeometric spread follow from the ground truth. Accepts estimates
/// within six standard deviations (plus one count) of the expectation.
void check_qber(Checks& checks, std::uint64_t block, double estimate,
                const GroundTruth& truth, double pe_fraction);

/// Final-key ones lie within five standard deviations of half the bits.
void check_balance(Checks& checks, std::uint64_t ones, std::uint64_t bits);

/// The named layer spans under every span called `root` account for its
/// time: the part of the root that no same-thread child covers stays within
/// 5% of its duration. Returns the worst uncovered share.
double check_layer_coverage(Checks& checks, const std::vector<Span>& spans,
                            std::string_view root);

/// 64-bit FNV-1a, chained: digest of delivered key material.
std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) noexcept;
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

}  // namespace perfbench
