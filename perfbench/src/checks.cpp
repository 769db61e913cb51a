#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// Beyond this many, failures are counted but not kept verbatim.
constexpr std::size_t kKeptFailures = 20;

}  // namespace

void Checks::fail(std::string message) {
  if (failures_.size() < kKeptFailures) {
    failures_.push_back(std::move(message));
  } else if (failures_.size() == kKeptFailures) {
    failures_.push_back("... further failures suppressed");
  }
}

bool Checks::expect(bool ok, const std::string& message) {
  if (!ok) fail(message);
  return ok;
}

void DeliveryLedger::record_enc(std::string_view pair, const std::string& uuid,
                                const std::string& key_hex) {
  minted_.push_back(fnv1a(kFnvOffset, uuid));
  const auto [it, inserted] =
      pending_.try_emplace(uuid, Pending{std::string(pair), key_hex});
  if (!inserted) errors_.push_back("UUID " + uuid + " minted twice");
}

void DeliveryLedger::record_dec(std::string_view pair, const std::string& uuid,
                                const std::string& key_hex) {
  const auto it = pending_.find(uuid);
  if (it == pending_.end() || it->second.pair != pair) {
    errors_.push_back("dec_keys returned UUID " + uuid +
                      " that this pair has no uncollected key for");
    return;
  }
  if (it->second.key != key_hex) {
    errors_.push_back("dec_keys key differs from enc_keys key for UUID " +
                      uuid);
  } else {
    matched_bits_ += key_hex.size() * 4;
  }
  pending_.erase(it);
}

void DeliveryLedger::check(Checks& checks) {
  for (const auto& error : errors_) checks.fail(error);
  for (const auto& [uuid, entry] : pending_) {
    checks.fail("enc_keys key " + uuid + " was never collected by dec_keys");
  }
  std::sort(minted_.begin(), minted_.end());
  checks.expect(
      std::adjacent_find(minted_.begin(), minted_.end()) == minted_.end(),
      "a key UUID was minted twice");
}

void check_conservation(Checks& checks, std::string_view link,
                        std::uint64_t deposited,
                        const std::map<std::string, std::uint64_t>& drawn,
                        std::uint64_t left) {
  std::uint64_t total = left;
  for (const auto& [consumer, bits] : drawn) total += bits;
  checks.expect(total == deposited,
                "conservation on link " + std::string(link) + ": drawn+left " +
                    std::to_string(total) + " != deposited " +
                    std::to_string(deposited));
}

void check_amplification(Checks& checks, std::uint64_t block,
                         std::uint64_t final_bits, std::uint64_t leak_ec_bits,
                         std::uint64_t reconciled_bits) {
  constexpr std::uint64_t kVerifyTagBits = 128;
  checks.expect(final_bits + leak_ec_bits + kVerifyTagBits <= reconciled_bits,
                "block " + std::to_string(block) + ": final " +
                    std::to_string(final_bits) + " + leak " +
                    std::to_string(leak_ec_bits) + " + tag > reconciled " +
                    std::to_string(reconciled_bits));
}

void check_qber(Checks& checks, std::uint64_t block, double estimate,
                const GroundTruth& truth, double pe_fraction) {
  const double n_signal = static_cast<double>(truth.signal_sifted);
  const double sample =
      std::floor(pe_fraction * static_cast<double>(truth.signal_sifted));
  const double disclosed = static_cast<double>(truth.other_sifted) + sample;
  if (disclosed <= 0) {
    checks.fail("block " + std::to_string(block) + ": empty QBER sample");
    return;
  }
  const double q = truth.signal_qber();
  const double expected =
      (static_cast<double>(truth.other_errors) + sample * q) / disclosed;
  const double finite_population =
      n_signal > 1 ? (n_signal - sample) / (n_signal - 1) : 0.0;
  const double sd =
      std::sqrt(sample * q * (1 - q) * finite_population) / disclosed;
  const double tolerance = 6 * sd + 1 / disclosed;
  char message[160];
  std::snprintf(message, sizeof message,
                "block %llu: QBER estimate %.5f outside %.5f +- %.5f",
                static_cast<unsigned long long>(block), estimate, expected,
                tolerance);
  checks.expect(std::fabs(estimate - expected) <= tolerance, message);
}

void check_balance(Checks& checks, std::uint64_t ones, std::uint64_t bits) {
  const double half = static_cast<double>(bits) / 2;
  const double sigma = std::sqrt(static_cast<double>(bits)) / 2;
  checks.expect(bits > 0 && std::fabs(static_cast<double>(ones) - half) <=
                                5 * sigma,
                "final-key balance: " + std::to_string(ones) + " ones in " +
                    std::to_string(bits) + " bits");
}

double check_layer_coverage(Checks& checks, const std::vector<Span>& spans,
                            std::string_view root) {
  const auto self = self_times(spans);
  double worst = 0.0;
  for (const Span& span : spans) {
    if (root == span.name) worst = std::max(worst, uncovered_share(span, self));
  }
  checks.expect(worst <= 0.05, "no layer span covers " +
                                   std::to_string(worst * 100) + "% of a " +
                                   std::string(root) + " span");
  return worst;
}

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) noexcept {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace perfbench
