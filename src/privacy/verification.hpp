// Error verification: confirm both reconciled keys are identical before
// privacy amplification, with an eps-universal polynomial hash over
// GF(2^128). Collision probability <= ceil(len_bytes/16 + 1) / 2^128 per
// challenge, charged against eps_corr in the security budget. The tag is
// derived from a fresh public seed each time, so reconciliation cannot
// adaptively bias it.
#pragma once

#include <cstdint>

#include "common/bitvec.hpp"
#include "common/ct_equal.hpp"
#include "common/gf2.hpp"

namespace qkdpp::privacy {

/// Tag of `key` under the hash point derived from `seed`.
U128 verification_tag(const BitVec& key, std::uint64_t seed);

/// Convenience: do two keys (held by one process, e.g. in tests) verify?
inline bool keys_verify(const BitVec& a, const BitVec& b,
                        std::uint64_t seed) {
  return ct_equal(verification_tag(a, seed), verification_tag(b, seed));
}

}  // namespace qkdpp::privacy
