// Pre-generated detection records: the benchmark's input.
//
// Records come from sim::Bb84Simulator, seeded from the run's seed, and are
// built before any clock that a metric reads starts. The library only ever
// sees them as engine/session inputs; their ground truth is counted here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "engine/block.hpp"
#include "pipeline/session.hpp"
#include "sim/link_config.hpp"

namespace perfbench {

namespace engine = qkdpp::engine;
namespace pipeline = qkdpp::pipeline;
namespace sim = qkdpp::sim;

struct LinkProfile {
  std::string name;
  double length_km = 25.0;
  double misalignment = 0.015;
};

struct CorpusBlock {
  std::uint64_t block_id = 0;
  std::uint64_t rng_seed = 0;    ///< distillation randomness for this block
  engine::BlockInput input;      ///< both ends' raw material
  pipeline::BobDetections bob;   ///< Bob's view (two-party session only)
  GroundTruth truth;
  double sim_ms = 0.0;           ///< Bb84Simulator::run wall time
};

struct LinkCorpus {
  LinkProfile profile;
  sim::LinkConfig link;
  std::size_t pulses_per_block = 0;
  std::vector<CorpusBlock> blocks;
};

/// Counts the ground truth of a record from its raw arrays.
GroundTruth ground_truth(const engine::BlockInput& input);

/// `blocks` records per link, generated on up to `threads` threads; the
/// same seed gives the same records whatever the thread count. Bob's
/// separate view is filled only when `with_bob_view` is set.
std::vector<LinkCorpus> build_corpus(const std::vector<LinkProfile>& links,
                                     std::size_t blocks, std::uint64_t seed,
                                     std::size_t threads, bool with_bob_view);

/// SplitMix64-style mixing of a seed with a stream tag.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) noexcept;

}  // namespace perfbench
