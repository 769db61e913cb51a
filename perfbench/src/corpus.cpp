#include "corpus.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/rng.hpp"
#include "sim/bb84.hpp"
#include "trace.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

GroundTruth ground_truth(const engine::BlockInput& input) {
  GroundTruth truth;
  const auto& log = input.log;
  const auto& detected = input.report.detected_idx;
  for (std::size_t i = 0; i < detected.size(); ++i) {
    const std::uint32_t pulse = detected[i];
    if (input.report.bob_bases.get(i) != log.bases.get(pulse)) continue;
    const bool error = input.bob_bits.get(i) != log.bits.get(pulse);
    if (log.pulse_class[pulse] ==
        static_cast<std::uint8_t>(sim::PulseClass::kSignal)) {
      ++truth.signal_sifted;
      truth.signal_errors += error;
    } else {
      ++truth.other_sifted;
      truth.other_errors += error;
    }
  }
  return truth;
}

std::vector<LinkCorpus> build_corpus(const std::vector<LinkProfile>& links,
                                     std::size_t blocks, std::uint64_t seed,
                                     std::size_t threads,
                                     bool with_bob_view) {
  std::vector<LinkCorpus> corpus(links.size());
  for (std::size_t l = 0; l < links.size(); ++l) {
    LinkCorpus& lc = corpus[l];
    lc.profile = links[l];
    lc.link.channel.length_km = links[l].length_km;
    lc.link.channel.misalignment = links[l].misalignment;
    // The accumulate-to-a-block-size policy the orchestrator and the
    // examples use: about 40000 sifted bits per block.
    lc.pulses_per_block = sim::pulses_for_sifted_target(
        lc.link, 40000.0, std::size_t{1} << 20, std::size_t{1} << 26);
    lc.blocks.resize(blocks);
  }

  std::atomic<std::size_t> next{0};
  const std::size_t jobs = links.size() * blocks;
  auto worker = [&] {
    while (true) {
      // relaxed: a work counter; each index is claimed exactly once.
      const std::size_t job = next.fetch_add(1, std::memory_order_relaxed);
      if (job >= jobs) return;
      const std::size_t l = job / blocks;
      const std::size_t k = job % blocks;
      LinkCorpus& lc = corpus[l];
      CorpusBlock& block = lc.blocks[k];
      const std::uint64_t stream = mix_seed(seed, l * 1000003 + k);
      block.block_id = k + 1;
      block.rng_seed = mix_seed(stream, 1);

      const sim::Bb84Simulator simulator(lc.link);
      qkdpp::Xoshiro256 rng(mix_seed(stream, 0));
      set_thread_block(job);
      const std::int64_t start = now_ns();
      sim::DetectionRecord record;
      {
        ScopedSpan span("sim.run");
        record = simulator.run(lc.pulses_per_block, rng);
      }
      block.sim_ms = static_cast<double>(now_ns() - start) / 1e6;

      engine::BlockInput& input = block.input;
      input.report.block_id = block.block_id;
      input.report.n_pulses = record.n_pulses;
      input.report.detected_idx = std::move(record.detected_idx);
      input.report.bob_bases = std::move(record.bob_bases);
      input.bob_bits = std::move(record.bob_bits);
      input.log.bits = std::move(record.alice_bits);
      input.log.bases = std::move(record.alice_bases);
      input.log.pulse_class = std::move(record.alice_class);

      if (with_bob_view) {
        block.bob.block_id = block.block_id;
        block.bob.n_pulses = input.report.n_pulses;
        block.bob.detected_idx = input.report.detected_idx;
        block.bob.bits = input.bob_bits;
        block.bob.bases = input.report.bob_bases;
      }
      block.truth = ground_truth(input);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::max<std::size_t>(1, threads); ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (auto& thread : pool) thread.join();
  return corpus;
}

}  // namespace perfbench
