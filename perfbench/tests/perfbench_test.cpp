// Tests of the benchmark's own arithmetic and correctness checks.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

Span make_span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
               std::int64_t end, std::uint32_t thread = 1) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  span.thread = thread;
  span.name = "s";
  return span;
}

TEST(Stats, TailNeedsTenSamplesBeyond) {
  EXPECT_TRUE(has_tail(1000, 0.99));
  EXPECT_FALSE(has_tail(999, 0.99));
  EXPECT_TRUE(has_tail(100, 0.90));
  EXPECT_FALSE(has_tail(50, 0.90));
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // Children overlap each other and one runs past the parent's end: only
  // the covered part of the parent's own interval is subtracted.
  const std::vector<Span> spans = {
      make_span(1, 0, 0, 100), make_span(2, 1, 10, 30),
      make_span(3, 1, 20, 50), make_span(4, 1, 90, 120)};
  const auto self = self_times(spans);
  EXPECT_EQ(self.at(1), 100 - 40 - 10);
  EXPECT_EQ(self.at(2), 20);
  EXPECT_EQ(self.at(3), 30);
  EXPECT_EQ(self.at(4), 30);
}

TEST(SelfTime, OtherThreadChildrenRunInParallel) {
  const std::vector<Span> spans = {make_span(1, 0, 0, 100, 1),
                                   make_span(2, 1, 0, 90, 7),
                                   make_span(3, 1, 10, 40, 1)};
  const auto self = self_times(spans);
  EXPECT_EQ(self.at(1), 70);
  EXPECT_EQ(self.at(2), 90);
  EXPECT_DOUBLE_EQ(uncovered_share(spans[0], self), 0.70);
}

std::vector<Span> block_with_layers(std::int64_t gap) {
  // A block whose two layer spans leave `gap` ns of its 1000 uncovered; the
  // first layer has a nested child, the second runs on another thread too.
  std::vector<Span> spans = {
      make_span(1, 0, 0, 1000), make_span(2, 1, 0, 600),
      make_span(3, 2, 100, 500), make_span(4, 1, 600 + gap, 1000),
      make_span(5, 1, 0, 1000, 7)};
  spans[0].name = "block";
  return spans;
}

TEST(LayerCoverage, CoveredBlockPasses) {
  Checks checks;
  EXPECT_DOUBLE_EQ(check_layer_coverage(checks, block_with_layers(0), "block"),
                   0.0);
  EXPECT_DOUBLE_EQ(
      check_layer_coverage(checks, block_with_layers(50), "block"), 0.05);
  EXPECT_TRUE(checks.passed());
}

TEST(LayerCoverage, UnspannedGapFails) {
  Checks checks;
  EXPECT_DOUBLE_EQ(
      check_layer_coverage(checks, block_with_layers(51), "block"), 0.051);
  EXPECT_FALSE(checks.passed());
}

TEST(DeliveryLedger, MatchingKeysPass) {
  DeliveryLedger ledger;
  ledger.record_enc("m/s", "u1", "00ff");
  ledger.record_enc("m/s", "u2", "abcd");
  ledger.record_dec("m/s", "u2", "abcd");
  ledger.record_dec("m/s", "u1", "00ff");
  Checks checks;
  ledger.check(checks);
  EXPECT_TRUE(checks.passed());
  EXPECT_EQ(ledger.matched_bits(), 32u);
}

TEST(DeliveryLedger, CorruptedDeliveredKeyFails) {
  DeliveryLedger ledger;
  ledger.record_enc("m/s", "u1", "00ff");
  ledger.record_dec("m/s", "u1", "01ff");
  Checks checks;
  ledger.check(checks);
  EXPECT_FALSE(checks.passed());
  EXPECT_EQ(ledger.matched_bits(), 0u);
}

TEST(DeliveryLedger, KeyDroppedFromTheDeliveryCopyFails) {
  DeliveryLedger ledger;
  ledger.record_enc("m/s", "u1", "00ff");
  ledger.record_enc("m/s", "u2", "abcd");
  ledger.record_dec("m/s", "u1", "00ff");
  Checks checks;
  ledger.check(checks);
  EXPECT_FALSE(checks.passed());
}

TEST(DeliveryLedger, RepeatedUuidAndForeignPairFail) {
  DeliveryLedger ledger;
  ledger.record_enc("m/s", "u1", "00");
  ledger.record_enc("m/s", "u1", "11");
  Checks repeated;
  ledger.check(repeated);
  EXPECT_FALSE(repeated.passed());

  DeliveryLedger foreign;
  foreign.record_enc("m/s", "u1", "00");
  foreign.record_dec("x/y", "u1", "00");
  Checks checks;
  foreign.check(checks);
  EXPECT_FALSE(checks.passed());
}

TEST(Checks, ConservationAmplificationAndBalance) {
  Checks ok;
  check_conservation(ok, "l", 1000, {{"a", 600}, {"b", 300}}, 100);
  check_amplification(ok, 1, 500, 300, 1000);
  check_balance(ok, 5000, 10000);
  EXPECT_TRUE(ok.passed());

  Checks lost;
  check_conservation(lost, "l", 1000, {{"a", 600}}, 100);
  EXPECT_FALSE(lost.passed());

  Checks over;
  check_amplification(over, 1, 600, 300, 1000);
  EXPECT_FALSE(over.passed());

  Checks biased;
  check_balance(biased, 5300, 10000);
  EXPECT_FALSE(biased.passed());
}

TEST(Checks, QberEstimateAgainstGroundTruth) {
  GroundTruth truth;
  truth.signal_sifted = 36000;
  truth.signal_errors = 540;  // 1.5%
  truth.other_sifted = 2000;
  truth.other_errors = 60;
  // Expectation: (60 + 3600 * 0.015) / 5600 = 0.0203571...
  Checks near;
  check_qber(near, 1, 0.0204, truth, 0.10);
  EXPECT_TRUE(near.passed());
  Checks far;
  check_qber(far, 1, 0.05, truth, 0.10);
  EXPECT_FALSE(far.passed());
}

}  // namespace
}  // namespace perfbench
