// Tests of the benchmark's own arithmetic: self time over a span tree
// whose children run on other threads, the median and quantiles, the argmax accuracy
// written apart from ml::Model, and the per-round budget sum.

#include <gtest/gtest.h>

#include "checks.hpp"
#include "ml/dataset.hpp"
#include "ml/model.hpp"
#include "stats.hpp"
#include "telemetry/telemetry.hpp"
#include "trace.hpp"

namespace {

namespace telemetry = fairbfl::telemetry;

telemetry::Record span_record(telemetry::RecordKind kind, std::uint64_t id,
                              std::uint64_t parent, telemetry::Label label,
                              std::uint16_t thread, std::uint64_t time_ns) {
    telemetry::Record record;
    record.kind = kind;
    record.value = id;
    record.parent = parent;
    record.label = label;
    record.thread = thread;
    record.time_ns = time_ns;
    return record;
}

/// A round span on thread 0 over [0, 100) ns with three children on two
/// pool threads -- [10, 60) and [40, 90) overlap, [95, 120) runs past the
/// parent's end -- and a grandchild [20, 30) under the first child.
telemetry::Dump hand_built_tree() {
    using telemetry::RecordKind;
    telemetry::Dump dump;
    dump.labels = {{1, "round.local"}, {2, "local.client"}, {3, "inner"}};
    const auto begin = [](std::uint64_t id, std::uint64_t parent,
                          telemetry::Label label, std::uint16_t thread,
                          std::uint64_t t) {
        return span_record(RecordKind::kSpanBegin, id, parent, label, thread,
                           t);
    };
    const auto end = [](std::uint64_t id, std::uint16_t thread,
                        std::uint64_t t) {
        return span_record(RecordKind::kSpanEnd, id, 0, 0, thread, t);
    };
    dump.records = {begin(1, 0, 1, 0, 0),    begin(2, 1, 2, 1, 10),
                    begin(4, 2, 3, 1, 20),   end(4, 1, 30),
                    begin(3, 1, 2, 2, 40),   end(2, 1, 60),
                    end(3, 2, 90),           begin(5, 1, 2, 1, 95),
                    end(1, 0, 100),          end(5, 1, 120)};
    telemetry::Record counter;
    counter.kind = RecordKind::kCounterAdd;
    counter.label = 3;
    counter.value = 7;
    dump.records.push_back(counter);
    return dump;
}

TEST(Trace, SelfTimeSubtractsTheUnionOfCrossThreadChildren) {
    const auto spans = roundbench::spans_of(hand_built_tree());
    ASSERT_EQ(spans.size(), 5U);
    const auto self = roundbench::self_seconds(spans);
    // Parent: 100 ns minus the union of [10,60), [40,90), [95,100).
    EXPECT_NEAR(self[0], 15e-9, 1e-15);
    // First child: 50 ns minus its grandchild's 10 ns.
    EXPECT_NEAR(self[1], 40e-9, 1e-15);
    EXPECT_NEAR(self[2], 10e-9, 1e-15);  // the leaf grandchild
}

TEST(Trace, SummaryTotalsSelfTimesAndTopLevelCoverage) {
    const roundbench::TraceSummary summary =
        roundbench::summarize(hand_built_tree());
    EXPECT_EQ(summary.records, 11U);
    EXPECT_NEAR(summary.top_level_s, 100e-9, 1e-15);
    const auto clients = summary.of("local.client");
    EXPECT_EQ(clients.spans, 3U);
    EXPECT_NEAR(clients.total_s, (50 + 50 + 25) * 1e-9, 1e-15);
    EXPECT_NEAR(clients.self_s, (40 + 50 + 25) * 1e-9, 1e-15);
    EXPECT_EQ(summary.of("inner").counter_sum, 7U);
    EXPECT_NEAR(summary.nested("round.local", "local.client"), 125e-9,
                1e-15);
    EXPECT_NEAR(summary.nested("local.client", "inner"), 10e-9, 1e-15);
    EXPECT_EQ(summary.nested("inner", "round.local"), 0.0);
    EXPECT_EQ(summary.of("absent").spans, 0U);
}

TEST(Trace, UnionMergesOverlapsAndSkipsEmptyIntervals) {
    EXPECT_NEAR(roundbench::union_seconds({{0, 10}, {5, 20}, {30, 40}, {7, 7}}),
                30e-9, 1e-15);
    EXPECT_EQ(roundbench::union_seconds({}), 0.0);
}

TEST(Stats, MedianOfOddAndEvenCounts) {
    EXPECT_EQ(roundbench::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(roundbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_THROW((void)roundbench::median({}), std::invalid_argument);
}

TEST(Stats, QuantileInterpolatesBetweenOrderStatistics) {
    // Eleven values 0, 10, ..., 100 in shuffled order: the p-quantile sits
    // at position p * 10 of the sorted list.
    const std::vector<double> values = {50, 0, 100, 30, 70, 10,
                                        90, 20, 80, 40, 60};
    EXPECT_DOUBLE_EQ(roundbench::quantile(values, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(roundbench::quantile(values, 0.1), 10.0);
    EXPECT_DOUBLE_EQ(roundbench::quantile(values, 0.25), 25.0);
    EXPECT_DOUBLE_EQ(roundbench::quantile(values, 1.0), 100.0);
    EXPECT_DOUBLE_EQ(roundbench::quantile({1.0, 2.0}, 0.1), 1.1);
    EXPECT_DOUBLE_EQ(roundbench::quantile({7.0}, 0.1), 7.0);
    EXPECT_THROW((void)roundbench::quantile({}, 0.1), std::invalid_argument);
}

TEST(Checks, ArgmaxAccuracyOnAHandMadeTwoClassModel) {
    fairbfl::ml::Dataset data(2, 2);
    const float a[] = {1.0F, 0.0F}, b[] = {0.0F, 1.0F}, c[] = {2.0F, 1.0F},
                d[] = {1.0F, 2.0F};
    data.add(a, 0);
    data.add(b, 1);
    data.add(c, 0);
    data.add(d, 0);  // the model says class 1: the one miss
    const fairbfl::ml::DatasetView view(data, {0, 1, 2, 3});
    // W = identity, b = (0, 0): the class is the larger feature.
    const std::vector<float> params = {1.0F, 0.0F, 0.0F, 1.0F, 0.0F, 0.0F};
    EXPECT_DOUBLE_EQ(roundbench::argmax_accuracy(params, view, 2), 0.75);
    const auto model = fairbfl::ml::make_logistic_regression(2, 2);
    EXPECT_DOUBLE_EQ(model->accuracy(params, view), 0.75);
    // A bias of +3 on class 1 flips every sample to class 1.
    const std::vector<float> biased = {1.0F, 0.0F, 0.0F, 1.0F, 0.0F, 3.0F};
    EXPECT_DOUBLE_EQ(roundbench::argmax_accuracy(biased, view, 2), 0.25);
}

TEST(Checks, PerRoundBudgetSumOnAHandBuiltLedger) {
    fairbfl::incentive::RewardLedger ledger;
    ledger.record_entry({0, 1, 0.25});
    ledger.record_entry({0, 2, 0.75});
    ledger.record_entry({1, 1, 0.5});
    const auto sums = roundbench::reward_sums(ledger);
    EXPECT_DOUBLE_EQ(sums.at(0), 1.0);
    EXPECT_DOUBLE_EQ(sums.at(1), 0.5);
    EXPECT_TRUE(roundbench::budget_failure(ledger, {0}, 1.0).empty());
    const std::string failure = roundbench::budget_failure(ledger, {0, 1, 2},
                                                           1.0);
    EXPECT_NE(failure.find("round 1"), std::string::npos);
    EXPECT_NE(failure.find("round 2"), std::string::npos);
    EXPECT_EQ(failure.find("round 0"), std::string::npos);
}

}  // namespace
