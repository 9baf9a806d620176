#pragma once
// Per-layer figures from a captured telemetry log.
//
// The program already emits spans (begin/end records carrying a span id
// and the id of the enclosing span, possibly opened on another thread)
// and counters.  This file rebuilds the span tree from those parent links
// and reduces it to per-label totals:
//
//   * total time  -- sum of the label's span durations;
//   * self time   -- each span's duration minus the part of its interval
//                    covered by the union of its children's intervals,
//                    children on pool workers included (parallel children
//                    overlap, so the union, not the sum, is subtracted);
//   * top-level coverage -- the union of the intervals of spans that have
//                    no enclosing span in the log; a round's wall time
//                    minus this is the time no span accounts for.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace roundbench {

/// One matched begin/end pair.
struct SpanInterval {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = opened with no enclosing span
    std::string label;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;

    [[nodiscard]] double seconds() const noexcept {
        return static_cast<double>(end_ns - begin_ns) * 1e-9;
    }
};

/// Matched spans of a log, in begin order.  Unmatched begins or ends are
/// skipped.
[[nodiscard]] std::vector<SpanInterval> spans_of(
    const fairbfl::telemetry::Dump& dump);

/// Length in seconds of the union of [begin, end) nanosecond intervals.
[[nodiscard]] double union_seconds(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals);

/// Self seconds of every span (same order as `spans`): its duration minus
/// the union of its children's intervals clipped to its own.
[[nodiscard]] std::vector<double> self_seconds(
    const std::vector<SpanInterval>& spans);

struct LabelTotals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t spans = 0;
    std::uint64_t counter_sum = 0;  ///< kCounterAdd values summed
    std::uint64_t counter_max = 0;  ///< kCounterMax values, max
};

struct TraceSummary {
    std::map<std::string, LabelTotals, std::less<>> labels;
    /// Summed seconds of spans by (parent label, label).
    std::map<std::pair<std::string, std::string>, double> nested_s;
    /// Union of the intervals of spans whose parent is absent from the log.
    double top_level_s = 0.0;
    std::uint64_t records = 0;

    /// Totals of `label`, zeros when the log has none.
    [[nodiscard]] LabelTotals of(const std::string& label) const;
    /// Seconds of the `label` spans opened directly under a `parent` span.
    [[nodiscard]] double nested(const std::string& parent,
                                const std::string& label) const;
};

[[nodiscard]] TraceSummary summarize(const fairbfl::telemetry::Dump& dump);

}  // namespace roundbench
