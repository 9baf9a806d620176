#include "trace.hpp"

#include <algorithm>
#include <unordered_map>

namespace roundbench {

using fairbfl::telemetry::Dump;
using fairbfl::telemetry::RecordKind;

std::vector<SpanInterval> spans_of(const Dump& dump) {
    std::vector<SpanInterval> spans;
    std::unordered_map<std::uint64_t, std::size_t> open;  // id -> slot
    for (const auto& record : dump.records) {
        if (record.kind == RecordKind::kSpanBegin) {
            open[record.value] = spans.size();
            spans.push_back({record.value, record.parent,
                             std::string(dump.name_of(record.label)),
                             record.time_ns, 0});
        } else if (record.kind == RecordKind::kSpanEnd) {
            const auto it = open.find(record.value);
            if (it == open.end()) continue;
            spans[it->second].end_ns = record.time_ns;
            open.erase(it);
        }
    }
    // Drop begins that never closed (their end is still zero).
    std::erase_if(spans, [](const SpanInterval& s) {
        return s.end_ns == 0 || s.end_ns < s.begin_ns;
    });
    return spans;
}

double union_seconds(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals) {
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = 0;  // end of the merged run so far
    bool started = false;
    for (const auto& [begin, end] : intervals) {
        if (end <= begin) continue;
        if (!started || begin >= reach) {
            covered += end - begin;
            reach = end;
            started = true;
        } else if (end > reach) {
            covered += end - reach;
            reach = end;
        }
    }
    return static_cast<double>(covered) * 1e-9;
}

std::vector<double> self_seconds(const std::vector<SpanInterval>& spans) {
    std::unordered_map<std::uint64_t, std::size_t> slot_of;
    for (std::size_t i = 0; i < spans.size(); ++i) slot_of[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children(spans.size());
    for (const auto& span : spans) {
        const auto it = slot_of.find(span.parent);
        if (span.parent == 0 || it == slot_of.end()) continue;
        const SpanInterval& parent = spans[it->second];
        const std::uint64_t begin = std::max(span.begin_ns, parent.begin_ns);
        const std::uint64_t end = std::min(span.end_ns, parent.end_ns);
        if (end > begin) children[it->second].emplace_back(begin, end);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].seconds() - union_seconds(std::move(children[i]));
    return self;
}

LabelTotals TraceSummary::of(const std::string& label) const {
    const auto it = labels.find(label);
    return it == labels.end() ? LabelTotals{} : it->second;
}

double TraceSummary::nested(const std::string& parent,
                            const std::string& label) const {
    const auto it = nested_s.find({parent, label});
    return it == nested_s.end() ? 0.0 : it->second;
}

TraceSummary summarize(const Dump& dump) {
    TraceSummary summary;
    summary.records = dump.records.size();
    const std::vector<SpanInterval> spans = spans_of(dump);
    const std::vector<double> self = self_seconds(spans);
    std::unordered_map<std::uint64_t, std::size_t> slot_of;
    for (std::size_t i = 0; i < spans.size(); ++i) slot_of[spans[i].id] = i;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> top_level;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LabelTotals& totals = summary.labels[spans[i].label];
        totals.total_s += spans[i].seconds();
        totals.self_s += self[i];
        ++totals.spans;
        const auto parent = slot_of.find(spans[i].parent);
        if (spans[i].parent == 0 || parent == slot_of.end())
            top_level.emplace_back(spans[i].begin_ns, spans[i].end_ns);
        else
            summary.nested_s[{spans[parent->second].label, spans[i].label}] +=
                spans[i].seconds();
    }
    summary.top_level_s = union_seconds(std::move(top_level));
    for (const auto& record : dump.records) {
        if (record.kind == RecordKind::kCounterAdd) {
            summary.labels[std::string(dump.name_of(record.label))]
                .counter_sum += record.value;
        } else if (record.kind == RecordKind::kCounterMax) {
            auto& totals =
                summary.labels[std::string(dump.name_of(record.label))];
            totals.counter_max = std::max(totals.counter_max, record.value);
        }
    }
    return summary;
}

}  // namespace roundbench
