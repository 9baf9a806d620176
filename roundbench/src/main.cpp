// roundbench: times FAIR-BFL communication rounds on one workload and
// checks the program's outputs.
//
//   roundbench --workload flat-exact --seed 1 --seconds 20 --trace 0
//
// A run has two phases.  Phase 1 builds kEpisodes worlds, each from its
// own seed derived from --seed, and runs each until FAIR-BFL meets the
// §5.2 convergence rule: it gives setup_s, rounds_to_converge and
// time_to_converge.  Phase 2 runs the last world for 3 x --seconds more
// rounds: it gives the round figures and, traced, the per-layer metrics.
//
// --trace 0 measures the end-to-end metrics and needs telemetry off
// (FAIRBFL_TELEMETRY=off).  --trace 1 alternates untraced and traced
// rounds; each traced round runs inside telemetry::capture_begin/_end and
// yields the per-layer metrics, and the untraced ones give the tracing
// overhead.  The last stdout line is one JSON object: correct, attempted,
// failed, metrics, checks and fingerprint.  Exit status: 0 when every
// check held, 1 when one failed, 2 on a usage error.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"
#include "support/stats.hpp"
#include "telemetry/telemetry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef ROUNDBENCH_BUILD_TYPE
#define ROUNDBENCH_BUILD_TYPE "unknown"
#endif
#ifndef ROUNDBENCH_CXX_FLAGS
#define ROUNDBENCH_CXX_FLAGS "unknown"
#endif
#ifndef ROUNDBENCH_COMPILER
#define ROUNDBENCH_COMPILER "unknown"
#endif

namespace telemetry = fairbfl::telemetry;
using roundbench::median;

namespace {

using Clock = std::chrono::steady_clock;

/// Worlds built per run; setup_s is the median of their setups, and
/// rounds_to_converge and wall.time_to_converge_s are means over them.
constexpr std::uint64_t kEpisodes = 6;
/// Rounds every episode makes at least (the thread-count check replays 3).
constexpr std::size_t kMinRounds = 6;
/// Steady rounds per --seconds: every workload's round takes 0.15-0.2 s on
/// the reference host, so phase 2 lasts about half of --seconds there and
/// phase 1 about the other half.  The count, not the clock, ends a run, so
/// every run of a workload does the same work.
constexpr double kSteadyRoundsPerSecond = 3.0;
/// An episode that has not converged after this many rounds fails the run.
constexpr std::size_t kMaxRounds = 300;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
};

unsigned cpu_count() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
}

bool parse(int argc, char** argv, Options& options) {
    if (argc % 2 != 1) return false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* value = argv[i + 1];
        if (key == "--workload") {
            options.workload = value;
            continue;
        }
        char* end = nullptr;
        const double number = std::strtod(value, &end);
        if (end == value || *end != '\0' || number < 0) return false;
        if (key == "--seed") options.seed = static_cast<std::uint64_t>(number);
        else if (key == "--seconds") options.seconds = number;
        else if (key == "--trace") options.trace = number != 0;
        else return false;
    }
    return options.seconds > 0;
}

std::string cpu_model() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const auto colon = line.find(':');
        if (colon != std::string::npos) return line.substr(colon + 2);
    }
    return "unknown";
}

std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

/// The per-layer figures of a traced run: one value per traced round for
/// each per-round metric (reported as the median), plus the totals the
/// ratios are taken over.
class Layers {
public:
    void add_round(const roundbench::RoundOutcome& outcome,
                   const telemetry::Dump& dump,
                   const roundbench::ReplayTiming& replay) {
        const roundbench::TraceSummary trace = roundbench::summarize(dump);
        const auto total = [&](const char* label) {
            return trace.of(label).total_s;
        };
        const auto spans = [&](const char* label) {
            return static_cast<double>(trace.of(label).spans);
        };
        add("core.unattributed_s", outcome.wall_s - trace.top_level_s);
        add("core.engine_event_s", total("engine.event"));
        add("core.engine_events", spans("engine.event"));
        add("core.late_updates",
            static_cast<double>(trace.of("round.late_updates").counter_sum));
        for (const char* system :
             {"fedavg", "fedprox", "vanilla_bfl", "fairbfl", "blockchain"}) {
            const auto it = outcome.system_s.find(system);
            add(std::string("core.") + system + ".round_s",
                it == outcome.system_s.end() ? 0.0 : it->second);
        }
        add("fl.local_s", total("round.local"));
        // Client training under FAIR-BFL's round.local only: in the suite
        // the baselines train clients too, outside any round.local span.
        const double client_train =
            trace.nested("round.local", "local.client");
        add("fl.client_train_s", client_train);
        add("fl.aggregate_s", total("round.aggregate"));
        add("ml.eval_s", replay.eval_s);
        add("cluster.index_build_s", total("cluster.index_build"));
        add("cluster.index_builds", spans("cluster.index_build"));
        add("incentive.identify_self_s", trace.of("cluster.identify").self_s);
        add("incentive.shard_pass_s", total("cluster.shard_pass"));
        add("incentive.root_pass_s", total("cluster.root_pass"));
        add("chain.upload_s", replay.upload_s);
        add("chain.mine_s", total("round.mine"));
        add("chain.block_bytes", static_cast<double>(outcome.block_bytes));
        add("crypto.sign_s", replay.sign_s);
        add("crypto.verify_s", replay.verify_s);
        add("crypto.hybrid_s", replay.hybrid_s);
        add("telemetry.records", static_cast<double>(trace.records));
        local_s_ += total("round.local");
        client_train_s_ += client_train;
        acquisitions_ += spans("cluster.index_build");
        reuses_ += static_cast<double>(
            trace.of("cluster.index_reuse").counter_sum);
        index_peak_ = std::max(
            index_peak_,
            static_cast<double>(trace.of("cluster.index_bytes").counter_max));
    }

    /// Every per-layer metric, in a fixed order.
    [[nodiscard]] std::vector<Metric> metrics() const {
        std::vector<Metric> out;
        for (const auto& [name, values] : series_) {
            const char* unit = "s";
            if (name.ends_with("_bytes")) unit = "bytes";
            else if (!name.ends_with("_s")) unit = "count";
            out.push_back({name, unit, median(values)});
        }
        out.push_back({"fl.local_parallelism", "ratio",
                       local_s_ > 0.0 ? client_train_s_ / local_s_ : 0.0});
        out.push_back({"cluster.index_reuse_ratio", "ratio",
                       acquisitions_ > 0.0 ? reuses_ / acquisitions_ : 0.0});
        out.push_back({"cluster.index_peak_bytes", "bytes", index_peak_});
        return out;
    }

private:
    void add(const std::string& name, double value) {
        series_[name].push_back(value);
    }

    std::map<std::string, std::vector<double>> series_;
    double local_s_ = 0.0;
    double client_train_s_ = 0.0;
    double acquisitions_ = 0.0;  ///< index builds and incremental updates
    double reuses_ = 0.0;
    double index_peak_ = 0.0;
};

/// Median, or 0 for a run that failed before producing any value.
double median_or_zero(const std::vector<double>& values) {
    return values.empty() ? 0.0 : median(values);
}

double sum(const std::vector<double>& values) {
    double total = 0.0;
    for (const double v : values) total += v;
    return total;
}

double mean_or_zero(const std::vector<double>& values) {
    return values.empty() ? 0.0
                          : sum(values) / static_cast<double>(values.size());
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    if (!parse(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: roundbench --workload NAME --seed N --seconds S "
                     "--trace 0|1\n");
        return 2;
    }
    const unsigned nproc = cpu_count();
    auto workload = roundbench::make_workload(options.workload, nproc);
    if (workload == nullptr) {
        std::string known;
        for (const auto& name : roundbench::workload_names())
            known += " " + name;
        std::fprintf(stderr, "roundbench: unknown workload '%s'; known:%s\n",
                     options.workload.c_str(), known.c_str());
        return 2;
    }
    if (!options.trace && telemetry::enabled()) {
        std::fprintf(stderr,
                     "roundbench: --trace 0 needs FAIRBFL_TELEMETRY=off\n");
        return 2;
    }
    fairbfl::support::simd::set_mode_name(workload->kernels());
    telemetry::set_enabled(false);

    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> checks;
    std::vector<double> setup_s, env_s, systems_s, keygen_s;
    std::vector<double> converge_s, converge_rounds;
    std::vector<double> walls, cpus, traced_walls, untraced_walls;
    std::size_t updates = 0;
    Layers layers;

    // One round with its failure accounting; false when the round threw.
    const auto play = [&](bool traced, roundbench::RoundOutcome& outcome,
                          telemetry::Dump& dump) {
        telemetry::set_enabled(traced);
        if (traced) telemetry::capture_begin();
        ++attempted;
        bool threw = false;
        try {
            outcome = workload->run_round();
        } catch (const std::exception& error) {
            threw = true;
            outcome.failure = std::string("round threw: ") + error.what();
        }
        if (traced) dump = telemetry::capture_end();
        telemetry::set_enabled(false);
        if (!outcome.failure.empty()) {
            ++failed;
            if (checks.size() < 8)
                checks.push_back("round " + std::to_string(attempted - 1) +
                                 ": " + outcome.failure);
        }
        return !threw;
    };

    const Clock::time_point started = Clock::now();
    const auto progress = [&](const char* what) {
        std::fprintf(stderr, "roundbench: %s at %.1f s, %zu rounds\n", what,
                     std::chrono::duration<double>(Clock::now() - started)
                         .count(),
                     attempted);
    };

    // --- Phase 1: kEpisodes worlds, each run until it converges.
    bool stop = false;
    for (std::uint64_t episode = 0; episode < kEpisodes && !stop; ++episode) {
        const roundbench::SetupTiming setup =
            workload->setup(options.seed * 1000 + episode);
        env_s.push_back(setup.env_s);
        systems_s.push_back(setup.systems_s);
        setup_s.push_back(setup.env_s + setup.systems_s);
        if (options.trace) keygen_s.push_back(workload->rebuild_keys());

        fairbfl::support::ConvergenceDetector convergence;  // the §5.2 rule
        double episode_s = 0.0;
        for (std::size_t round = 0;
             !(convergence.converged() && round >= kMinRounds); ++round) {
            roundbench::RoundOutcome outcome;
            telemetry::Dump dump;
            if (round >= kMaxRounds) {
                checks.push_back("FAIR-BFL did not converge in " +
                                 std::to_string(kMaxRounds) + " rounds");
                stop = true;
                break;
            }
            if (!play(false, outcome, dump)) {
                stop = true;
                break;
            }
            episode_s += outcome.wall_s;
            if (!convergence.converged() &&
                convergence.add(outcome.fair_accuracy)) {
                converge_s.push_back(episode_s);
                converge_rounds.push_back(static_cast<double>(round + 1));
            }
        }
    }

    progress("phase 1 done");

    // --- Phase 2: the last world keeps going for a fixed round count; in
    // a traced run every second round is traced.
    const auto steady_rounds = static_cast<std::size_t>(
        std::ceil(options.seconds * kSteadyRoundsPerSecond));
    for (std::size_t round = 0; round < steady_rounds && !stop; ++round) {
        const bool traced = options.trace && round % 2 == 1;
        roundbench::RoundOutcome outcome;
        telemetry::Dump dump;
        if (!play(traced, outcome, dump)) {
            stop = true;
            break;
        }
        walls.push_back(outcome.wall_s);
        cpus.push_back(outcome.cpu_s);
        updates += outcome.updates;
        if (!options.trace) continue;
        (traced ? traced_walls : untraced_walls).push_back(outcome.wall_s);
        if (traced) layers.add_round(outcome, dump, workload->replay());
    }

    progress("phase 2 done");
    // Peak memory of the workload itself, before the checks copy the chain.
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    // --- End-of-run checks on the last world, untimed.
    if (failed == 0 && !stop) {
        try {
            for (auto& failure : workload->final_checks())
                checks.push_back(std::move(failure));
        } catch (const std::exception& error) {
            checks.push_back(std::string("final checks threw: ") +
                             error.what());
        }
    }

    progress("checks done");
    std::vector<Metric> metrics;
    if (!options.trace) {
        metrics = {
            {"setup_s", "s", median_or_zero(setup_s)},
            {"round_cpu_s", "s", median_or_zero(cpus)},
            {"rounds_to_converge", "rounds", mean_or_zero(converge_rounds)},
            {"peak_rss_mib", "MiB",
             static_cast<double>(usage.ru_maxrss) / 1024.0},
        };
    } else {
        // Wall-clock figures swing with the host's CPU steal beyond any
        // useful bound (see README.md), so they are reported here,
        // unbounded, rather than gated as end-to-end metrics.  Phase 1 is
        // untraced in both modes; the round figures use the untraced
        // steady rounds.
        metrics = {
            {"wall.round_s", "s", median_or_zero(untraced_walls)},
            {"wall.round_p10_s", "s",
             untraced_walls.empty()
                 ? 0.0
                 : roundbench::quantile(untraced_walls, 0.1)},
            {"wall.updates_per_s", "1/s",
             walls.empty() ? 0.0
                           : static_cast<double>(updates) / sum(walls)},
            {"wall.time_to_converge_s", "s", mean_or_zero(converge_s)},
            {"core.env_build_s", "s", median_or_zero(env_s)},
            {"core.system_build_s", "s", median_or_zero(systems_s)},
            {"crypto.keygen_s", "s", median_or_zero(keygen_s)},
            {"telemetry.overhead_s", "s",
             median_or_zero(traced_walls) - median_or_zero(untraced_walls)},
        };
        for (auto& metric : layers.metrics()) metrics.push_back(metric);
    }

    // --- Result line.
    std::string json = "{\"correct\": ";
    json += checks.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        json += (i ? ", " : "") + quoted(metrics[i].name) +
                ": {\"value\": " + value +
                ", \"unit\": " + quoted(metrics[i].unit) + "}";
    }
    json += "}, \"checks\": [";
    for (std::size_t i = 0; i < checks.size(); ++i)
        json += (i ? ", " : "") + quoted(checks[i]);
    json += "], \"fingerprint\": {";
    json += "\"nproc\": " + std::to_string(nproc);
    json += ", \"pool_threads\": " + std::to_string(nproc);
    json += ", \"global_pool_threads\": " +
            std::to_string(fairbfl::support::ThreadPool::global().size());
    json += ", \"cpu\": " + quoted(cpu_model());
    json += ", \"compiler\": " + quoted(ROUNDBENCH_COMPILER);
    json += ", \"build_type\": " + quoted(ROUNDBENCH_BUILD_TYPE);
    json += ", \"cxx_flags\": " + quoted(ROUNDBENCH_CXX_FLAGS);
    json += ", \"kernels_active\": " +
            quoted(fairbfl::support::simd::active_name());
    json += ", \"episodes\": " + std::to_string(setup_s.size());
    json += "}}";
    std::printf("%s\n", json.c_str());
    return checks.empty() ? 0 : 1;
}
