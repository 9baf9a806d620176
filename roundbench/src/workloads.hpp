#pragma once
// The four benchmark workloads behind one round protocol.
//
// A workload builds its world (setup), runs one communication round at a
// time (the round's wall time covers only the program's own round calls;
// the per-round checks run outside it), replays on request the public
// calls that have no span of their own, and checks the run's outputs at
// the end.  Every input is derived from the run seed.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace roundbench {

/// Wall seconds of one setup.
struct SetupTiming {
    double env_s = 0.0;      ///< core::build_environment
    double systems_s = 0.0;  ///< building the systems (key generation included)
};

/// One communication round as the benchmark saw it.
struct RoundOutcome {
    double wall_s = 0.0;        ///< the program's round calls only
    double cpu_s = 0.0;         ///< process CPU time (all threads) in them
    std::size_t updates = 0;    ///< client updates that reached aggregation
    double fair_accuracy = 0.0; ///< FAIR-BFL's reported test accuracy
    /// Wall seconds per registry system name ("fairbfl", "fedavg", ...).
    std::map<std::string, double> system_s;
    std::uint64_t block_bytes = 0;  ///< FAIR-BFL tip block after the round
    std::string failure;            ///< empty when every round check held
};

/// Wall seconds of the replayed public calls after one round.
struct ReplayTiming {
    double upload_s = 0.0;  ///< make_gradient_tx + sign + verify (+ hybrid)
    double sign_s = 0.0;
    double verify_s = 0.0;
    double hybrid_s = 0.0;  ///< hybrid_encrypt + hybrid_decrypt + decode
    double eval_s = 0.0;    ///< ml::Model::accuracy on the tip's weights
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Kernel table the workload runs on ("scalar" | "auto").
    [[nodiscard]] virtual const char* kernels() const = 0;
    /// (Re)builds the environment and the systems, every input derived
    /// from `seed`; the previous world is dropped first.
    virtual SetupTiming setup(std::uint64_t seed) = 0;
    /// Seconds to rebuild the world's key store from its seed (0 when it
    /// signs nothing); the rebuilt store serves the replays and checks,
    /// which rebuild it themselves when it is missing.
    virtual double rebuild_keys() = 0;
    virtual RoundOutcome run_round() = 0;
    virtual ReplayTiming replay() = 0;
    /// Failure texts of the end-of-run checks (empty = all held).
    [[nodiscard]] virtual std::vector<std::string> final_checks() = 0;
};

/// Names the benchmark accepts, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name`, running on a pool of `threads`.  Returns null
/// for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      unsigned threads);

}  // namespace roundbench
