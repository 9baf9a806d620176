#include "workloads.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <optional>
#include <utility>

#include "chain/bytes.hpp"
#include "chain/transaction.hpp"
#include "checks.hpp"
#include "core/experiment.hpp"
#include "core/fairbfl.hpp"
#include "core/system.hpp"
#include "crypto/hybrid.hpp"
#include "fl/sampling.hpp"
#include "support/fault_plan.hpp"
#include "support/parallel.hpp"

namespace roundbench {

namespace chain = fairbfl::chain;
namespace core = fairbfl::core;
namespace crypto = fairbfl::crypto;
namespace fl = fairbfl::fl;
namespace support = fairbfl::support;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Hands the pages the previous world freed back to the system, so one
/// world's peak memory does not depend on how the allocator kept the last
/// one's.
void release_free_memory() {
#ifdef __GLIBC__
    malloc_trim(0);
#endif
}

/// CPU seconds of the whole process (every thread) so far.
double process_cpu_s() {
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

/// Rounds replayed on a 1-thread fan-out pool (FairBflConfig::pool: local
/// training and the round engine) to compare final weights.  Contribution
/// identification takes no pool and runs on ThreadPool::global() in both
/// worlds, which the library sizes by hardware_concurrency.
constexpr std::size_t kCheckRounds = 3;
/// Rounds a sampled fault plan covers (a run never gets this far).
constexpr std::uint64_t kFaultHorizon = 400;

void note(std::string& failures, const std::string& failure) {
    if (failure.empty()) return;
    if (!failures.empty()) failures += "; ";
    failures += failure;
}

bool same_bytes(std::span<const float> a, std::span<const float> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// Accuracy computed here matches the program's within one test sample
/// (the auto kernel table reassociates dot products, which can flip a
/// near-tie).
std::string accuracy_failure(const char* what, double mine, double program,
                             std::size_t test_size) {
    if (std::abs(mine - program) <= 1.0 / static_cast<double>(test_size) +
                                         1e-12)
        return "";
    char text[160];
    std::snprintf(text, sizeof text,
                  "%s: argmax accuracy %.6f, program reports %.6f", what,
                  mine, program);
    return text;
}

crypto::KeyStore make_keys(std::uint64_t seed, std::size_t key_bits,
                           std::size_t clients, std::size_t miners) {
    // The node set FairBfl registers: clients, then the miners above them.
    crypto::KeyStore keys(seed, key_bits);
    for (std::size_t id = 0; id < clients + std::max<std::size_t>(miners, 1);
         ++id)
        keys.register_node(static_cast<crypto::NodeId>(id));
    return keys;
}

/// Replays Procedure II for `senders` uploads shaped like the round's:
/// each carries `weights`, is signed and verified, and -- when the
/// workload encrypts -- goes through the hybrid cipher to a miner and is
/// decoded back.
ReplayTiming replay_upload(std::span<const float> weights,
                           std::size_t senders, std::size_t clients,
                           std::size_t miners, std::uint64_t round,
                           std::uint64_t seed, const crypto::KeyStore& keys,
                           bool encrypt) {
    ReplayTiming timing;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < senders; ++i) {
        chain::Transaction tx = chain::make_gradient_tx(
            chain::TxKind::kLocalGradient, static_cast<crypto::NodeId>(i),
            round, weights);
        Clock::time_point t = Clock::now();
        chain::sign_transaction(tx, keys);
        timing.sign_s += since(t);
        t = Clock::now();
        if (!chain::verify_transaction(tx, keys))
            throw std::runtime_error("replayed upload failed to verify");
        timing.verify_s += since(t);
        if (!encrypt) continue;
        t = Clock::now();
        const auto miner = static_cast<crypto::NodeId>(
            clients + i % std::max<std::size_t>(miners, 1));
        auto rng = support::Rng::fork(seed, 0x5EB1A7ULL + i, round);
        const crypto::HybridCiphertext sealed =
            crypto::hybrid_encrypt(keys.public_key(miner), tx.encode(), rng);
        const auto opened =
            crypto::hybrid_decrypt(keys.private_key(miner), sealed);
        chain::ByteReader reader(opened);
        if (!(chain::Transaction::decode(reader) == tx))
            throw std::runtime_error("replayed upload did not round-trip");
        timing.hybrid_s += since(t);
    }
    timing.upload_s = since(start);
    return timing;
}

/// 784-feature synthetic MNIST (7850 logistic parameters) split over
/// `clients` by label shards (non-IID).  `separation` sets the difficulty:
/// 1.0 (the library default, Figure 4's data) is learned in one round;
/// 0.6 takes FAIR-BFL three rounds to learn, so the §5.2 rule fires at
/// round 7, not at the earliest possible round 5.
core::EnvironmentConfig environment(std::size_t clients, std::size_t samples,
                                    double separation, std::uint64_t seed) {
    core::EnvironmentConfig config;
    config.data.samples = samples;
    config.data.feature_dim = 784;
    config.data.class_separation = separation;
    config.data.seed = seed;
    config.partition.num_clients = clients;
    config.partition.seed = seed;
    return config;
}

// --- FAIR-BFL workloads (flat-exact, shard-async, signed-chain) ------------

struct FairSpec {
    const char* kernels = "scalar";
    core::EnvironmentConfig env;
    core::FairBflConfig fair;
    std::optional<support::FaultSpec> faults;
    /// Floor on the mean sign-flip detection rate (0 = not checked).
    double min_detection = 0.0;
};

class FairWorkload final : public Workload {
public:
    using Builder = FairSpec (*)(std::uint64_t seed);

    FairWorkload(Builder build, unsigned threads)
        : build_(build), spec_(build(0)), pool_(threads) {}

    [[nodiscard]] const char* kernels() const override {
        return spec_.kernels;
    }

    SetupTiming setup(std::uint64_t seed) override {
        system_.reset();
        env_ = {};
        keys_.reset();
        release_free_memory();
        spec_ = build_(seed);
        seed_ = seed;
        SetupTiming timing;
        Clock::time_point t = Clock::now();
        env_ = core::build_environment(spec_.env);
        timing.env_s = since(t);
        t = Clock::now();
        if (spec_.faults) {
            faults_ = std::make_shared<support::FaultPlan>(
                support::FaultPlan::sampled(
                    *spec_.faults, seed_, kFaultHorizon,
                    static_cast<std::uint32_t>(clients())));
        }
        system_ = std::make_unique<core::FairBfl>(
            *env_.model, env_.make_clients(), env_.test, config_on(pool_));
        timing.systems_s = since(t);
        rounds_.clear();
        snapshot_.clear();
        detection_sum_ = 0.0;
        return timing;
    }

    double rebuild_keys() override {
        const Clock::time_point t = Clock::now();
        keys_.emplace(make_keys(spec_.fair.fl.seed, spec_.fair.key_bits,
                                clients(), spec_.fair.miners));
        return spec_.fair.key_bits == 0 ? 0.0 : since(t);
    }

    RoundOutcome run_round() override {
        const std::size_t height = system_->blockchain().height();
        const double cpu = process_cpu_s();
        const Clock::time_point t = Clock::now();
        const core::BflRoundRecord record = system_->run_round();
        RoundOutcome outcome;
        outcome.wall_s = since(t);
        outcome.cpu_s = process_cpu_s() - cpu;
        outcome.system_s["fairbfl"] = outcome.wall_s;
        outcome.updates = record.fl.participants;
        outcome.fair_accuracy = record.fl.test_accuracy;
        outcome.block_bytes = system_->blockchain().tip().size_bytes();
        last_ = record;
        rounds_.push_back(record.fl.round);
        detection_sum_ += record.detection_rate;
        if (rounds_.size() == kCheckRounds)
            snapshot_.assign(system_->weights().begin(),
                             system_->weights().end());

        if (system_->blockchain().height() != height + 1)
            note(outcome.failure, "the chain did not grow by one block");
        note(outcome.failure,
             budget_failure(system_->ledger(), {record.fl.round},
                            spec_.fair.incentive.reward_base));
        if (faults_ != nullptr) {
            // Every client is selected (ratio 1, keep-all), so the plan
            // alone says how many the faults removed.
            std::size_t dropped = 0;
            for (std::size_t c = 0; c < clients(); ++c)
                dropped += faults_->dropped(record.fl.round,
                                            static_cast<std::uint32_t>(c));
            if (record.on_time_updates + record.late_updates + dropped !=
                record.fl.selected)
                note(outcome.failure,
                     "on-time + late + dropped != selected");
            if (!record.deadline_fired &&
                record.on_time_updates < record.quorum_needed)
                note(outcome.failure, "aggregated below quorum");
        }
        return outcome;
    }

    ReplayTiming replay() override {
        if (!keys_) (void)rebuild_keys();
        const std::vector<float> tip =
            tip_global_weights(system_->blockchain());
        ReplayTiming timing = replay_upload(
            tip, last_.fl.selected, clients(), spec_.fair.miners,
            last_.fl.round, seed_, *keys_, spec_.fair.encrypt_gradients);
        const Clock::time_point t = Clock::now();
        (void)env_.model->accuracy(tip, env_.test);
        timing.eval_s = since(t);
        return timing;
    }

    [[nodiscard]] std::vector<std::string> final_checks() override {
        std::vector<std::string> failures;
        const auto fail = [&](std::string failure) {
            if (!failure.empty()) failures.push_back(std::move(failure));
        };
        const chain::Blockchain& ledger_chain = system_->blockchain();
        const std::size_t classes = env_.dataset->num_classes();
        const std::vector<float> tip = tip_global_weights(ledger_chain);
        const double tip_mine = argmax_accuracy(tip, env_.test, classes);
        fail(accuracy_failure("chain tip", tip_mine,
                              env_.model->accuracy(tip, env_.test),
                              env_.test.size()));
        fail(accuracy_failure(
            "final weights",
            argmax_accuracy(system_->weights(), env_.test, classes),
            last_.fl.test_accuracy, env_.test.size()));
        if (tip_mine < 0.5)
            fail("accuracy " + std::to_string(tip_mine) +
                 " does not beat chance (0.1) by the 0.4 margin");
        if (!spec_.fair.round.engaged() &&
            !same_bytes(tip, system_->weights()))
            fail("chain tip weights differ from the final weights");
        fail(budget_failure(system_->ledger(), rounds_,
                            spec_.fair.incentive.reward_base));
        if (!keys_) (void)rebuild_keys();
        const crypto::KeyStore* keys =
            spec_.fair.key_bits != 0 ? &*keys_ : nullptr;
        fail(chain_round_trip_failure(ledger_chain, spec_.fair.chain_id,
                                      keys));
        if (ledger_chain.height() != rounds_.size() + 1)
            fail("chain height is not rounds + 1");
        if (keys != nullptr)
            fail(signature_failure(ledger_chain, spec_.fair.chain_id, *keys));
        if (spec_.min_detection > 0.0) {
            const double mean =
                detection_sum_ / static_cast<double>(rounds_.size());
            if (mean < spec_.min_detection)
                fail("mean detection rate " + std::to_string(mean) +
                     " is below the floor");
        }
        if (rounds_.size() < kCheckRounds) {
            fail("too few rounds for the thread-count check");
        } else {
            support::ThreadPool one(1);
            core::FairBfl serial(*env_.model, env_.make_clients(), env_.test,
                                 config_on(one));
            for (std::size_t r = 0; r < kCheckRounds; ++r)
                (void)serial.run_round();
            if (!same_bytes(serial.weights(), snapshot_))
                fail("weights differ between a 1-thread and an " +
                     std::to_string(pool_.size()) + "-thread fan-out pool");
        }
        return failures;
    }

private:
    [[nodiscard]] std::size_t clients() const {
        return spec_.env.partition.num_clients;
    }

    [[nodiscard]] core::FairBflConfig config_on(
        support::ThreadPool& pool) const {
        core::FairBflConfig config = spec_.fair;
        config.pool = &pool;
        config.fault_plan = faults_;
        return config;
    }

    Builder build_;
    FairSpec spec_;
    std::uint64_t seed_ = 0;
    support::ThreadPool pool_;
    std::shared_ptr<const support::FaultPlan> faults_;
    core::Environment env_;
    std::unique_ptr<core::FairBfl> system_;
    std::optional<crypto::KeyStore> keys_;
    core::BflRoundRecord last_;
    std::vector<std::uint64_t> rounds_;
    std::vector<float> snapshot_;  ///< weights after kCheckRounds rounds
    double detection_sum_ = 0.0;
};

core::FairBflConfig lockstep_fair(std::uint64_t seed) {
    core::FairBflConfig config;
    config.fl.client_ratio = 1.0;  // n + 1 clustered points every round
    config.fl.rounds = kFaultHorizon;
    config.fl.sgd.learning_rate = 0.05;
    config.fl.seed = seed;
    return config;
}

FairSpec flat_exact(std::uint64_t seed) {
    FairSpec spec;
    spec.env = environment(256, 256 * 25, 0.6, seed);
    spec.fair = lockstep_fair(seed);
    spec.fair.incentive.index = "exact";
    spec.fair.attack.kind = core::AttackKind::kSignFlip;
    spec.fair.attack.magnitude = 3.0;  // Table 2's setting
    spec.min_detection = 0.40;         // Table 2's floor
    return spec;
}

FairSpec shard_async(std::uint64_t seed) {
    FairSpec spec;
    spec.kernels = "auto";
    spec.env = environment(256, 256 * 25, 0.6, seed);
    spec.fair = lockstep_fair(seed);
    spec.fair.incentive.index = "random_projection";
    // Two shards of ~110 arrived clients: above the 2k = 96-point dense
    // fallback of random_projection, so the sketches are really built.
    spec.fair.incentive.sharding.shards = 2;
    spec.fair.round.quorum_fraction = 0.85;
    spec.fair.round.deadline_ns = 8'000'000'000ULL;  // 8 virtual seconds
    spec.fair.round.late_policy = core::LatePolicy::kRetroactive;
    support::FaultSpec faults;
    faults.straggler_rate = 0.08;
    faults.straggler_factor = 10.0;
    faults.duplicate_rate = 0.05;
    faults.churn_rate = 0.01;
    faults.churn_rounds = 2;
    spec.faults = faults;
    return spec;
}

FairSpec signed_chain(std::uint64_t seed) {
    FairSpec spec;
    spec.env = environment(32, 32 * 50, 0.6, seed);
    spec.fair = lockstep_fair(seed);
    spec.fair.miners = 4;
    spec.fair.key_bits = 512;
    spec.fair.encrypt_gradients = true;
    // Assumption 2 ablation: 32 local gradients of ~31 KB each put a
    // round's content far above max_block_bytes (100 KB).
    spec.fair.record_local_gradients = true;
    return spec;
}

// --- fig4-suite -------------------------------------------------------------

/// Figure 4's paper-scale setting (bench_fig4_general --paper): 100
/// clients, lambda = 0.1, eta = 0.05, E = 5, B = 10, 12000 samples of 784
/// features, two miners, the delay model normalized to ~6 s FedAvg rounds.
class SuiteWorkload final : public Workload {
public:
    explicit SuiteWorkload(unsigned threads) : pool_(threads) {}

    [[nodiscard]] const char* kernels() const override { return "scalar"; }

    SetupTiming setup(std::uint64_t seed) override {
        systems_.clear();
        env_ = {};
        release_free_memory();
        configure(seed);
        SetupTiming timing;
        Clock::time_point t = Clock::now();
        env_ = core::build_environment(env_config_);
        timing.env_s = since(t);
        t = Clock::now();
        for (const auto& spec : specs_)
            systems_.push_back(
                core::SystemRegistry::global().make(env_, spec));
        timing.systems_s = since(t);
        rounds_.clear();
        snapshot_.clear();
        return timing;
    }

    double rebuild_keys() override { return 0.0; }  // the suite signs nothing

    RoundOutcome run_round() override {
        const chain::Blockchain& ledger_chain = *systems_[kFair]->blockchain();
        const std::size_t height = ledger_chain.height();
        RoundOutcome outcome;
        core::SeriesPoint fair_point;
        for (std::size_t s = 0; s < systems_.size(); ++s) {
            const double cpu = process_cpu_s();
            const Clock::time_point t = Clock::now();
            const core::SeriesPoint point = systems_[s]->run_round();
            const double seconds = since(t);
            outcome.cpu_s += process_cpu_s() - cpu;
            outcome.wall_s += seconds;
            outcome.system_s[specs_[s].system] = seconds;
            if (s == kFair) fair_point = point;
        }
        const std::uint64_t round = rounds_.size();
        rounds_.push_back(round);
        // FedAvg, FedProx (stragglers keep their partial work), vanilla
        // BFL and FAIR-BFL (keep-all) each aggregate the lambda*n clients
        // selected this round.
        outcome.updates =
            4 * fl::sample_clients(kClients, ratio_, round, seed_).size();
        outcome.fair_accuracy = fair_point.accuracy;
        outcome.block_bytes = ledger_chain.tip().size_bytes();
        last_accuracy_ = fair_point.accuracy;
        if (rounds_.size() == kCheckRounds)
            snapshot_ = tip_global_weights(ledger_chain);

        if (ledger_chain.height() != height + 1)
            note(outcome.failure, "the FAIR-BFL chain did not grow by one");
        note(outcome.failure,
             budget_failure(*systems_[kFair]->reward_ledger(), {round},
                            fair_.incentive.reward_base));
        return outcome;
    }

    ReplayTiming replay() override {
        const std::vector<float> tip =
            tip_global_weights(*systems_[kFair]->blockchain());
        const crypto::KeyStore keys(fair_.fl.seed, 0);
        ReplayTiming timing = replay_upload(
            tip, fl::sample_clients(kClients, ratio_, rounds_.back(), seed_)
                     .size(),
            kClients, fair_.miners, rounds_.back(), seed_, keys, false);
        const Clock::time_point t = Clock::now();
        (void)env_.model->accuracy(tip, env_.test);
        timing.eval_s = since(t);
        return timing;
    }

    [[nodiscard]] std::vector<std::string> final_checks() override {
        std::vector<std::string> failures;
        const auto fail = [&](std::string failure) {
            if (!failure.empty()) failures.push_back(std::move(failure));
        };
        std::vector<core::SystemRun> runs;
        for (const auto& system : systems_) runs.push_back(system->finalize());
        const core::SystemRun& fedavg = runs[0];
        const core::SystemRun& fedprox = runs[1];
        const core::SystemRun& fair = runs[kFair];
        const core::SystemRun& blockchain = runs[4];
        if (!(fedavg.average_delay < fair.average_delay &&
              fair.average_delay < blockchain.average_delay))
            fail("Figure 4a order FedAvg < FAIR-BFL < blockchain broke");
        if (!(std::abs(fair.final_accuracy - fedavg.final_accuracy) < 0.05 &&
              fair.final_accuracy > fedprox.final_accuracy - 0.02))
            fail("Figure 4b: FAIR-BFL accuracy is not ~FedAvg and >= FedProx");
        if (fair.converged_round == fairbfl::support::ConvergenceDetector::npos)
            fail("FAIR-BFL did not converge within the run");

        const chain::Blockchain& ledger_chain = *systems_[kFair]->blockchain();
        const std::size_t classes = env_.dataset->num_classes();
        const std::vector<float> tip = tip_global_weights(ledger_chain);
        const double tip_mine = argmax_accuracy(tip, env_.test, classes);
        fail(accuracy_failure("chain tip", tip_mine,
                              env_.model->accuracy(tip, env_.test),
                              env_.test.size()));
        fail(accuracy_failure("reported", tip_mine, last_accuracy_,
                              env_.test.size()));
        if (tip_mine < 0.5)
            fail("accuracy " + std::to_string(tip_mine) +
                 " does not beat chance (0.1) by the 0.4 margin");
        fail(budget_failure(*systems_[kFair]->reward_ledger(), rounds_,
                            fair_.incentive.reward_base));
        fail(chain_round_trip_failure(ledger_chain, fair_.chain_id, nullptr));
        if (ledger_chain.height() != rounds_.size() + 1)
            fail("chain height is not rounds + 1");

        if (rounds_.size() < kCheckRounds) {
            fail("too few rounds for the thread-count check");
        } else {
            support::ThreadPool one(1);
            core::SystemSpec spec = specs_[kFair];
            spec.fair.pool = &one;
            const auto serial = core::SystemRegistry::global().make(env_, spec);
            for (std::size_t r = 0; r < kCheckRounds; ++r)
                (void)serial->run_round();
            if (!same_bytes(tip_global_weights(*serial->blockchain()),
                            snapshot_))
                fail("weights differ between a 1-thread and an " +
                     std::to_string(pool_.size()) + "-thread fan-out pool");
        }
        return failures;
    }

private:
    void configure(std::uint64_t seed) {
        seed_ = seed;
        env_config_ = environment(kClients, 12000, 1.0, seed);

        fl::FlConfig fl_config;
        fl_config.client_ratio = 0.1;
        fl_config.rounds = 100;
        fl_config.sgd.learning_rate = 0.05;
        fl_config.seed = seed;

        core::DelayParams delay;
        const double per_client = 12000.0 * 0.85 / kClients;
        const double steps = 5.0 * std::ceil(per_client / 10.0);
        delay.seconds_per_batch = 0.25 * 15.0 / steps;

        fl::FedProxConfig fedprox;
        fedprox.base = fl_config;
        fedprox.prox_mu = 0.5;
        fedprox.drop_percent = 0.3;
        fedprox.keep_partial_work = true;
        fedprox.straggler_epoch_fraction = 0.2;

        fair_ = core::FairBflConfig{};
        fair_.fl = fl_config;
        fair_.delay = delay;

        core::VanillaBflConfig vanilla;
        vanilla.fl = fl_config;
        vanilla.delay = delay;

        core::BlockchainBaselineConfig blockchain;
        blockchain.workers = kClients;
        blockchain.rounds = fl_config.rounds;
        blockchain.seed = seed;
        blockchain.delay = delay;

        specs_ = {core::fedavg_spec(fl_config, delay),
                  core::fedprox_spec(fedprox, delay),
                  core::vanilla_bfl_spec(vanilla),
                  core::fairbfl_spec(fair_),
                  core::blockchain_spec(blockchain)};
        specs_[kFair].fair.pool = &pool_;
        ratio_ = fl_config.client_ratio;
    }

    static constexpr std::size_t kClients = 100;
    static constexpr std::size_t kFair = 3;  ///< index of FAIR-BFL in specs_

    std::uint64_t seed_ = 0;
    support::ThreadPool pool_;
    core::EnvironmentConfig env_config_;
    core::FairBflConfig fair_;
    double ratio_ = 0.0;
    std::vector<core::SystemSpec> specs_;
    core::Environment env_;
    std::vector<std::unique_ptr<core::System>> systems_;
    std::vector<std::uint64_t> rounds_;
    std::vector<float> snapshot_;  ///< tip weights after kCheckRounds rounds
    double last_accuracy_ = 0.0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {
        "flat-exact", "shard-async", "signed-chain", "fig4-suite"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        unsigned threads) {
    if (name == "flat-exact")
        return std::make_unique<FairWorkload>(flat_exact, threads);
    if (name == "shard-async")
        return std::make_unique<FairWorkload>(shard_async, threads);
    if (name == "signed-chain")
        return std::make_unique<FairWorkload>(signed_chain, threads);
    if (name == "fig4-suite") return std::make_unique<SuiteWorkload>(threads);
    return nullptr;
}

}  // namespace roundbench
