#pragma once
// The ledger: an append-only chain of validated blocks with side-branch
// tracking and longest-chain reorganization.
//
// FAIR-BFL's tight coupling (Assumptions 1 and 2) guarantees one block per
// round and no forks, so its chain only ever appends.  The vanilla
// blockchain baseline *does* fork; the side-branch machinery here is what
// lets the baseline pay the fork-merge cost the paper describes (§5.2.4).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "chain/block.hpp"
#include "crypto/keystore.hpp"

namespace fairbfl::chain {

/// Why a block was rejected.
enum class BlockVerdict {
    kAccepted,
    kAcceptedSideBranch,   ///< valid but not extending the best tip
    kAcceptedReorg,        ///< valid, triggered a longest-chain reorg
    kBadParent,            ///< parent unknown
    kBadIndex,             ///< height does not follow the parent
    kBadPow,               ///< header hash misses the target
    kBadMerkle,            ///< merkle root mismatch
    kBadSignature,         ///< a transaction signature failed verification
    kDuplicate,            ///< block already known
};

[[nodiscard]] std::string to_string(BlockVerdict verdict);

/// Validated blockchain.  Not thread-safe; each simulated miner owns a copy
/// (consensus is modelled at the simulation layer).
class Blockchain {
public:
    /// Starts from the deterministic genesis for `chain_id`.  When a
    /// keystore is supplied, every submitted block's transactions must
    /// carry valid signatures.
    explicit Blockchain(std::uint64_t chain_id = 0,
                        const crypto::KeyStore* keys = nullptr);

    /// A copy owns its own blocks; its best chain points into them.
    Blockchain(const Blockchain& other);
    Blockchain& operator=(const Blockchain& other);
    Blockchain(Blockchain&&) noexcept = default;
    Blockchain& operator=(Blockchain&&) noexcept = default;
    ~Blockchain() = default;

    /// Validates and stores a block.  Accepts side branches and reorganizes
    /// to the heaviest (longest; ties keep the incumbent) branch.  Taken
    /// by value: the ledger keeps exactly one copy, moved in when the
    /// caller passes an rvalue.
    BlockVerdict submit(Block block);

    /// Whether PoW is checked on submit (disable for tightly-coupled
    /// simulations that model mining time stochastically).
    void set_check_pow(bool check) noexcept { check_pow_ = check; }

    [[nodiscard]] const Block& genesis() const { return at(0); }
    [[nodiscard]] const Block& tip() const { return *best_chain_.back(); }
    /// Number of blocks on the best chain (genesis included).
    [[nodiscard]] std::size_t height() const noexcept {
        return best_chain_.size();
    }
    /// Block at height `index` on the best chain.
    [[nodiscard]] const Block& at(std::size_t index) const;

    /// Latest block carrying a kGlobalUpdate transaction, if any --
    /// Procedure I reads the global gradient from here.
    [[nodiscard]] std::optional<std::vector<float>> latest_global_gradient() const;

    /// Total blocks known including side branches.
    [[nodiscard]] std::size_t total_blocks_known() const noexcept {
        return blocks_by_hash_.size();
    }
    /// Number of reorganizations performed (fork-merge events).
    [[nodiscard]] std::size_t reorg_count() const noexcept { return reorgs_; }
    /// Blocks currently sitting on abandoned branches.
    [[nodiscard]] std::size_t orphaned_blocks() const noexcept;

    /// Full-chain re-validation (tests and auditing).
    [[nodiscard]] bool validate_full_chain() const;

private:
    struct StoredBlock {
        Block block;
        std::size_t branch_length;  ///< blocks from genesis to here inclusive
    };

    [[nodiscard]] BlockVerdict validate_against_parent(
        const Block& block, const StoredBlock& parent) const;
    void rebuild_best_chain(const crypto::Digest& new_tip_hash);

    std::map<std::string, StoredBlock> blocks_by_hash_;  // key: hex digest
    /// The best chain, genesis first, as pointers into blocks_by_hash_'s
    /// nodes (std::map nodes never move, and a moved map keeps them), so
    /// every block is stored once.
    std::vector<const Block*> best_chain_;
    const crypto::KeyStore* keys_;
    bool check_pow_ = true;
    std::size_t reorgs_ = 0;
};

}  // namespace fairbfl::chain
