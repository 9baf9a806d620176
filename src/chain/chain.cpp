#include "chain/chain.hpp"

#include <algorithm>

#include "chain/pow.hpp"

namespace fairbfl::chain {

std::string to_string(BlockVerdict verdict) {
    switch (verdict) {
        case BlockVerdict::kAccepted: return "accepted";
        case BlockVerdict::kAcceptedSideBranch: return "accepted-side-branch";
        case BlockVerdict::kAcceptedReorg: return "accepted-reorg";
        case BlockVerdict::kBadParent: return "bad-parent";
        case BlockVerdict::kBadIndex: return "bad-index";
        case BlockVerdict::kBadPow: return "bad-pow";
        case BlockVerdict::kBadMerkle: return "bad-merkle";
        case BlockVerdict::kBadSignature: return "bad-signature";
        case BlockVerdict::kDuplicate: return "duplicate";
    }
    return "unknown";
}

Blockchain::Blockchain(std::uint64_t chain_id, const crypto::KeyStore* keys)
    : keys_(keys) {
    Block genesis = make_genesis(chain_id);
    const std::string key = crypto::to_hex(genesis.header.hash());
    const auto stored =
        blocks_by_hash_.emplace(key, StoredBlock{std::move(genesis), 1});
    best_chain_.push_back(&stored.first->second.block);
}

Blockchain::Blockchain(const Blockchain& other)
    : blocks_by_hash_(other.blocks_by_hash_),
      keys_(other.keys_),
      check_pow_(other.check_pow_),
      reorgs_(other.reorgs_) {
    rebuild_best_chain(other.tip().header.hash());
}

Blockchain& Blockchain::operator=(const Blockchain& other) {
    if (this != &other) *this = Blockchain(other);
    return *this;
}

BlockVerdict Blockchain::validate_against_parent(
    const Block& block, const StoredBlock& parent) const {
    if (block.header.index != parent.block.header.index + 1)
        return BlockVerdict::kBadIndex;
    if (check_pow_ && !meets_target(block.header.hash(), block.header.difficulty))
        return BlockVerdict::kBadPow;
    if (!block.merkle_consistent()) return BlockVerdict::kBadMerkle;
    if (keys_ != nullptr) {
        for (const auto& tx : block.transactions) {
            if (!verify_transaction(tx, *keys_))
                return BlockVerdict::kBadSignature;
        }
    }
    return BlockVerdict::kAccepted;
}

BlockVerdict Blockchain::submit(Block block) {
    const crypto::Digest hash = block.header.hash();
    const std::string hash_key = crypto::to_hex(hash);
    if (blocks_by_hash_.contains(hash_key)) return BlockVerdict::kDuplicate;

    const std::string parent_key = crypto::to_hex(block.header.prev_hash);
    const auto parent_it = blocks_by_hash_.find(parent_key);
    if (parent_it == blocks_by_hash_.end()) return BlockVerdict::kBadParent;

    const BlockVerdict verdict =
        validate_against_parent(block, parent_it->second);
    if (verdict != BlockVerdict::kAccepted) return verdict;

    const std::size_t branch_length = parent_it->second.branch_length + 1;
    const bool extends_tip =
        block.header.prev_hash == best_chain_.back()->header.hash();
    const Block& stored =
        blocks_by_hash_
            .emplace(hash_key, StoredBlock{std::move(block), branch_length})
            .first->second.block;

    if (extends_tip) {
        best_chain_.push_back(&stored);
        return BlockVerdict::kAccepted;
    }
    if (branch_length > best_chain_.size()) {
        rebuild_best_chain(hash);
        ++reorgs_;
        return BlockVerdict::kAcceptedReorg;
    }
    return BlockVerdict::kAcceptedSideBranch;
}

void Blockchain::rebuild_best_chain(const crypto::Digest& new_tip_hash) {
    std::vector<const Block*> chain;
    crypto::Digest cursor = new_tip_hash;
    for (;;) {
        const auto it = blocks_by_hash_.find(crypto::to_hex(cursor));
        if (it == blocks_by_hash_.end()) break;  // reached above genesis
        chain.push_back(&it->second.block);
        if (it->second.block.header.index == 0) break;
        cursor = it->second.block.header.prev_hash;
    }
    std::reverse(chain.begin(), chain.end());
    best_chain_ = std::move(chain);
}

const Block& Blockchain::at(std::size_t index) const {
    return *best_chain_.at(index);
}

std::optional<std::vector<float>> Blockchain::latest_global_gradient() const {
    for (std::size_t i = best_chain_.size(); i-- > 0;) {
        for (const auto& tx : best_chain_[i]->transactions) {
            if (tx.kind == TxKind::kGlobalUpdate) return parse_gradient_tx(tx);
        }
    }
    return std::nullopt;
}

std::size_t Blockchain::orphaned_blocks() const noexcept {
    return blocks_by_hash_.size() - best_chain_.size();
}

bool Blockchain::validate_full_chain() const {
    for (std::size_t i = 1; i < best_chain_.size(); ++i) {
        const Block& block = *best_chain_[i];
        const Block& parent = *best_chain_[i - 1];
        if (block.header.prev_hash != parent.header.hash()) return false;
        if (block.header.index != parent.header.index + 1) return false;
        if (!block.merkle_consistent()) return false;
        if (check_pow_ &&
            !meets_target(block.header.hash(), block.header.difficulty))
            return false;
    }
    return true;
}

}  // namespace fairbfl::chain
