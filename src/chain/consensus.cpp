#include "chain/consensus.hpp"

#include <limits>
#include <set>
#include <string>

namespace fairbfl::chain {

ConsensusSim::ConsensusSim(std::size_t miners, std::uint64_t chain_id,
                           NetworkModel network, std::uint64_t seed)
    : network_(network), rng_(support::Rng::fork(seed, /*stream=*/0xC0)) {
    replicas_.reserve(miners);
    for (std::size_t i = 0; i < miners; ++i) replicas_.emplace_back(chain_id);
    for (auto& replica : replicas_) replica.set_check_pow(false);
}

BlockVerdict ConsensusSim::broadcast(std::size_t origin, const Block& block,
                                     double now) {
    const BlockVerdict verdict = replicas_.at(origin).submit(block);
    for (std::size_t peer = 0; peer < replicas_.size(); ++peer) {
        if (peer == origin) continue;
        Delivery delivery;
        delivery.due =
            now + network_.miner_link_seconds(block.size_bytes(), rng_);
        delivery.sequence = sequence_++;
        delivery.target = peer;
        delivery.block = block;
        queue_.emplace(std::make_pair(delivery.due, delivery.sequence),
                       std::move(delivery));
    }
    return verdict;
}

void ConsensusSim::advance_to(double time) {
    while (!queue_.empty() && queue_.begin()->first.first <= time) {
        Delivery delivery = std::move(queue_.begin()->second);
        queue_.erase(queue_.begin());
        // Replicas may reject duplicates or out-of-order parents; rejection
        // is part of the protocol, not an error.
        (void)replicas_.at(delivery.target).submit(std::move(delivery.block));
    }
}

void ConsensusSim::drain() {
    advance_to(std::numeric_limits<double>::infinity());
}

bool ConsensusSim::consistent() const { return distinct_tips() == 1; }

std::size_t ConsensusSim::distinct_tips() const {
    std::set<std::string> tips;
    for (const auto& replica : replicas_)
        tips.insert(crypto::to_hex(replica.tip().header.hash()));
    return tips.size();
}

Block ConsensusSim::make_child_block(std::size_t miner,
                                     std::vector<Transaction> txs,
                                     std::uint64_t timestamp_ms,
                                     std::uint64_t difficulty) const {
    const Block& tip = replicas_.at(miner).tip();
    Block block;
    block.header.index = tip.header.index + 1;
    block.header.prev_hash = tip.header.hash();
    block.header.timestamp_ms = timestamp_ms;
    block.header.difficulty = difficulty;
    block.transactions = std::move(txs);
    block.seal_transactions();
    return block;
}

}  // namespace fairbfl::chain
