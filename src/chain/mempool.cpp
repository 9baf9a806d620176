#include "chain/mempool.hpp"

namespace fairbfl::chain {

void Mempool::add(Transaction tx) {
    pending_bytes_ += tx.size_bytes();
    queue_.push_back(std::move(tx));
}

void Mempool::add_all(std::vector<Transaction> txs) {
    for (auto& tx : txs) add(std::move(tx));
}

std::vector<Transaction> Mempool::pack_block() {
    std::vector<Transaction> packed;
    std::size_t used = 0;
    while (!queue_.empty()) {
        const std::size_t tx_bytes = queue_.front().size_bytes();
        if (!packed.empty() && used + tx_bytes > max_block_bytes_) break;
        used += tx_bytes;
        pending_bytes_ -= tx_bytes;
        packed.push_back(std::move(queue_.front()));
        queue_.pop_front();
        if (used >= max_block_bytes_) break;
    }
    return packed;
}

std::size_t Mempool::blocks_to_drain() const {
    // Simulate the FIFO packer without consuming the queue.
    BlockCounter counter(max_block_bytes_);
    for (const auto& tx : queue_) counter.add(tx.size_bytes());
    return counter.blocks();
}

void Mempool::clear() noexcept {
    queue_.clear();
    pending_bytes_ = 0;
}

}  // namespace fairbfl::chain
