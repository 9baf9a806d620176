#pragma once
// FIFO transaction pool with a byte-capacity block packer.
//
// This is where the vanilla-BFL scalability problem of §5.2.3 lives: when a
// round's transactions exceed the block size, the surplus queues for later
// blocks, and the round cannot finish until every gradient is on-chain.

#include <cstddef>
#include <deque>
#include <vector>

#include "chain/transaction.hpp"

namespace fairbfl::chain {

/// Counts the blocks the FIFO packer fills from transactions fed in
/// order, by size alone: a transaction that does not fit the open block
/// starts the next one, and a block always takes at least one.
class BlockCounter {
public:
    explicit BlockCounter(std::size_t max_block_bytes) noexcept
        : max_block_bytes_(max_block_bytes) {}

    void add(std::size_t tx_bytes) noexcept {
        if (blocks_ == 0 || used_ + tx_bytes > max_block_bytes_) {
            ++blocks_;
            used_ = 0;
        }
        used_ += tx_bytes;
    }
    [[nodiscard]] std::size_t blocks() const noexcept { return blocks_; }

private:
    std::size_t max_block_bytes_;
    std::size_t used_ = 0;
    std::size_t blocks_ = 0;
};

class Mempool {
public:
    /// `max_block_bytes` caps the transaction bytes a single block may pack.
    explicit Mempool(std::size_t max_block_bytes) noexcept
        : max_block_bytes_(max_block_bytes) {}

    void add(Transaction tx);
    void add_all(std::vector<Transaction> txs);

    /// Pops transactions FIFO until the byte budget is exhausted.  A single
    /// transaction larger than the budget is still packed alone (progress
    /// guarantee).
    [[nodiscard]] std::vector<Transaction> pack_block();

    /// Blocks needed to drain the current backlog at the configured size.
    [[nodiscard]] std::size_t blocks_to_drain() const;

    [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }
    [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
    [[nodiscard]] std::size_t pending_bytes() const noexcept {
        return pending_bytes_;
    }
    [[nodiscard]] std::size_t max_block_bytes() const noexcept {
        return max_block_bytes_;
    }

    void clear() noexcept;

private:
    std::size_t max_block_bytes_;
    std::deque<Transaction> queue_;
    std::size_t pending_bytes_ = 0;
};

}  // namespace fairbfl::chain
