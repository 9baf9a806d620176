#include "core/blockchain_baseline.hpp"

#include <algorithm>

namespace fairbfl::core {

BlockchainBaseline::BlockchainBaseline(BlockchainBaselineConfig config)
    : config_(config),
      consensus_(make_consensus("async_pow")),
      keys_(config.seed, config.key_bits),
      chain_(config.chain_id, config.key_bits != 0 ? &keys_ : nullptr),
      mempool_(config.delay.max_block_bytes) {
    chain_.set_check_pow(false);
    for (std::size_t w = 0; w < config_.workers; ++w)
        keys_.register_node(static_cast<crypto::NodeId>(w));
}

BlockchainRoundRecord BlockchainBaseline::run_round() {
    const std::uint64_t round = round_++;
    BlockchainRoundRecord record;
    record.round = round;

    // Separate per-component streams (common random numbers across
    // configurations; see fairbfl.cpp).
    auto up_rng = support::Rng::fork(config_.seed, /*stream=*/0x755, round);
    auto bl_rng = support::Rng::fork(config_.seed, /*stream=*/0x7B1, round);
    const DelayModel delays(config_.delay);

    // Every worker submits one application transaction.
    std::vector<std::uint8_t> payload(config_.tx_payload_bytes, 0);
    for (std::size_t w = 0; w < config_.workers; ++w) {
        // Cheap per-worker/round variation so tx ids differ.
        payload[0] = static_cast<std::uint8_t>(w);
        payload[1] = static_cast<std::uint8_t>(round);
        chain::Transaction tx;
        tx.kind = chain::TxKind::kPayload;
        tx.origin = static_cast<crypto::NodeId>(w);
        tx.round = round;
        tx.payload = payload;
        chain::sign_transaction(tx, keys_);
        mempool_.add(std::move(tx));
    }
    record.transactions = config_.workers;
    record.delay.t_up =
        delays.t_up(config_.workers, config_.tx_payload_bytes, up_rng);

    // Every miner validates every incoming transaction (serial CPU cost on
    // the critical path; grows linearly with n -- the mild slope of the
    // sub-capacity region in Figure 6a).
    record.delay.t_up +=
        config_.delay.seconds_per_tx_validation *
        static_cast<double>(config_.workers);

    // Mine until this round's backlog is drained (queuing: more blocks when
    // transactions exceed the block size).
    const std::size_t blocks = mempool_.blocks_to_drain();
    record.blocks_mined = blocks;
    const MiningOutcome mined =
        consensus_->mine(delays, config_.miners, blocks,
                         config_.delay.max_block_bytes, bl_rng);
    record.delay.t_bl = mined.seconds;
    record.forks = mined.forks;
    record.fork_merge_seconds = mined.fork_merge_seconds;

    // Commit the blocks to the actual ledger.
    for (std::size_t b = 0; b < blocks; ++b) {
        chain::Block block;
        block.header.index = chain_.tip().header.index + 1;
        block.header.prev_hash = chain_.tip().header.hash();
        block.header.difficulty = config_.delay.difficulty;
        block.header.timestamp_ms = round * 1000 + b;
        block.transactions = mempool_.pack_block();
        block.seal_transactions();
        (void)chain_.submit(std::move(block));
    }
    record.mempool_backlog = mempool_.size();
    return record;
}

std::vector<BlockchainRoundRecord> BlockchainBaseline::run(std::size_t rounds) {
    if (rounds == 0) rounds = config_.rounds;
    std::vector<BlockchainRoundRecord> history;
    history.reserve(rounds);
    for (std::size_t r = 0; r < rounds; ++r) history.push_back(run_round());
    return history;
}

}  // namespace fairbfl::core
