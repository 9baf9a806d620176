// Blockchain: validation verdicts, side branches, longest-chain reorgs,
// signature enforcement, and global-gradient lookup.

#include <gtest/gtest.h>

#include <vector>

#include "chain/chain.hpp"
#include "chain/storage.hpp"

namespace {

namespace ch = fairbfl::chain;
using fairbfl::crypto::KeyStore;

ch::Block child_of(const ch::Block& parent, std::uint64_t salt = 0) {
    ch::Block block;
    block.header.index = parent.header.index + 1;
    block.header.prev_hash = parent.header.hash();
    block.header.difficulty = 1;
    block.header.timestamp_ms = salt;  // differentiates siblings
    block.seal_transactions();
    return block;
}

TEST(Chain, StartsAtGenesis) {
    ch::Blockchain chain(7);
    EXPECT_EQ(chain.height(), 1U);
    EXPECT_EQ(chain.tip().header.index, 0U);
    EXPECT_TRUE(chain.validate_full_chain());
}

TEST(Chain, AppendsValidBlocks) {
    ch::Blockchain chain(7);
    ch::Block b1 = child_of(chain.tip());
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kAccepted);
    ch::Block b2 = child_of(chain.tip(), 1);
    EXPECT_EQ(chain.submit(b2), ch::BlockVerdict::kAccepted);
    EXPECT_EQ(chain.height(), 3U);
    EXPECT_TRUE(chain.validate_full_chain());
}

TEST(Chain, RejectsDuplicates) {
    ch::Blockchain chain(7);
    const ch::Block b1 = child_of(chain.tip());
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kAccepted);
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kDuplicate);
}

TEST(Chain, RejectsUnknownParent) {
    ch::Blockchain chain(7);
    ch::Block orphan = child_of(chain.tip());
    orphan.header.prev_hash[0] ^= 1;
    EXPECT_EQ(chain.submit(orphan), ch::BlockVerdict::kBadParent);
}

TEST(Chain, RejectsBadIndex) {
    ch::Blockchain chain(7);
    ch::Block b1 = child_of(chain.tip());
    b1.header.index = 5;
    b1.seal_transactions();
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kBadIndex);
}

TEST(Chain, RejectsBadMerkleRoot) {
    ch::Blockchain chain(7);
    ch::Block b1 = child_of(chain.tip());
    b1.transactions.push_back(ch::make_reward_tx(0, 0, 1, 1.0));
    // Deliberately NOT resealed.
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kBadMerkle);
}

TEST(Chain, EnforcesPowWhenEnabled) {
    ch::Blockchain chain(7);
    ch::Block b1 = child_of(chain.tip());
    b1.header.difficulty = ~0ULL;  // impossible target, nonce not mined
    b1.seal_transactions();
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kBadPow);
    chain.set_check_pow(false);
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kAccepted);
}

TEST(Chain, SideBranchThenReorg) {
    ch::Blockchain chain(7);
    const ch::Block genesis = chain.genesis();
    // Main: g -> a1 -> a2.
    const ch::Block a1 = child_of(genesis, 1);
    ASSERT_EQ(chain.submit(a1), ch::BlockVerdict::kAccepted);
    const ch::Block a2 = child_of(a1, 2);
    ASSERT_EQ(chain.submit(a2), ch::BlockVerdict::kAccepted);
    // Fork from genesis: g -> b1 (shorter: side branch).
    const ch::Block b1 = child_of(genesis, 3);
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kAcceptedSideBranch);
    EXPECT_EQ(chain.tip().header.hash(), a2.header.hash());
    EXPECT_EQ(chain.orphaned_blocks(), 1U);
    // Extend the fork past the main chain: b2, b3 -> reorg.
    const ch::Block b2 = child_of(b1, 4);
    EXPECT_EQ(chain.submit(b2), ch::BlockVerdict::kAcceptedSideBranch);
    const ch::Block b3 = child_of(b2, 5);
    EXPECT_EQ(chain.submit(b3), ch::BlockVerdict::kAcceptedReorg);
    EXPECT_EQ(chain.tip().header.hash(), b3.header.hash());
    EXPECT_EQ(chain.height(), 4U);  // g, b1, b2, b3
    EXPECT_EQ(chain.reorg_count(), 1U);
    EXPECT_EQ(chain.orphaned_blocks(), 2U);  // a1, a2 abandoned
    EXPECT_TRUE(chain.validate_full_chain());
}

TEST(Chain, ReorgsAfterSideBranchesKeepHeightsAndExportBytes) {
    ch::Blockchain chain(7);
    // Main: g -> a1..a3; side branches g -> b1 -> b2 and a1 -> c2 -> c3
    // -> c4, whose last block reorganizes; then b3..b5 reorganize back.
    std::vector<ch::Block> a = {chain.genesis()};
    for (std::uint64_t k = 1; k <= 3; ++k) {
        a.push_back(child_of(a.back(), 10 + k));
        ASSERT_EQ(chain.submit(a.back()), ch::BlockVerdict::kAccepted);
    }
    std::vector<ch::Block> b = {chain.genesis()};
    for (std::uint64_t k = 1; k <= 2; ++k) {
        b.push_back(child_of(b.back(), 20 + k));
        ASSERT_EQ(chain.submit(b.back()),
                  ch::BlockVerdict::kAcceptedSideBranch);
    }
    std::vector<ch::Block> c = {chain.genesis(), a[1]};
    for (std::uint64_t k = 2; k <= 4; ++k) {
        c.push_back(child_of(c.back(), 30 + k));
        ASSERT_EQ(chain.submit(c.back()),
                  k < 4 ? ch::BlockVerdict::kAcceptedSideBranch
                        : ch::BlockVerdict::kAcceptedReorg);
    }
    const auto expect_best = [](const ch::Blockchain& ledger,
                                const std::vector<ch::Block>& best) {
        ASSERT_EQ(ledger.height(), best.size());
        for (std::size_t i = 0; i < best.size(); ++i)
            EXPECT_EQ(ledger.at(i), best[i]) << i;
        EXPECT_EQ(ledger.tip(), best.back());
        EXPECT_TRUE(ledger.validate_full_chain());
    };
    expect_best(chain, c);
    EXPECT_EQ(chain.reorg_count(), 1U);
    EXPECT_EQ(chain.orphaned_blocks(), 4U);  // a2, a3, b1, b2

    // A copy keeps its own blocks after the original moves on.
    const ch::Blockchain copy = chain;
    for (std::uint64_t k = 3; k <= 5; ++k) {
        b.push_back(child_of(b.back(), 20 + k));
        ASSERT_EQ(chain.submit(b.back()),
                  k < 5 ? ch::BlockVerdict::kAcceptedSideBranch
                        : ch::BlockVerdict::kAcceptedReorg);
    }
    expect_best(chain, b);
    EXPECT_EQ(chain.reorg_count(), 2U);
    EXPECT_EQ(chain.orphaned_blocks(), 6U);  // a2, a3, a1, c2, c3, c4
    expect_best(copy, c);

    const ch::Bytes exported = ch::export_chain(chain);
    const auto imported = ch::import_chain(exported, 7);
    ASSERT_TRUE(imported.has_value());
    expect_best(*imported, b);
    EXPECT_EQ(ch::export_chain(*imported), exported);
}

TEST(Chain, TieKeepsIncumbent) {
    ch::Blockchain chain(7);
    const ch::Block a1 = child_of(chain.genesis(), 1);
    ASSERT_EQ(chain.submit(a1), ch::BlockVerdict::kAccepted);
    const ch::Block b1 = child_of(chain.genesis(), 2);  // same height
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kAcceptedSideBranch);
    EXPECT_EQ(chain.tip().header.hash(), a1.header.hash());
}

TEST(Chain, SignatureEnforcement) {
    KeyStore keys(3, 384);
    keys.register_node(1);
    ch::Blockchain chain(7, &keys);
    ch::Block b1 = child_of(chain.tip());
    ch::Transaction tx = ch::make_gradient_tx(ch::TxKind::kLocalGradient, 1,
                                              0, std::vector<float>{1.0F});
    // Unsigned transaction -> rejected.
    b1.transactions.push_back(tx);
    b1.seal_transactions();
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kBadSignature);
    // Signed -> accepted.
    ch::sign_transaction(b1.transactions[0], keys);
    b1.seal_transactions();
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kAccepted);
}

TEST(Chain, LatestGlobalGradientFindsNewest) {
    ch::Blockchain chain(7);
    EXPECT_FALSE(chain.latest_global_gradient().has_value());

    ch::Block b1 = child_of(chain.tip(), 1);
    b1.transactions.push_back(ch::make_gradient_tx(
        ch::TxKind::kGlobalUpdate, 0, 0, std::vector<float>{1.0F}));
    b1.seal_transactions();
    ASSERT_EQ(chain.submit(b1), ch::BlockVerdict::kAccepted);

    ch::Block b2 = child_of(chain.tip(), 2);  // no gradient in this one
    b2.seal_transactions();
    ASSERT_EQ(chain.submit(b2), ch::BlockVerdict::kAccepted);

    ch::Block b3 = child_of(chain.tip(), 3);
    b3.transactions.push_back(ch::make_gradient_tx(
        ch::TxKind::kGlobalUpdate, 0, 2, std::vector<float>{3.0F, 4.0F}));
    b3.seal_transactions();
    ASSERT_EQ(chain.submit(b3), ch::BlockVerdict::kAccepted);

    const auto gradient = chain.latest_global_gradient();
    ASSERT_TRUE(gradient.has_value());
    EXPECT_EQ(*gradient, (std::vector<float>{3.0F, 4.0F}));
}

}  // namespace
