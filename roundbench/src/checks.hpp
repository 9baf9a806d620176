#pragma once
// Output checks made apart from the program: an argmax written here, a
// ledger sum taken here, a chain round trip through the public storage
// API.  Each check returns its failure as text (empty = passed), so a
// workload can count a round as failed and say why.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "chain/chain.hpp"
#include "crypto/keystore.hpp"
#include "incentive/reward.hpp"
#include "ml/dataset.hpp"

namespace roundbench {

/// Share of `view` whose label is the argmax of the multinomial logistic
/// model `params` (row-major W of classes x dim, then b of classes).
/// Written without ml::Model so it can check ml::Model::accuracy.
[[nodiscard]] double argmax_accuracy(std::span<const float> params,
                                     const fairbfl::ml::DatasetView& view,
                                     std::size_t classes);

/// Sum of the ledger's reward entries per round.
[[nodiscard]] std::map<std::uint64_t, double> reward_sums(
    const fairbfl::incentive::RewardLedger& ledger);

/// Failure text naming every round among `rounds` whose entries do not
/// sum to `base` within `tolerance`; a round with no entry sums to 0.
[[nodiscard]] std::string budget_failure(
    const fairbfl::incentive::RewardLedger& ledger,
    const std::vector<std::uint64_t>& rounds, double base,
    double tolerance = 1e-9);

/// The weights in the tip block's global-update transaction (empty when
/// the tip carries none).
[[nodiscard]] std::vector<float> tip_global_weights(
    const fairbfl::chain::Blockchain& chain);

/// validate_full_chain(), then export -> import -> export must give the
/// same bytes; the import re-validates every block (and every signature
/// when `keys` is given).
[[nodiscard]] std::string chain_round_trip_failure(
    const fairbfl::chain::Blockchain& chain, std::uint64_t chain_id,
    const fairbfl::crypto::KeyStore* keys);

/// Every transaction of every block verifies against `keys`, and a copy
/// of the exported chain with one payload byte of a local-gradient
/// transaction flipped is refused by import.
[[nodiscard]] std::string signature_failure(
    const fairbfl::chain::Blockchain& chain, std::uint64_t chain_id,
    const fairbfl::crypto::KeyStore& keys);

}  // namespace roundbench
