#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "chain/storage.hpp"

namespace roundbench {

namespace chain = fairbfl::chain;

double argmax_accuracy(std::span<const float> params,
                       const fairbfl::ml::DatasetView& view,
                       std::size_t classes) {
    if (view.empty() || classes == 0) return 0.0;
    const std::size_t dim = (params.size() - classes) / classes;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < view.size(); ++i) {
        const std::span<const float> x = view.features_of(i);
        std::size_t best = 0;
        float best_logit = 0.0F;
        for (std::size_t c = 0; c < classes; ++c) {
            double dot = 0.0;
            for (std::size_t d = 0; d < dim; ++d)
                dot += static_cast<double>(params[c * dim + d]) *
                       static_cast<double>(x[d]);
            const float logit =
                params[classes * dim + c] + static_cast<float>(dot);
            if (c == 0 || logit > best_logit) {
                best = c;
                best_logit = logit;
            }
        }
        if (static_cast<std::int32_t>(best) == view.label_of(i)) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(view.size());
}

std::map<std::uint64_t, double> reward_sums(
    const fairbfl::incentive::RewardLedger& ledger) {
    std::map<std::uint64_t, double> sums;
    for (const auto& entry : ledger.history()) sums[entry.round] += entry.amount;
    return sums;
}

std::string budget_failure(const fairbfl::incentive::RewardLedger& ledger,
                           const std::vector<std::uint64_t>& rounds,
                           double base, double tolerance) {
    const auto sums = reward_sums(ledger);
    std::string failure;
    for (const std::uint64_t round : rounds) {
        const auto it = sums.find(round);
        const double sum = it == sums.end() ? 0.0 : it->second;
        if (std::abs(sum - base) <= tolerance) continue;
        char text[96];
        std::snprintf(text, sizeof text, "round %llu rewards sum to %.12g ",
                      static_cast<unsigned long long>(round), sum);
        failure += text;
    }
    return failure;
}

std::vector<float> tip_global_weights(const chain::Blockchain& chain) {
    for (const auto& tx : chain.tip().transactions)
        if (tx.kind == chain::TxKind::kGlobalUpdate)
            return chain::parse_gradient_tx(tx);
    return {};
}

std::string chain_round_trip_failure(const chain::Blockchain& chain,
                                     std::uint64_t chain_id,
                                     const fairbfl::crypto::KeyStore* keys) {
    if (!chain.validate_full_chain()) return "validate_full_chain failed";
    const chain::Bytes exported = chain::export_chain(chain);
    const auto imported = chain::import_chain(exported, chain_id, keys);
    if (!imported) return "import of the exported chain was refused";
    if (chain::export_chain(*imported) != exported)
        return "export -> import -> export changed the bytes";
    return "";
}

std::string signature_failure(const chain::Blockchain& chain,
                              std::uint64_t chain_id,
                              const fairbfl::crypto::KeyStore& keys) {
    const chain::Transaction* victim = nullptr;
    for (std::size_t h = 0; h < chain.height(); ++h) {
        for (const auto& tx : chain.at(h).transactions) {
            if (!chain::verify_transaction(tx, keys))
                return "a transaction failed to verify against the rebuilt "
                       "key store";
            if (victim == nullptr && tx.kind == chain::TxKind::kLocalGradient)
                victim = &tx;
        }
    }
    if (victim == nullptr) return "no local-gradient transaction on chain";
    chain::Bytes bytes = chain::export_chain(chain);
    const chain::Bytes encoded = victim->encode();
    const auto at = std::search(bytes.begin(), bytes.end(), encoded.begin(),
                                encoded.end());
    if (at == bytes.end()) return "gradient transaction not found in export";
    // The payload is the bulk of the encoding; its middle byte is payload.
    *(at + static_cast<std::ptrdiff_t>(encoded.size() / 2)) ^= 0x01;
    if (chain::import_chain(bytes, chain_id, &keys))
        return "a chain with a flipped gradient byte was accepted";
    return "";
}

}  // namespace roundbench
