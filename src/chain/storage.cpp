#include "chain/storage.hpp"

#include <fstream>

namespace fairbfl::chain {

namespace {
constexpr std::uint32_t kMagic = 0xFA1BB7C1;
constexpr std::uint32_t kVersion = 1;
}  // namespace

Bytes export_chain(const Blockchain& chain) {
    ByteWriter writer;
    writer.u32(kMagic);
    writer.u32(kVersion);
    writer.u32(static_cast<std::uint32_t>(chain.height()));
    for (std::size_t h = 0; h < chain.height(); ++h)
        writer.raw(chain.at(h).encode());
    return writer.take();
}

std::vector<Block> parse_chain(std::span<const std::uint8_t> data) {
    ByteReader reader(data);
    if (reader.u32() != kMagic)
        throw std::runtime_error("parse_chain: bad magic");
    if (reader.u32() != kVersion)
        throw std::runtime_error("parse_chain: unsupported version");
    const std::uint32_t count = reader.u32();
    std::vector<Block> blocks;
    blocks.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
        blocks.push_back(Block::decode(reader));
    if (!reader.exhausted())
        throw std::runtime_error("parse_chain: trailing bytes");
    return blocks;
}

std::optional<Blockchain> import_chain(std::span<const std::uint8_t> data,
                                       std::uint64_t chain_id,
                                       const crypto::KeyStore* keys,
                                       bool check_pow) {
    std::vector<Block> blocks;
    try {
        blocks = parse_chain(data);
    } catch (const std::exception&) {
        return std::nullopt;
    }
    if (blocks.empty()) return std::nullopt;

    Blockchain chain(chain_id, keys);
    chain.set_check_pow(check_pow);
    // The exported genesis must equal the deterministic genesis for the id.
    if (!(blocks.front() == chain.genesis())) return std::nullopt;
    for (std::size_t i = 1; i < blocks.size(); ++i) {
        const BlockVerdict verdict = chain.submit(std::move(blocks[i]));
        if (verdict != BlockVerdict::kAccepted) return std::nullopt;
    }
    return chain;
}

bool save_chain(const Blockchain& chain, const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return false;
    const Bytes bytes = export_chain(chain);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

std::optional<Blockchain> load_chain(const std::string& path,
                                     std::uint64_t chain_id,
                                     const crypto::KeyStore* keys,
                                     bool check_pow) {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) return std::nullopt;
    Bytes bytes((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
    return import_chain(bytes, chain_id, keys, check_pow);
}

}  // namespace fairbfl::chain
