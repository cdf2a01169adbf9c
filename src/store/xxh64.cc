#include "store/xxh64.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace predilp
{

namespace
{

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

/** Little-endian load, as the XXH64 spec reads its input. */
inline std::uint64_t
read64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

inline std::uint32_t
read32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap32(v);
    return v;
}

inline std::uint64_t
round(std::uint64_t acc, std::uint64_t input)
{
    acc += input * kPrime2;
    acc = std::rotl(acc, 31);
    return acc * kPrime1;
}

inline std::uint64_t
mergeRound(std::uint64_t acc, std::uint64_t lane)
{
    acc ^= round(0, lane);
    return acc * kPrime1 + kPrime4;
}

/** Fold one full 32-byte stripe into the four lanes. */
inline void
consumeStripe(std::array<std::uint64_t, 4> &lanes,
              const std::uint8_t *p)
{
    lanes[0] = round(lanes[0], read64(p));
    lanes[1] = round(lanes[1], read64(p + 8));
    lanes[2] = round(lanes[2], read64(p + 16));
    lanes[3] = round(lanes[3], read64(p + 24));
}

} // namespace

Xxh64::Xxh64()
    : lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1}
{}

void
Xxh64::update(const void *data, std::size_t len)
{
    // An empty span may carry a null pointer (an empty vector's
    // data(), such as a chunk with no memory addresses), which
    // memcpy must not see even with a zero length.
    if (len == 0)
        return;
    const auto *p = static_cast<const std::uint8_t *>(data);
    const std::uint8_t *end = p + len;
    totalBytes_ += len;
    if (stripeLen_ > 0) {
        const std::size_t take =
            std::min(len, stripe_.size() - stripeLen_);
        std::memcpy(stripe_.data() + stripeLen_, p, take);
        stripeLen_ += take;
        p += take;
        if (stripeLen_ < stripe_.size())
            return;
        consumeStripe(lanes_, stripe_.data());
        stripeLen_ = 0;
    }
    // Whole stripes straight from the caller's bytes, four
    // independent lanes per step.
    std::array<std::uint64_t, 4> lanes = lanes_;
    for (; end - p >= 32; p += 32)
        consumeStripe(lanes, p);
    lanes_ = lanes;
    stripeLen_ = static_cast<std::size_t>(end - p);
    std::memcpy(stripe_.data(), p, stripeLen_);
}

std::uint64_t
Xxh64::digest() const
{
    std::uint64_t h;
    if (totalBytes_ >= 32) {
        h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
            std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
        for (std::uint64_t lane : lanes_)
            h = mergeRound(h, lane);
    } else {
        h = kPrime5;
    }
    h += totalBytes_;

    const std::uint8_t *p = stripe_.data();
    const std::uint8_t *end = p + stripeLen_;
    for (; end - p >= 8; p += 8) {
        h ^= round(0, read64(p));
        h = std::rotl(h, 27) * kPrime1 + kPrime4;
    }
    if (end - p >= 4) {
        h ^= std::uint64_t{read32(p)} * kPrime1;
        h = std::rotl(h, 23) * kPrime2 + kPrime3;
        p += 4;
    }
    for (; p < end; ++p) {
        h ^= *p * kPrime5;
        h = std::rotl(h, 11) * kPrime1;
    }

    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

std::uint64_t
xxh64(const void *data, std::size_t len)
{
    Xxh64 hasher;
    hasher.update(data, len);
    return hasher.digest();
}

} // namespace predilp
