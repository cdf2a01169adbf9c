/**
 * @file
 * Minimal XXH64 with seed 0, the artifact store's payload
 * checksum. Self-contained like sha256.hh. It reads four 64-bit
 * lanes per 32-byte stripe, so checksumming a trace costs a small
 * fraction of writing it. It detects torn and corrupted files; it is
 * not a security boundary.
 */

#ifndef PREDILP_STORE_XXH64_HH
#define PREDILP_STORE_XXH64_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace predilp
{

/**
 * Incremental XXH64. Absorbing a byte string in any number of
 * update() calls gives the same digest as one call over all of it.
 */
class Xxh64
{
  public:
    Xxh64();

    /** Absorb @p len bytes at @p data. */
    void update(const void *data, std::size_t len);

    /** The digest of everything absorbed so far. */
    std::uint64_t digest() const;

  private:
    std::array<std::uint64_t, 4> lanes_;
    /** Bytes of the current, not yet complete 32-byte stripe. */
    std::array<std::uint8_t, 32> stripe_;
    std::size_t stripeLen_ = 0;
    std::uint64_t totalBytes_ = 0;
};

/** One-shot convenience: XXH64 of @p len bytes at @p data. */
std::uint64_t xxh64(const void *data, std::size_t len);

} // namespace predilp

#endif // PREDILP_STORE_XXH64_HH
