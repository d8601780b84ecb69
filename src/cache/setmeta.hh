/**
 * @file
 * Byte-per-way set metadata and the SWAR (SIMD-within-a-register)
 * operations over it that make cache set operations constant time.
 *
 * Each cache set keeps, next to its authoritative tags and LRU
 * stamps, two derived byte arrays of one byte per way:
 *
 *  - fingerprints: 8 bits of the line's index hash per valid way,
 *    kInvalidFp for an invalid way. A lookup compares all of a set's
 *    fingerprints eight at a time and checks full tags only for the
 *    matching ways.
 *  - recency order: the set's way numbers from most to least
 *    recently used. Touching a way moves it to the front; the LRU
 *    victim is read off the back.
 *
 * Word accesses may read (and write back unchanged) up to seven bytes
 * past the end of a set, so every array holding set metadata must end
 * in kTailPad bytes of slack.
 */

#ifndef A4_CACHE_SETMETA_HH
#define A4_CACHE_SETMETA_HH

#include <bit>
#include <cstdint>
#include <cstring>

namespace a4::setmeta
{

static_assert(std::endian::native == std::endian::little,
              "set metadata words assume byte i is bits [8i, 8i+8)");

/** Fingerprint byte of an invalid way; never produced by fpOf(). */
inline constexpr std::uint8_t kInvalidFp = 0;

/** Slack bytes after the last set of a metadata array. */
inline constexpr unsigned kTailPad = 8;

/** Widest set the helpers handle (way masks are u64 bit sets). */
inline constexpr unsigned kMaxWays = 64;

/** Fingerprint of a line from its 64-bit index hash. Set indices use
 *  the hash's high bits, so the low byte is independent of them. */
inline std::uint8_t
fpOf(std::uint64_t hash)
{
    const auto fp = static_cast<std::uint8_t>(hash);
    return fp == kInvalidFp ? 1 : fp;
}

inline std::uint64_t
load(const std::uint8_t *p)
{
    std::uint64_t x;
    std::memcpy(&x, p, sizeof x);
    return x;
}

inline void
store(std::uint8_t *p, std::uint64_t x)
{
    std::memcpy(p, &x, sizeof x);
}

inline constexpr std::uint64_t kLaneLow = 0x0101010101010101ull;
inline constexpr std::uint64_t kLaneHigh = 0x8080808080808080ull;

/**
 * High bit of each byte lane of @p x that is zero, among its first
 * @p lanes lanes (all eight when lanes >= 8). Exact: the masked add
 * cannot carry across lanes.
 */
inline std::uint64_t
zeroLanes(std::uint64_t x, unsigned lanes)
{
    constexpr std::uint64_t k7f = ~kLaneHigh;
    const std::uint64_t z = ~(((x & k7f) + k7f) | x | k7f);
    return lanes >= 8 ? z : z & ((std::uint64_t(1) << (lanes * 8)) - 1);
}

/** Lanes of the word at @p p equal to @p v, among the first
 *  @p lanes; lane j of the result is bit 8j+7. */
inline std::uint64_t
eqLanes(const std::uint8_t *p, unsigned lanes, std::uint8_t v)
{
    return zeroLanes(load(p) ^ (kLaneLow * v), lanes);
}

/** First i < n with b[i] == v and bit i of @p mask set, or -1. */
inline int
firstInMask(const std::uint8_t *b, unsigned n, std::uint8_t v,
            std::uint64_t mask)
{
    for (unsigned i = 0; i < n; i += 8) {
        for (std::uint64_t z = eqLanes(b + i, n - i, v); z; z &= z - 1) {
            const unsigned w = i + unsigned(std::countr_zero(z)) / 8;
            if ((mask >> w) & 1)
                return static_cast<int>(w);
        }
    }
    return -1;
}

/** Move order[pos] to the front, shifting order[0, pos) up by one. */
inline void
moveToFront(std::uint8_t *order, unsigned pos)
{
    if (pos == 0)
        return;
    std::uint64_t carry = order[pos];
    unsigned i = 0;
    for (; i + 8 <= pos; i += 8) {
        const std::uint64_t x = load(order + i);
        store(order + i, (x << 8) | carry);
        carry = x >> 56;
    }
    // The word holding pos: bytes below it shift up, the byte at pos
    // is dropped, bytes above it are kept.
    const unsigned b = (pos - i) * 8;
    const std::uint64_t below = (std::uint64_t(1) << b) - 1;
    const std::uint64_t keep = ~((below << 8) | 0xFF);
    const std::uint64_t x = load(order + i);
    store(order + i, (x & keep) | ((x & below) << 8) | carry);
}

/** Move way @p way to the front of the n-entry recency order. */
inline void
touch(std::uint8_t *order, unsigned n, unsigned way)
{
    if (order[0] == way)
        return;
    const auto v = static_cast<std::uint8_t>(way);
    for (unsigned i = 0;; i += 8) {
        if (const std::uint64_t z = eqLanes(order + i, n - i, v)) {
            moveToFront(order, i + unsigned(std::countr_zero(z)) / 8);
            return;
        }
    }
}

/**
 * Least recently used way of the n-entry recency order inside
 * @p mask, or -1 if the mask selects none of them. Positions whose
 * way lies in [lowest, highest] set bit of the mask are found eight
 * at a time, from the back; for the contiguous masks CAT enforces the
 * first such position is the answer.
 */
inline int
lruInMask(const std::uint8_t *order, unsigned n, std::uint64_t mask)
{
    if (mask == 0)
        return -1;
    const auto lo = static_cast<unsigned>(std::countr_zero(mask));
    const auto hi = 63u - static_cast<unsigned>(std::countl_zero(mask));
    // Way numbers are < 64, so adding at most 0x80 cannot carry out
    // of a lane: lane + (0x80 - lo) has its high bit set iff lane >=
    // lo, lane + (0x7F - hi) iff lane > hi.
    const std::uint64_t ge_lo = kLaneLow * (0x80 - lo);
    const std::uint64_t gt_hi = kLaneLow * (0x7F - hi);
    for (unsigned i = (n - 1) & ~7u;; i -= 8) {
        const std::uint64_t x = load(order + i);
        std::uint64_t z = (x + ge_lo) & ~(x + gt_hi) & kLaneHigh;
        if (n - i < 8)
            z &= (std::uint64_t(1) << ((n - i) * 8)) - 1;
        while (z) {
            const unsigned top = 63u - unsigned(std::countl_zero(z));
            const unsigned w = order[i + top / 8];
            if ((mask >> w) & 1)
                return static_cast<int>(w);
            z ^= std::uint64_t(1) << top;
        }
        if (i == 0)
            return -1;
    }
}

} // namespace a4::setmeta

#endif // A4_CACHE_SETMETA_HH
