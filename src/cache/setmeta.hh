/**
 * @file
 * Byte-per-way set metadata and the 16-lane vector operations over it
 * that make cache set operations constant time.
 *
 * Each cache set keeps, next to its authoritative tags and LRU
 * stamps, two derived byte arrays of one byte per way:
 *
 *  - fingerprints: 8 bits of the line's index hash per valid way,
 *    kInvalidFp for an invalid way. A lookup compares all of a set's
 *    fingerprints with one SSE2 byte compare per 16 ways and checks
 *    full tags only for the matching ways.
 *  - recency order: the set's way numbers from most to least
 *    recently used. Touching a way moves it to the front with one
 *    byte shift and blend per 16 ways; the LRU victim is read off the
 *    back.
 *
 * Ways are processed in 16-lane chunks, so the 11-way LLC and 16-way
 * MLC sets are one chunk each and sets up to kMaxWays still work. A
 * chunk load may read up to 15 bytes past the last of n bytes, and
 * moveToFront() writes such bytes back unchanged, so each array the
 * kernels run on must be followed by kTailPad readable bytes. The
 * cache meets that by giving each array lanesFor(ways) bytes: whole
 * chunks, so no access leaves the set's own array.
 *
 * setmeta::ref holds plain byte-loop versions of the same operations:
 * they are the build's kernels where SSE2 is unavailable, and the
 * oracle the vector kernels are tested against.
 */

#ifndef A4_CACHE_SETMETA_HH
#define A4_CACHE_SETMETA_HH

#include <bit>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace a4::setmeta
{

/** Fingerprint byte of an invalid way; never produced by fpOf(). */
inline constexpr std::uint8_t kInvalidFp = 0;

/** Readable bytes the kernels need after the last of n bytes. */
inline constexpr unsigned kTailPad = 16;

/** Widest set the operations handle (way masks are u64 bit sets). */
inline constexpr unsigned kMaxWays = 64;

/** Bytes each of a set's two arrays spans inside a metadata array:
 *  the way count rounded up to whole chunks, so that a set's chunk
 *  accesses stay inside that array. */
inline constexpr unsigned
lanesFor(unsigned ways)
{
    return (ways + 15) & ~15u;
}

/** Fingerprint of a line from its 64-bit index hash. Set indices use
 *  the hash's high bits, so the low byte is independent of them. */
inline std::uint8_t
fpOf(std::uint64_t hash)
{
    const auto fp = static_cast<std::uint8_t>(hash);
    return fp == kInvalidFp ? 1 : fp;
}

/** Bits [0, n) set. */
inline std::uint64_t
lanesBelow(unsigned n)
{
    return n >= 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << n) - 1;
}

/** Byte-loop references: the fallback kernels and the test oracle. */
namespace ref
{

/** Bit i set for each i < n with b[i] == v. */
inline std::uint64_t
eqMask(const std::uint8_t *b, unsigned n, std::uint8_t v)
{
    std::uint64_t m = 0;
    for (unsigned i = 0; i < n; ++i) {
        if (b[i] == v)
            m |= std::uint64_t(1) << i;
    }
    return m;
}

/** Move order[pos] to the front, shifting order[0, pos) up by one. */
inline void
moveToFront(std::uint8_t *order, unsigned pos)
{
    const std::uint8_t w = order[pos];
    std::memmove(order + 1, order, pos);
    order[0] = w;
}

/** Last way of the n-entry recency order inside @p mask, or -1. */
inline int
lruInMask(const std::uint8_t *order, unsigned n, std::uint64_t mask)
{
    for (unsigned i = n; i-- > 0;) {
        if ((mask >> order[i]) & 1)
            return order[i];
    }
    return -1;
}

} // namespace ref

#if defined(__SSE2__)

/** Lane mask of the bytes of chunk @p p equal to @p needle's. */
inline unsigned
chunkEq(const std::uint8_t *p, __m128i needle)
{
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    return unsigned(_mm_movemask_epi8(_mm_cmpeq_epi8(x, needle)));
}

/** Bit i set for each i < n with b[i] == v; one compare per chunk. */
inline std::uint64_t
eqMask(const std::uint8_t *b, unsigned n, std::uint8_t v)
{
    const __m128i needle = _mm_set1_epi8(static_cast<char>(v));
    if (n <= 16)
        return chunkEq(b, needle) & ((1u << n) - 1);
    std::uint64_t m = chunkEq(b, needle);
    for (unsigned i = 16; i < n; i += 16)
        m |= std::uint64_t(chunkEq(b + i, needle)) << i;
    return m & lanesBelow(n);
}

/** Move order[pos] to the front, shifting order[0, pos) up by one.
 *  Each chunk shifts up a lane; the chunk holding pos keeps its
 *  lanes above pos. */
inline void
moveToFront(std::uint8_t *order, unsigned pos)
{
    unsigned carry = order[pos];
    unsigned i = 0;
    for (; i + 16 <= pos; i += 16) {
        auto *p = reinterpret_cast<__m128i *>(order + i);
        const __m128i x = _mm_loadu_si128(p);
        const unsigned out = order[i + 15];
        _mm_storeu_si128(p, _mm_or_si128(_mm_slli_si128(x, 1),
                                         _mm_cvtsi32_si128(int(carry))));
        carry = out;
    }
    const __m128i lane = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                       11, 12, 13, 14, 15);
    auto *p = reinterpret_cast<__m128i *>(order + i);
    const __m128i x = _mm_loadu_si128(p);
    const __m128i moved =
        _mm_or_si128(_mm_slli_si128(x, 1), _mm_cvtsi32_si128(int(carry)));
    const __m128i upto =
        _mm_cmplt_epi8(lane, _mm_set1_epi8(static_cast<char>(pos - i + 1)));
    _mm_storeu_si128(p, _mm_or_si128(_mm_and_si128(upto, moved),
                                     _mm_andnot_si128(upto, x)));
}

/**
 * Least recently used way of the n-entry recency order inside
 * @p mask, or -1 if the mask selects none of them. Positions whose
 * way lies in [lowest, highest] set bit of the mask are found one
 * chunk at a time, from the back; for the contiguous masks CAT
 * enforces the first such position is the answer.
 */
inline int
lruInMask(const std::uint8_t *order, unsigned n, std::uint64_t mask)
{
    if (mask == 0)
        return -1;
    // Way numbers are < 64, so they compare correctly as signed bytes.
    const int lo = std::countr_zero(mask);
    const int hi = 63 - std::countl_zero(mask);
    const __m128i above = _mm_set1_epi8(static_cast<char>(lo - 1));
    const __m128i below = _mm_set1_epi8(static_cast<char>(hi + 1));
    // The back chunk's live lanes, then whole chunks.
    unsigned live = (2u << ((n - 1) & 15)) - 1;
    for (unsigned i = (n - 1) & ~15u;; i -= 16, live = 0xFFFF) {
        const __m128i x =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(order + i));
        unsigned z = unsigned(_mm_movemask_epi8(_mm_and_si128(
                         _mm_cmpgt_epi8(x, above), _mm_cmplt_epi8(x, below)))) &
                     live;
        while (z) {
            const unsigned top = 31u - unsigned(std::countl_zero(z));
            const unsigned w = order[i + top];
            if ((mask >> w) & 1)
                return static_cast<int>(w);
            z ^= 1u << top;
        }
        if (i == 0)
            return -1;
    }
}

#else

using ref::eqMask;
using ref::lruInMask;
using ref::moveToFront;

#endif

/** First i < n with b[i] == v and bit i of @p mask set, or -1. */
inline int
firstInMask(const std::uint8_t *b, unsigned n, std::uint8_t v,
            std::uint64_t mask)
{
    const std::uint64_t z = eqMask(b, n, v) & mask;
    return z ? std::countr_zero(z) : -1;
}

/** Move way @p way to the front of the n-entry recency order.
 *  @pre way is in order[0, n). */
inline void
touch(std::uint8_t *order, unsigned n, unsigned way)
{
    // Re-touching the front way, the commonest hit, stores nothing.
    if (order[0] == way)
        return;
    moveToFront(order, unsigned(std::countr_zero(
                           eqMask(order, n, static_cast<std::uint8_t>(way)))));
}

/**
 * Way of an n-way set whose tag matches: the first way with
 * fingerprint @p fp among @p fps whose tags[w] & @p match_mask equals
 * @p want, or -1. Only fingerprint-matching ways' tags are read.
 */
inline int
findTag(const std::uint64_t *tags, const std::uint8_t *fps, unsigned n,
        std::uint8_t fp, std::uint64_t want, std::uint64_t match_mask)
{
    for (std::uint64_t z = eqMask(fps, n, fp); z; z &= z - 1) {
        const int w = std::countr_zero(z);
        if ((tags[w] & match_mask) == want)
            return w;
    }
    return -1;
}

} // namespace a4::setmeta

#endif // A4_CACHE_SETMETA_HH
