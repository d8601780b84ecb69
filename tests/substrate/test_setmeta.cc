/**
 * @file
 * The set-metadata kernels against the setmeta::ref byte loops, over
 * every set width from 1 to kMaxWays (the cache uses 2-16 MLC ways
 * and up to 31 LLC ways), every way and position, contiguous and
 * arbitrary masks, with guard bytes on both sides of the set that
 * must never be read as part of it nor changed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "cache/setmeta.hh"
#include "sim/rng.hh"

using namespace a4;

namespace
{

constexpr unsigned kLead = 16;

/** A set of @p n bytes between guard bytes of value @p guard, like a
 *  set inside a metadata array (the neighbouring sets' bytes, or the
 *  tail pad, surround it). */
struct Buffer
{
    Buffer(unsigned n_, std::uint8_t guard)
        : n(n_), bytes(kLead + n_ + setmeta::kTailPad, guard)
    {}

    std::uint8_t *set() { return bytes.data() + kLead; }

    unsigned n;
    std::vector<std::uint8_t> bytes;
};

/** A random permutation of the ways [0, n). */
void
shuffleWays(std::uint8_t *order, unsigned n, Rng &rng)
{
    for (unsigned i = 0; i < n; ++i)
        order[i] = static_cast<std::uint8_t>(i);
    for (unsigned i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
}

/** Bits [lo, hi]. */
std::uint64_t
runMask(unsigned lo, unsigned hi)
{
    return setmeta::lanesBelow(hi + 1) & ~setmeta::lanesBelow(lo);
}

} // namespace

TEST(SetMeta, FirstInMaskMatchesByteScan)
{
    Rng rng(5);
    for (unsigned n = 1; n <= setmeta::kMaxWays; ++n) {
        for (int trial = 0; trial < 100; ++trial) {
            // Guards drawn from the same alphabet would match if a
            // kernel read them as part of the set.
            Buffer b(n, static_cast<std::uint8_t>(rng.below(4)));
            for (unsigned i = 0; i < n; ++i)
                b.set()[i] = static_cast<std::uint8_t>(rng.below(4));
            const std::uint64_t lo = rng.below(n);
            const std::uint64_t masks[] = {
                ~std::uint64_t(0), rng.next(),
                runMask(unsigned(lo), unsigned(lo + rng.below(n - lo)))};
            for (unsigned v = 0; v < 4; ++v) {
                const auto fp = static_cast<std::uint8_t>(v);
                const std::uint64_t want = setmeta::ref::eqMask(b.set(), n, fp);
                ASSERT_EQ(setmeta::eqMask(b.set(), n, fp), want)
                    << "n=" << n << " v=" << v;
                for (const std::uint64_t mask : masks) {
                    const std::uint64_t z = want & mask;
                    ASSERT_EQ(setmeta::firstInMask(b.set(), n, fp, mask),
                              z ? std::countr_zero(z) : -1)
                        << "n=" << n << " v=" << v << " mask=" << mask;
                }
            }
        }
    }
}

TEST(SetMeta, MoveToFrontMatchesReferenceAtEveryPosition)
{
    Rng rng(6);
    for (unsigned n = 1; n <= setmeta::kMaxWays; ++n) {
        for (unsigned pos = 0; pos < n; ++pos) {
            Buffer b(n, 0xA5);
            shuffleWays(b.set(), n, rng);
            Buffer want = b;
            setmeta::moveToFront(b.set(), pos);
            setmeta::ref::moveToFront(want.set(), pos);
            ASSERT_EQ(b.bytes, want.bytes) << "n=" << n << " pos=" << pos;
        }
    }
}

TEST(SetMeta, TouchAndLruMatchListReference)
{
    // Shuffled rounds that touch every way, against a list model. The
    // LRU way of a contiguous (what CAT allows) and an arbitrary mask
    // is read after each touch, and of every contiguous mask, the
    // empty one and ones reaching past the set after each round.
    Rng rng(7);
    for (unsigned n = 1; n <= setmeta::kMaxWays; ++n) {
        // A guard byte inside the way range would be found by the
        // position search, or pass the range test, if a kernel read
        // it as part of the set.
        Buffer b(n, static_cast<std::uint8_t>(rng.below(n)));
        std::vector<std::uint8_t> list(n);
        for (unsigned i = 0; i < n; ++i)
            b.set()[i] = list[i] = static_cast<std::uint8_t>(i);
        Buffer want = b;
        auto lruMatches = [&](std::uint64_t mask) {
            ASSERT_EQ(setmeta::lruInMask(b.set(), n, mask),
                      setmeta::ref::lruInMask(list.data(), n, mask))
                << "n=" << n << " mask=" << mask;
        };
        std::vector<unsigned> ways(n);
        for (unsigned w = 0; w < n; ++w)
            ways[w] = w;
        for (int round = 0; round < 3; ++round) {
            for (unsigned i = n; i > 1; --i)
                std::swap(ways[i - 1], ways[rng.below(i)]);
            for (const unsigned way : ways) {
                setmeta::touch(b.set(), n, way);
                list.erase(std::find(list.begin(), list.end(), way));
                list.insert(list.begin(), static_cast<std::uint8_t>(way));
                std::copy(list.begin(), list.end(), want.set());
                ASSERT_EQ(b.bytes, want.bytes) << "n=" << n << " way=" << way;

                const auto lo = static_cast<unsigned>(rng.below(n));
                lruMatches(runMask(lo, lo + unsigned(rng.below(n - lo))));
                lruMatches(rng.next());
            }
            for (unsigned lo = 0; lo < n; ++lo) {
                for (unsigned hi = lo; hi < n; ++hi)
                    lruMatches(runMask(lo, hi));
            }
            lruMatches(0);
            lruMatches(~setmeta::lanesBelow(n));
            lruMatches(~std::uint64_t(0));
        }
    }
}

TEST(SetMeta, FindTagMatchesFullTagScan)
{
    // The cache's packing: a valid bit above the line address.
    constexpr std::uint64_t kValid = std::uint64_t(1) << 58;
    constexpr std::uint64_t kMatch = (kValid - 1) | kValid;
    constexpr std::uint64_t kDirty = std::uint64_t(1) << 59;
    Rng rng(9);
    for (unsigned n = 1; n <= setmeta::kMaxWays; ++n) {
        for (int trial = 0; trial < 50; ++trial) {
            std::vector<std::uint64_t> tags(n, 0);
            Buffer fps(n, 1);
            // Three fingerprint values over up to 64 distinct lines:
            // most lookups meet colliding fingerprints.
            auto fpOf = [](std::uint64_t line) {
                return static_cast<std::uint8_t>(1 + line % 3);
            };
            std::vector<std::uint64_t> lines;
            for (unsigned w = 0; w < n; ++w) {
                const std::uint64_t line = w * 7 + rng.below(7);
                lines.push_back(line);
                if (rng.chance(0.8)) {
                    tags[w] = line | kValid | (rng.chance(0.5) ? kDirty : 0);
                    fps.set()[w] = fpOf(line);
                } else {
                    fps.set()[w] = setmeta::kInvalidFp;
                }
            }
            lines.push_back(0); // must not match an invalid way's zero tag
            lines.push_back(n * 7 + 1); // never present
            for (const std::uint64_t line : lines) {
                int want = -1;
                for (unsigned w = 0; w < n && want < 0; ++w) {
                    if ((tags[w] & kMatch) == (line | kValid))
                        want = static_cast<int>(w);
                }
                ASSERT_EQ(setmeta::findTag(tags.data(), fps.set(), n,
                                           fpOf(line), line | kValid,
                                           kMatch),
                          want)
                    << "n=" << n << " line=" << line;
            }
        }
    }
}

TEST(SetMeta, FingerprintNeverReadsInvalid)
{
    for (std::uint64_t low = 0; low < 256; ++low)
        EXPECT_NE(setmeta::fpOf(0x123456789ABCDE00ull | low),
                  setmeta::kInvalidFp);
}
