/**
 * @file
 * The SWAR set-metadata helpers against plain byte-loop references,
 * over every set width from 1 to 40 ways (the cache uses 2-16 MLC
 * ways and up to 31 LLC ways), with neighbouring bytes that must
 * never be read as part of the set nor changed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/setmeta.hh"
#include "sim/rng.hh"

using namespace a4;

namespace
{

constexpr std::uint8_t kGuard = 0xA5;

/** A set of @p n bytes between guard bytes, like a set inside a
 *  metadata array (the next set's bytes, or the tail pad, follow). */
struct Buffer
{
    explicit Buffer(unsigned n_) : n(n_), bytes(n_ + setmeta::kTailPad, kGuard)
    {}

    std::uint8_t *set() { return bytes.data(); }

    bool
    guardsIntact() const
    {
        return std::all_of(bytes.begin() + n, bytes.end(),
                           [](std::uint8_t b) { return b == kGuard; });
    }

    unsigned n;
    std::vector<std::uint8_t> bytes;
};

} // namespace

TEST(SetMeta, FirstInMaskMatchesByteScan)
{
    Rng rng(5);
    for (unsigned n = 1; n <= 40; ++n) {
        for (int trial = 0; trial < 200; ++trial) {
            Buffer b(n);
            for (unsigned i = 0; i < n; ++i)
                b.set()[i] = static_cast<std::uint8_t>(rng.below(4));
            const std::uint8_t v = static_cast<std::uint8_t>(rng.below(4));
            const std::uint64_t mask = rng.next();
            int want = -1;
            for (unsigned i = 0; i < n && want < 0; ++i) {
                if (b.set()[i] == v && ((mask >> i) & 1))
                    want = static_cast<int>(i);
            }
            ASSERT_EQ(setmeta::firstInMask(b.set(), n, v, mask), want)
                << "n=" << n;
        }
    }
}

TEST(SetMeta, TouchAndLruMatchListReference)
{
    Rng rng(6);
    for (unsigned n = 1; n <= 40; ++n) {
        Buffer b(n);
        std::vector<std::uint8_t> ref(n);
        for (unsigned i = 0; i < n; ++i)
            b.set()[i] = ref[i] = static_cast<std::uint8_t>(i);
        for (int op = 0; op < 400; ++op) {
            const auto way = static_cast<unsigned>(rng.below(n));
            setmeta::touch(b.set(), n, way);
            ref.erase(std::find(ref.begin(), ref.end(), way));
            ref.insert(ref.begin(), static_cast<std::uint8_t>(way));
            ASSERT_TRUE(std::equal(ref.begin(), ref.end(), b.set()))
                << "n=" << n << " op=" << op;
            ASSERT_TRUE(b.guardsIntact()) << "n=" << n;

            // Contiguous masks (what CAT allows) and arbitrary ones.
            const auto lo = static_cast<unsigned>(rng.below(n));
            const auto hi = lo + static_cast<unsigned>(rng.below(n - lo));
            const std::uint64_t run =
                ((hi - lo == 63) ? ~std::uint64_t(0)
                                 : ((std::uint64_t(1) << (hi - lo + 1)) - 1))
                << lo;
            for (const std::uint64_t mask : {run, rng.next()}) {
                int want = -1;
                for (unsigned i = n; i-- > 0 && want < 0;) {
                    if ((mask >> ref[i]) & 1)
                        want = ref[i];
                }
                ASSERT_EQ(setmeta::lruInMask(b.set(), n, mask), want)
                    << "n=" << n << " mask=" << mask;
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
