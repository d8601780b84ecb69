/**
 * @file
 * Byte-exact pin of the cache hierarchy's evolution: a seeded mix of
 * every operation the hierarchy serves is driven through six
 * geometries (LRU and SRRIP LLCs, 4-, 8- and 16-way MLCs), and the
 * FNV-1a-64 digest of the saveState() image is compared against
 * values recorded before the set-metadata fast path existed. Any
 * change to victim choice, tie-breaking, flag handling or counter
 * attribution moves a digest.
 *
 * Alongside the pin:
 *  - the structural audit (including the derived fingerprint and
 *    recency metadata) is clean after every operation batch;
 *  - restore -> save reproduces the image byte for byte;
 *  - a hierarchy restored mid-run and continued with the same
 *    operation stream ends in exactly the uninterrupted run's state.
 */

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <memory>
#include <string>

#include "cache/hierarchy.hh"
#include "mem/dram.hh"
#include "net/frame.hh"
#include "rdt/cat.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"

using namespace a4;

namespace
{

struct DigestCase
{
    LlcReplacement replacement;
    unsigned mlc_ways;
    std::uint64_t seed;
    std::uint64_t digest_mid; ///< image after the first half
    std::uint64_t digest_end; ///< image after the whole stream
};

constexpr unsigned kCores = 4;
constexpr unsigned kHalfOps = 6000;
constexpr unsigned kBatch = 250;

constexpr Addr kPrivateBase = 0x1000000; ///< per-core regions, 16 MiB apart
constexpr Addr kIoBase = 0x9000000;      ///< DMA buffers (workload 9)
constexpr WorkloadId kIoWl = 9;

/** One hierarchy with the CLOS layout every case shares. */
struct Rig
{
    explicit Rig(const DigestCase &dc) : cat(11, kCores)
    {
        CacheGeometry g;
        g.num_cores = kCores;
        g.llc_ways = 11;
        g.llc_sets = 64;
        g.mlc_ways = dc.mlc_ways;
        g.mlc_sets = 8;
        g.replacement = dc.replacement;
        cache = std::make_unique<CacheSystem>(g, CacheLatencies{}, dram,
                                              cat);
        // CLOS 1 overlaps the DCA ways, CLOS 2 the inclusive ways,
        // CLOS 3 sits between them; core 3 keeps the full mask.
        cat.setClosMask(1, CatController::makeMask(0, 3));
        cat.setClosMask(2, CatController::makeMask(7, 10));
        cat.setClosMask(3, CatController::makeMask(3, 6));
        cat.assignCore(0, 1);
        cat.assignCore(1, 2);
        cat.assignCore(2, 3);
    }

    std::string
    image() const
    {
        Serializer s;
        cache->saveState(s);
        return s.data();
    }

    Dram dram;
    CatController cat;
    std::unique_ptr<CacheSystem> cache;
};

/**
 * Drive @p ops operations drawn from @p rng starting at tick @p t0,
 * auditing after every batch. Core reads and writes hit each core's
 * private region; cores 0 and 1 also consume (and overwrite) the DMA
 * buffers, which the device writes with and without allocation and
 * reads back for egress.
 */
void
drive(Rig &r, Rng &rng, Tick t0, unsigned ops)
{
    static constexpr std::array<CoreId, 2> kConsumers = {0, 1};
    static constexpr std::array<CoreId, 3> kEgressCores = {0, 1, 2};
    for (unsigned i = 0; i < ops; ++i) {
        const Tick now = t0 + i;
        const auto core = static_cast<CoreId>(rng.below(kCores));
        const Addr priv = kPrivateBase + Addr(core) * 0x1000000 +
                          rng.below(2048) * kLineBytes;
        const Addr io = kIoBase + rng.below(1024) * kLineBytes;
        switch (rng.below(10)) {
          case 0:
          case 1:
          case 2:
            r.cache->coreRead(now, core, priv, 1 + core);
            break;
          case 3:
            r.cache->coreWrite(now, core, priv, 1 + core);
            break;
          case 4:
            r.cache->coreRead(now, core & 1, io, kIoWl);
            break;
          case 5:
            r.cache->coreWrite(now, core & 1, io, kIoWl);
            break;
          case 6:
          case 7:
            r.cache->dmaWriteLine(now, io, kIoWl, kConsumers, true);
            break;
          case 8:
            r.cache->dmaWriteLine(now, io, kIoWl, kConsumers, false);
            break;
          case 9:
            r.cache->dmaReadLine(now, io, kIoWl, kEgressCores);
            break;
        }
        if ((i + 1) % kBatch == 0) {
            ASSERT_EQ(r.cache->auditInvariants(), 0u)
                << "after op " << t0 + i;
        }
    }
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

class CacheDigest : public ::testing::TestWithParam<DigestCase>
{};

} // namespace

TEST_P(CacheDigest, ImageMatchesPinnedDigestAndSurvivesRestore)
{
    const DigestCase &dc = GetParam();
    Rig run(dc);
    Rng rng(dc.seed);
    drive(run, rng, 0, kHalfOps);
    const std::string mid = run.image();
    EXPECT_EQ(hex(fnv1a64(mid)), hex(dc.digest_mid));

    // Restore into a fresh hierarchy: the image round-trips exactly
    // and the rebuilt metadata passes the audit.
    Rig restored(dc);
    Deserializer d(mid);
    restored.cache->restoreState(d);
    EXPECT_TRUE(d.atEnd());
    EXPECT_TRUE(restored.image() == mid) << "restore -> save moved bytes";
    EXPECT_EQ(restored.cache->auditInvariants(), 0u);

    // Continue both with the same operation stream.
    Rng rng_restored = rng;
    drive(run, rng, kHalfOps, kHalfOps);
    drive(restored, rng_restored, kHalfOps, kHalfOps);
    const std::string end = run.image();
    EXPECT_TRUE(restored.image() == end)
        << "the restored run diverged from the uninterrupted one";
    EXPECT_EQ(hex(fnv1a64(end)), hex(dc.digest_end));

    // The stream reaches every placement path the digest stands for.
    const WorkloadCounters &io = run.cache->wlConst(kIoWl);
    EXPECT_GT(io.dma_write_alloc.value(), 0u);
    EXPECT_GT(io.dma_write_update.value(), 0u);
    EXPECT_GT(io.dma_nonalloc.value(), 0u);
    EXPECT_GT(io.dma_leaked.value(), 0u);
    EXPECT_GT(io.migrated_inclusive.value(), 0u);
    EXPECT_GT(io.bloat_inserts.value(), 0u);
    EXPECT_GT(run.cache->wlConst(1).llc_hit.value(), 0u);
    EXPECT_GT(run.cache->global().egress_inclusive_alloc.value(), 0u);
    EXPECT_GT(run.cache->global().llc_writebacks.value(), 0u);
    EXPECT_GT(run.cache->global().inclusive_evictions.value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ReplacementAndMlcWays, CacheDigest,
    ::testing::Values(
        DigestCase{LlcReplacement::Lru, 4, 11,
                   0x08dce80c830e1176ull, 0x2485d9248d1f1a8dull},
        DigestCase{LlcReplacement::Lru, 8, 12,
                   0x276a7215119b8460ull, 0xa5362baaa6bf1bf0ull},
        DigestCase{LlcReplacement::Lru, 16, 13,
                   0x5e46b7aa5939bbb3ull, 0xecaf363dcf7d6c79ull},
        DigestCase{LlcReplacement::Srrip, 4, 21,
                   0x979787a379ab8c17ull, 0x2df18b908069cd99ull},
        DigestCase{LlcReplacement::Srrip, 8, 22,
                   0x7d034ebb706182efull, 0x3315859736fe23b9ull},
        DigestCase{LlcReplacement::Srrip, 16, 23,
                   0x6c5daeb6f86fab41ull, 0x8ab74598fd584b60ull}),
    [](const ::testing::TestParamInfo<DigestCase> &info) {
        const DigestCase &c = info.param;
        return std::string(c.replacement == LlcReplacement::Lru
                               ? "lru"
                               : "srrip") +
               "_mlcw" + std::to_string(c.mlc_ways);
    });
