#include "cache/hierarchy.hh"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <new>

#include "sim/log.hh"

namespace a4
{

void *
mapZeroedPages(std::size_t bytes)
{
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

void
unmapPages(void *p, std::size_t bytes) noexcept
{
    ::munmap(p, bytes);
}

CacheSystem::CacheSystem(const CacheGeometry &g, const CacheLatencies &l,
                         Dram &dram_, CatController &cat_)
    : geom(g), lat(l), dram(dram_), cat(cat_),
      llc_lanes(setmeta::lanesFor(g.llc_ways)),
      mlc_lanes(setmeta::lanesFor(g.mlc_ways))
{
    if (geom.dca_ways + geom.inclusive_ways > geom.llc_ways)
        fatal("CacheSystem: DCA + inclusive ways exceed associativity");
    if (cat.numWays() != geom.llc_ways)
        fatal("CacheSystem: CAT way count disagrees with geometry");
    if (geom.mlc_ways == 0 || geom.mlc_ways > setmeta::kMaxWays)
        fatal(sformat("CacheSystem: MLC associativity must be 1..%u",
                      setmeta::kMaxWays));

    dca_mask = CatController::makeMask(0, geom.dca_ways - 1);
    inclusive_mask = CatController::makeMask(geom.firstInclusiveWay(),
                                             geom.llc_ways - 1);

    const std::size_t llc_n = std::size_t(geom.llc_sets) * geom.llc_ways;
    llc_tags.resize(llc_n);
    llc_lru.resize(llc_n);
    llc_owner.resize(llc_n);
    llc_mlc_core.resize(llc_n);
    llc_tick.resize(geom.llc_sets);

    const std::size_t mlc_n =
        std::size_t(geom.num_cores) * geom.mlc_sets * geom.mlc_ways;
    mlc_tags.resize(mlc_n);
    mlc_lru.resize(mlc_n);
    mlc_owner.resize(mlc_n);
    mlc_tick.resize(std::size_t(geom.num_cores) * geom.mlc_sets);

    initMetadata();
    wl_stats.resize(16);
}

// --- derived set metadata ----------------------------------------------------

namespace
{

/** Identity recency order and all-invalid fingerprints for @p sets
 *  sets of @p ways ways, each array spanning @p lanes bytes. */
void
initSets(WayArray<std::uint8_t> &meta, std::size_t sets, unsigned ways,
         unsigned lanes)
{
    meta.assign(sets * 2 * lanes, setmeta::kInvalidFp);
    for (std::size_t s = 0; s < sets; ++s) {
        std::uint8_t *order = &meta[(2 * s + 1) * lanes];
        for (unsigned w = 0; w < ways; ++w)
            order[w] = static_cast<std::uint8_t>(w);
    }
}

/**
 * Recency order of one set from its stamps: valid ways by descending
 * stamp, equal stamps with the higher way first — so the back of the
 * order is the way the minimum-stamp scan (lowest way on ties) would
 * pick — then the invalid ways, whose position never decides a
 * victim.
 */
void
orderByStamps(std::uint8_t *order, const std::uint64_t *tags,
              const std::uint32_t *stamps, unsigned ways,
              std::uint64_t valid_bit)
{
    for (unsigned w = 0; w < ways; ++w)
        order[w] = static_cast<std::uint8_t>(w);
    std::sort(order, order + ways, [&](std::uint8_t a, std::uint8_t b) {
        const bool va = tags[a] & valid_bit;
        const bool vb = tags[b] & valid_bit;
        if (va != vb)
            return va;
        if (!va)
            return a < b;
        if (stamps[a] != stamps[b])
            return stamps[a] > stamps[b];
        return a > b;
    });
}

} // namespace

void
CacheSystem::initMetadata()
{
    initSets(llc_meta, geom.llc_sets, geom.llc_ways, llc_lanes);
    initSets(mlc_meta, std::size_t(geom.num_cores) * geom.mlc_sets,
             geom.mlc_ways, mlc_lanes);
}

void
CacheSystem::rebuildMetadata()
{
    initMetadata();
    const unsigned lw = geom.llc_ways;
    for (unsigned s = 0; s < geom.llc_sets; ++s) {
        const std::uint64_t *tags = &llc_tags[llcIdx(s, 0)];
        std::uint8_t *meta = llcMeta(s);
        for (unsigned w = 0; w < lw; ++w) {
            if (tags[w] & kValidEntryBit)
                meta[w] = llcLoc(lineOfEntry(tags[w])).fp;
        }
        if (geom.replacement == LlcReplacement::Lru)
            orderByStamps(llcOrder(s), tags, &llc_lru[llcIdx(s, 0)], lw,
                          kValidEntryBit);
    }
    const unsigned mw = geom.mlc_ways;
    for (std::size_t ms = 0; ms < mlc_tick.size(); ++ms) {
        const std::uint64_t *tags = &mlc_tags[ms * mw];
        std::uint8_t *meta = mlcMeta(ms);
        for (unsigned w = 0; w < mw; ++w) {
            if (tags[w] & kValidEntryBit)
                meta[w] = mlcLoc(lineOfEntry(tags[w])).fp;
        }
        orderByStamps(mlcOrder(ms), tags, &mlc_lru[ms * mw], mw,
                      kValidEntryBit);
    }
}

void
CacheSystem::touchLlc(unsigned set, unsigned way)
{
    // LRU: bump the per-set clock and move the way to the front of
    // the recency order. SRRIP: promote to near-immediate re-reference
    // (RRPV 0).
    if (geom.replacement == LlcReplacement::Lru) {
        llc_lru[llcIdx(set, way)] = ++llc_tick[set];
        setmeta::touch(llcOrder(set), geom.llc_ways, way);
    } else {
        llc_lru[llcIdx(set, way)] = 0;
    }
}

void
CacheSystem::stampInsertLlc(unsigned set, unsigned way)
{
    // SRRIP inserts at a long re-reference interval (RRPV 2), which
    // is what lets one-shot (bloated) lines age out before reused
    // ones; LRU inserts at MRU.
    if (geom.replacement == LlcReplacement::Lru)
        touchLlc(set, way);
    else
        llc_lru[llcIdx(set, way)] = 2;
}

void
CacheSystem::llcInvalidate(unsigned set, unsigned way)
{
    llc_tags[llcIdx(set, way)] = 0;
    llcMeta(set)[way] = setmeta::kInvalidFp;
}

// --- deferred device accesses -----------------------------------------------

void
CacheSystem::attachDeferredSource(DeferredIoSource &src)
{
    deferred_.push_back(&src);
    noteDeferredTick(src.deferredTick());
}

void
CacheSystem::detachDeferredSource(DeferredIoSource &src)
{
    std::erase(deferred_, &src);
    // The cached hint may now be stale-low; the next drain resets it.
}

void
CacheSystem::drainDeferredSlow(Tick now)
{
    // Applying a deferred access re-enters through dmaWriteLine (and
    // may trigger DRAM/eviction traffic); the guard makes those inner
    // drainDeferred() calls no-ops so application order stays the
    // single merge below.
    if (draining_)
        return;
    draining_ = true;
    for (;;) {
        // Merge across sources: earliest timestamp wins, attach order
        // breaks ties, so the applied stream is identical no matter
        // which observation (or which source's carrier event)
        // triggered the drain.
        DeferredIoSource *best = nullptr;
        Tick best_tick = kNoDeferredIo;
        for (DeferredIoSource *s : deferred_) {
            const Tick t = s->deferredTick();
            if (t <= now && t < best_tick) {
                best = s;
                best_tick = t;
            }
        }
        if (best == nullptr)
            break;
        best->applyDeferredAccess();
    }
    next_deferred_ = kNoDeferredIo;
    for (DeferredIoSource *s : deferred_)
        next_deferred_ = std::min(next_deferred_, s->deferredTick());
    draining_ = false;
}

// --- core-side path -----------------------------------------------------------

AccessResult
CacheSystem::coreRead(Tick now, CoreId core, Addr addr, WorkloadId wl_id)
{
    return coreAccess(now, core, addr, wl_id, false);
}

AccessResult
CacheSystem::coreWrite(Tick now, CoreId core, Addr addr, WorkloadId wl_id)
{
    return coreAccess(now, core, addr, wl_id, true);
}

AccessResult
CacheSystem::coreAccess(Tick now, CoreId core, Addr addr, WorkloadId wl_id,
                        bool is_write)
{
    drainDeferred(now);
    if (core >= geom.num_cores)
        panic(sformat("core %u out of range", core));

    const Addr line = lineOf(addr);
    WorkloadCounters &w = wl(wl_id);

    // MLC lookup.
    const unsigned mways = geom.mlc_ways;
    const Loc mloc = mlcLoc(line);
    const std::size_t mset = mlcSet(core, mloc.set);
    std::uint8_t *mmeta = mlcMeta(mset);
    if (int mw = findWay(&mlc_tags[mset * mways], mmeta, mways, line,
                         mloc.fp);
        mw >= 0) {
        const std::size_t mi = mset * mways + unsigned(mw);
        mlc_lru[mi] = ++mlc_tick[mset];
        setmeta::touch(mlcOrder(mset), mways, unsigned(mw));
        if (is_write)
            mlc_tags[mi] |= std::uint64_t(kDirty) << kFlagShift;
        w.mlc_hit.inc();
        return {HitLevel::MlcHit, lat.mlc_hit_ns};
    }
    w.mlc_miss.inc();

    // The fill's victim: the first invalid way, else the LRU way.
    // Nothing below touches this MLC set before the fill, so it is
    // fixed now; start fetching its LLC set, which the eviction
    // probes, before the accessed line's LLC lookup.
    const std::uint64_t inv = setmeta::eqMask(mmeta, mways,
                                              setmeta::kInvalidFp);
    const unsigned victim = inv ? unsigned(std::countr_zero(inv))
                                : mlcOrder(mset)[mways - 1];
    const std::uint64_t ventry = mlc_tags[mset * mways + victim];
    Loc vloc{};
    if (ventry & kValidEntryBit) {
        vloc = llcLoc(lineOfEntry(ventry));
        __builtin_prefetch(llcMeta(vloc.set));
        __builtin_prefetch(&llc_tags[llcIdx(vloc.set, 0)]);
    }

    // LLC lookup.
    const Loc loc = llcLoc(line);
    gstats.llc_lookups.inc();
    if (int lw = llcFindWay(loc, line); lw >= 0) {
        unsigned way = unsigned(lw);
        std::size_t li = llcIdx(loc.set, way);
        w.llc_hit.inc();
        touchLlc(loc.set, way);

        std::uint8_t fl = flagsOf(llc_tags[li]);
        const WorkloadId owner = llc_owner[li];

        if (fl & kIo) {
            // Rule 4: consumption of a DMA-written line transitions it
            // to shared LLC-inclusive, restricted to inclusive ways.
            fl |= kConsumed;
            if (way < geom.firstInclusiveWay()) {
                // Migrate: vacate this slot, re-allocate inside the
                // inclusive ways (CLOS-independent).
                llcInvalidate(loc.set, way);
                way = llcAlloc(now, loc, line, inclusive_mask, owner, fl,
                               EvictCause::Migration);
                li = llcIdx(loc.set, way);
                wl(owner).migrated_inclusive.inc();
            }
            llc_tags[li] = pack(line, fl | kInMlc);
            llc_mlc_core[li] = core;
            mlcFill(now, core, mset, victim, vloc, line, mloc.fp, owner,
                    is_write, true);
        } else {
            // Plain victim-cache hit: move to the MLC, drop the LLC
            // copy (non-inclusive exclusivity for non-I/O data).
            const bool dirty = fl & kDirty;
            llcInvalidate(loc.set, way);
            mlcFill(now, core, mset, victim, vloc, line, mloc.fp, owner,
                    dirty || is_write, false);
        }
        return {HitLevel::LlcHit, lat.llc_hit_ns};
    }

    // Rule 1: miss fills the MLC only.
    w.llc_miss.inc();
    w.mem_read_lines.inc();
    double mem_ns = dram.readLine(now);
    mlcFill(now, core, mset, victim, vloc, line, mloc.fp, wl_id, is_write,
            false);
    return {HitLevel::Memory, mem_ns};
}

void
CacheSystem::mlcFill(Tick now, CoreId core, std::size_t mset,
                     unsigned victim, Loc vloc, Addr line, std::uint8_t fp,
                     WorkloadId owner, bool dirty, bool io)
{
    const std::size_t vi = mset * geom.mlc_ways + victim;
    if (mlc_tags[vi] & kValidEntryBit)
        mlcEvictEntry(now, core, mlc_tags[vi], vloc, mlc_owner[vi]);

    mlc_tags[vi] = pack(line, std::uint8_t(kValid | (dirty ? kDirty : 0) |
                                           (io ? kIo : 0)));
    mlc_owner[vi] = owner;
    mlc_lru[vi] = ++mlc_tick[mset];
    mlcMeta(mset)[victim] = fp;
    setmeta::touch(mlcOrder(mset), geom.mlc_ways, victim);
}

void
CacheSystem::mlcEvictEntry(Tick now, CoreId core, std::uint64_t entry,
                           Loc loc, WorkloadId owner)
{
    const Addr line = lineOfEntry(entry);
    const std::uint8_t fl = flagsOf(entry);
    const bool dirty = fl & kDirty;
    const bool io = fl & kIo;

    // If the LLC still holds the line (LLC-inclusive), the eviction
    // just downgrades it to LLC-exclusive — no new allocation.
    if (int lw = llcFindWay(loc, line); lw >= 0) {
        const std::size_t li = llcIdx(loc.set, unsigned(lw));
        std::uint8_t lf = flagsOf(llc_tags[li]);
        lf &= static_cast<std::uint8_t>(~kInMlc);
        if (dirty)
            lf |= kDirty;
        llc_tags[li] = pack(line, lf);
        return;
    }

    // Rule 2 (+7): allocate into the LLC inside the core's CLOS mask.
    std::uint8_t nf = std::uint8_t(kValid | (dirty ? kDirty : 0) |
                                   (io ? (kIo | kConsumed) : 0));
    llcAlloc(now, loc, line, cat.maskForCore(core), owner, nf,
             EvictCause::Capacity);
    if (io)
        wl(owner).bloat_inserts.inc();
}

void
CacheSystem::invalidateMlc(CoreId core, Loc loc, Addr line)
{
    if (int mw = mlcFindWay(core, loc, line); mw >= 0) {
        const std::size_t mset = mlcSet(core, loc.set);
        mlc_tags[mset * geom.mlc_ways + unsigned(mw)] = 0;
        mlcMeta(mset)[mw] = setmeta::kInvalidFp;
    }
}

// --- LLC allocation / eviction --------------------------------------------------

unsigned
CacheSystem::llcAlloc(Tick now, Loc loc, Addr line, WayMask mask,
                      WorkloadId owner, std::uint8_t flags,
                      EvictCause cause)
{
    if (mask == 0)
        panic("llcAlloc: empty way mask");

    const unsigned set = loc.set;
    const std::size_t base = llcIdx(set, 0);
    std::uint8_t *meta = llcMeta(set);
    int victim = -1;

    if (geom.replacement == LlcReplacement::Lru) {
        // The first invalid way inside the mask, else the least
        // recently used one inside it.
        victim = setmeta::firstInMask(meta, geom.llc_ways,
                                      setmeta::kInvalidFp, mask);
        if (victim < 0)
            victim = setmeta::lruInMask(llcOrder(set),
                                        geom.llc_ways, mask);
    } else {
        // SRRIP: evict the first way at the distant RRPV (3); if
        // none, age every candidate and retry (converges in <= 4
        // rounds with 2-bit RRPVs).
        for (int round = 0; round < 4 && victim < 0; ++round) {
            for (unsigned w2 = 0; w2 < geom.llc_ways; ++w2) {
                if (!(mask & (1u << w2)))
                    continue;
                if (!(llc_tags[base + w2] & kValidEntryBit) ||
                    llc_lru[base + w2] >= 3) {
                    victim = static_cast<int>(w2);
                    break;
                }
            }
            if (victim < 0) {
                for (unsigned w2 = 0; w2 < geom.llc_ways; ++w2) {
                    if ((mask & (1u << w2)) && llc_lru[base + w2] < 3)
                        ++llc_lru[base + w2];
                }
            }
        }
    }
    if (victim < 0)
        panic("llcAlloc: mask selected no ways");

    const auto w2 = static_cast<unsigned>(victim);
    if (llc_tags[base + w2] & kValidEntryBit)
        llcEvictSlot(now, set, w2, cause);

    llc_tags[base + w2] = pack(line, flags | kValid);
    meta[w2] = loc.fp;
    llc_owner[base + w2] = owner;
    llc_mlc_core[base + w2] = 0;
    stampInsertLlc(set, w2);
    return w2;
}

void
CacheSystem::llcEvictSlot(Tick now, unsigned set, unsigned way,
                          EvictCause cause)
{
    const std::size_t li = llcIdx(set, way);
    const std::uint8_t fl = flagsOf(llc_tags[li]);
    WorkloadCounters &ow = wl(llc_owner[li]);

    gstats.llc_evictions.inc();
    if (way < geom.dca_ways)
        gstats.dca_evictions.inc();
    if (way >= geom.firstInclusiveWay())
        gstats.inclusive_evictions.inc();

    if (fl & kDirty) {
        gstats.llc_writebacks.inc();
        ow.mem_write_lines.inc();
        dram.writeLine(now);
    }
    // Rule 6: unconsumed I/O line pushed out = DMA leak.
    if ((fl & kIo) && !(fl & kConsumed))
        ow.dma_leaked.inc();
    if (cause == EvictCause::Migration)
        ow.evicted_by_migration.inc();

    // If an MLC still holds the line it silently becomes MLC-only;
    // the extended directory keeps tracking it (nothing to do here).
    // The caller overwrites the slot.
}

// --- device-side paths -------------------------------------------------------------

void
CacheSystem::dmaWriteLine(Tick now, Addr addr, WorkloadId owner,
                          std::span<const CoreId> consumers,
                          bool allocating)
{
    drainDeferred(now);
    const Addr line = lineOf(addr);
    WorkloadCounters &w = wl(owner);
    const Loc loc = llcLoc(line);
    const int lw = llcFindWay(loc, line);

    // Consumer MLCs are probed only when a copy may linger there.
    auto invalidateConsumers = [&] {
        const Loc mloc = mlcLoc(line);
        for (CoreId c : consumers)
            invalidateMlc(c, mloc, line);
    };

    if (allocating) {
        w.dma_lines_written.inc();
        if (lw >= 0) {
            // Rule 5: write-update in place, wherever the line lives.
            const std::size_t li = llcIdx(loc.set, unsigned(lw));
            std::uint8_t fl = flagsOf(llc_tags[li]);
            if (fl & kInMlc) {
                invalidateMlc(llc_mlc_core[li], mlcLoc(line), line);
                fl &= static_cast<std::uint8_t>(~kInMlc);
            }
            fl |= kDirty | kIo;
            fl &= static_cast<std::uint8_t>(~kConsumed);
            llc_tags[li] = pack(line, fl);
            llc_owner[li] = owner;
            touchLlc(loc.set, unsigned(lw));
            w.dma_write_update.inc();
        } else {
            // Stale copies may linger in consumer MLCs (the line was
            // consumed through the memory path after a leak).
            invalidateConsumers();
            llcAlloc(now, loc, line, dca_mask, owner,
                     kValid | kDirty | kIo, EvictCause::DmaAlloc);
            w.dma_write_alloc.inc();
        }
    } else {
        // Rule 8: non-allocating write — memory traffic + invalidation.
        w.dma_nonalloc.inc();
        w.mem_write_lines.inc();
        dram.writeLine(now);
        if (lw >= 0) {
            const std::size_t li = llcIdx(loc.set, unsigned(lw));
            if (flagsOf(llc_tags[li]) & kInMlc)
                invalidateMlc(llc_mlc_core[li], mlcLoc(line), line);
            llcInvalidate(loc.set, unsigned(lw));
        } else {
            invalidateConsumers();
        }
    }
}

bool
CacheSystem::dmaReadLine(Tick now, Addr addr, WorkloadId owner,
                         std::span<const CoreId> cores)
{
    drainDeferred(now);
    const Addr line = lineOf(addr);
    const Loc loc = llcLoc(line);

    if (int lw = llcFindWay(loc, line); lw >= 0) {
        touchLlc(loc.set, unsigned(lw));
        return true;
    }

    // MLC-only data: egress read-allocates a copy in the inclusive
    // ways (rule 9), making the line LLC-inclusive.
    const Loc mloc = mlcLoc(line);
    for (CoreId c : cores) {
        if (int mw = mlcFindWay(c, mloc, line); mw >= 0) {
            const WorkloadId ml_owner =
                mlc_owner[mlcIdx(c, mloc.set, unsigned(mw))];
            unsigned nw = llcAlloc(now, loc, line, inclusive_mask,
                                   ml_owner, kValid,
                                   EvictCause::Capacity);
            const std::size_t li = llcIdx(loc.set, nw);
            llc_tags[li] |= std::uint64_t(kInMlc) << kFlagShift;
            llc_mlc_core[li] = c;
            gstats.egress_inclusive_alloc.inc();
            return true;
        }
    }

    wl(owner).mem_read_lines.inc();
    dram.readLine(now);
    return false;
}

// --- introspection ----------------------------------------------------------------

CacheSystem::Probe
CacheSystem::probeLlc(Addr addr) const
{
    const Addr line = lineOf(addr);
    const Loc loc = llcLoc(line);
    Probe p;
    if (int lw = llcFindWay(loc, line); lw >= 0) {
        const std::size_t li = llcIdx(loc.set, unsigned(lw));
        const std::uint8_t fl = flagsOf(llc_tags[li]);
        p.in_llc = true;
        p.way = unsigned(lw);
        p.dirty = fl & kDirty;
        p.io = fl & kIo;
        p.consumed = fl & kConsumed;
        p.in_mlc_flag = fl & kInMlc;
        p.owner = llc_owner[li];
    }
    return p;
}

bool
CacheSystem::inMlc(CoreId core, Addr addr) const
{
    const Addr line = lineOf(addr);
    return mlcFindWay(core, mlcLoc(line), line) >= 0;
}

namespace
{

/**
 * Violations of one set's derived metadata, whose recency order
 * starts @p lanes bytes after its fingerprints: (d) fingerprint bytes
 * against @p fp_of applied to each valid tag, and, when @p stamps is
 * non-null, (e) the recency order is a permutation whose valid ways
 * carry descending stamps (equal stamps: higher way first).
 */
template <typename FpOf>
std::size_t
auditSetMeta(const std::uint64_t *tags, const std::uint32_t *stamps,
             const std::uint8_t *meta, unsigned lanes, unsigned ways,
             std::uint64_t valid_bit, FpOf fp_of)
{
    std::size_t violations = 0;
    for (unsigned w = 0; w < ways; ++w) {
        const std::uint8_t want = (tags[w] & valid_bit)
                                      ? fp_of(tags[w])
                                      : setmeta::kInvalidFp;
        if (meta[w] != want)
            ++violations;
    }
    if (stamps == nullptr)
        return violations;

    const std::uint8_t *order = meta + lanes;
    std::uint64_t seen = 0;
    int prev = -1;
    for (unsigned i = 0; i < ways; ++i) {
        const unsigned w = order[i];
        if (w >= ways || ((seen >> w) & 1)) {
            ++violations;
            continue;
        }
        seen |= std::uint64_t(1) << w;
        if (!(tags[w] & valid_bit))
            continue;
        if (prev >= 0) {
            const std::uint32_t sp = stamps[prev];
            if (sp < stamps[w] || (sp == stamps[w] && unsigned(prev) < w))
                ++violations;
        }
        prev = static_cast<int>(w);
    }
    return violations;
}

} // namespace

std::size_t
CacheSystem::auditInvariants() const
{
    std::size_t violations = 0;
    for (unsigned s = 0; s < geom.llc_sets; ++s) {
        const std::size_t base = llcIdx(s, 0);
        for (unsigned w2 = 0; w2 < geom.llc_ways; ++w2) {
            const std::uint64_t e = llc_tags[base + w2];
            if (!(e & kValidEntryBit))
                continue;
            // (a) tag unique within the set.
            for (unsigned v = w2 + 1; v < geom.llc_ways; ++v) {
                if ((llc_tags[base + v] & kValidEntryBit) &&
                    lineOfEntry(llc_tags[base + v]) == lineOfEntry(e))
                    ++violations;
            }
            if (flagsOf(e) & kInMlc) {
                // (b) inclusive lines only in inclusive ways.
                if (w2 < geom.firstInclusiveWay())
                    ++violations;
                // (c) the registered MLC copy exists.
                CoreId c = llc_mlc_core[base + w2];
                if (c >= geom.num_cores ||
                    mlcFindWay(c, mlcLoc(lineOfEntry(e)), lineOfEntry(e)) <
                        0)
                    ++violations;
            }
        }
        // (d), (e).
        violations += auditSetMeta(
            &llc_tags[base],
            geom.replacement == LlcReplacement::Lru ? &llc_lru[base]
                                                    : nullptr,
            llcMeta(s), llc_lanes, geom.llc_ways, kValidEntryBit,
            [this](std::uint64_t e) { return llcLoc(lineOfEntry(e)).fp; });
    }
    for (std::size_t ms = 0; ms < mlc_tick.size(); ++ms) {
        const std::size_t base = ms * geom.mlc_ways;
        violations += auditSetMeta(
            &mlc_tags[base], &mlc_lru[base], mlcMeta(ms), mlc_lanes,
            geom.mlc_ways, kValidEntryBit,
            [this](std::uint64_t e) { return mlcLoc(lineOfEntry(e)).fp; });
    }
    return violations;
}

std::vector<std::uint64_t>
CacheSystem::llcWayOccupancy() const
{
    std::vector<std::uint64_t> occ(geom.llc_ways, 0);
    for (unsigned s = 0; s < geom.llc_sets; ++s) {
        for (unsigned w2 = 0; w2 < geom.llc_ways; ++w2) {
            if (llc_tags[llcIdx(s, w2)] & kValidEntryBit)
                ++occ[w2];
        }
    }
    return occ;
}

std::vector<std::uint64_t>
CacheSystem::llcWayOccupancyOf(WorkloadId id) const
{
    std::vector<std::uint64_t> occ(geom.llc_ways, 0);
    for (unsigned s = 0; s < geom.llc_sets; ++s) {
        for (unsigned w2 = 0; w2 < geom.llc_ways; ++w2) {
            const std::size_t i = llcIdx(s, w2);
            if ((llc_tags[i] & kValidEntryBit) && llc_owner[i] == id)
                ++occ[w2];
        }
    }
    return occ;
}

// --------------------------------------------------------------------
// Snapshot hooks

namespace
{

void
saveCounters(Serializer &s, const WorkloadCounters &c)
{
    c.mlc_hit.saveState(s);
    c.mlc_miss.saveState(s);
    c.llc_hit.saveState(s);
    c.llc_miss.saveState(s);
    c.dma_lines_written.saveState(s);
    c.dma_write_update.saveState(s);
    c.dma_write_alloc.saveState(s);
    c.dma_nonalloc.saveState(s);
    c.dma_leaked.saveState(s);
    c.migrated_inclusive.saveState(s);
    c.bloat_inserts.saveState(s);
    c.evicted_by_migration.saveState(s);
    c.mem_read_lines.saveState(s);
    c.mem_write_lines.saveState(s);
}

void
restoreCounters(Deserializer &d, WorkloadCounters &c)
{
    c.mlc_hit.restoreState(d);
    c.mlc_miss.restoreState(d);
    c.llc_hit.restoreState(d);
    c.llc_miss.restoreState(d);
    c.dma_lines_written.restoreState(d);
    c.dma_write_update.restoreState(d);
    c.dma_write_alloc.restoreState(d);
    c.dma_nonalloc.restoreState(d);
    c.dma_leaked.restoreState(d);
    c.migrated_inclusive.restoreState(d);
    c.bloat_inserts.restoreState(d);
    c.evicted_by_migration.restoreState(d);
    c.mem_read_lines.restoreState(d);
    c.mem_write_lines.restoreState(d);
}

} // namespace

void
CacheSystem::saveState(Serializer &s) const
{
    s.begin("cache");
    s.podVec(llc_tags);
    s.podVec(llc_lru);
    s.podVec(llc_owner);
    s.podVec(llc_mlc_core);
    s.podVec(llc_tick);
    s.podVec(mlc_tags);
    s.podVec(mlc_lru);
    s.podVec(mlc_owner);
    s.podVec(mlc_tick);
    s.u64(wl_stats.size());
    for (const WorkloadCounters &c : wl_stats)
        saveCounters(s, c);
    gstats.llc_lookups.saveState(s);
    gstats.llc_evictions.saveState(s);
    gstats.llc_writebacks.saveState(s);
    gstats.dca_evictions.saveState(s);
    gstats.inclusive_evictions.saveState(s);
    gstats.egress_inclusive_alloc.saveState(s);
    s.u64(next_deferred_);
    s.end("cache");
}

void
CacheSystem::restoreState(Deserializer &d)
{
    d.begin("cache");
    const std::size_t llc_n = llc_tags.size();
    const std::size_t llc_sets_n = llc_tick.size();
    const std::size_t mlc_n = mlc_tags.size();
    const std::size_t mlc_sets_n = mlc_tick.size();
    d.podVec(llc_tags);
    d.podVec(llc_lru);
    d.podVec(llc_owner);
    d.podVec(llc_mlc_core);
    d.podVec(llc_tick);
    d.podVec(mlc_tags);
    d.podVec(mlc_lru);
    d.podVec(mlc_owner);
    d.podVec(mlc_tick);
    if (llc_tags.size() != llc_n || llc_lru.size() != llc_n ||
        llc_owner.size() != llc_n || llc_mlc_core.size() != llc_n ||
        llc_tick.size() != llc_sets_n || mlc_tags.size() != mlc_n ||
        mlc_lru.size() != mlc_n || mlc_owner.size() != mlc_n ||
        mlc_tick.size() != mlc_sets_n)
        throw SnapshotError("CacheSystem: geometry mismatch");
    rebuildMetadata();
    wl_stats.resize(d.u64());
    for (WorkloadCounters &c : wl_stats)
        restoreCounters(d, c);
    gstats.llc_lookups.restoreState(d);
    gstats.llc_evictions.restoreState(d);
    gstats.llc_writebacks.restoreState(d);
    gstats.dca_evictions.restoreState(d);
    gstats.inclusive_evictions.restoreState(d);
    gstats.egress_inclusive_alloc.restoreState(d);
    next_deferred_ = d.u64();
    d.end("cache");
}

} // namespace a4
