/**
 * @file
 * The modeled cache hierarchy: private MLCs + sliced non-inclusive LLC
 * with an inclusive directory, DCA ways, and CAT-mask-aware placement.
 *
 * This is the substrate on which every contention in the paper
 * emerges. The load-bearing placement rules (numbered as in DESIGN.md
 * §3) are:
 *
 *  1. Non-inclusive fill: core misses fill the MLC only.
 *  2. Victim cache: MLC evictions allocate into the LLC inside the
 *     evicting core's CLOS mask.
 *  3. LLC-inclusive lines (present in LLC *and* an MLC) may live only
 *     in the inclusive ways, which are coupled one-to-one with the two
 *     directory ways shared between the traditional and extended
 *     directory groups (Yan et al. [65]).
 *  4. Directory migration (C1): a core read of a DMA-written
 *     LLC-exclusive line transitions it to shared LLC-inclusive
 *     (Wang et al. [60]) and therefore *migrates* it into an inclusive
 *     way, evicting the resident line — regardless of any CLOS mask.
 *     Non-I/O LLC hits instead move the line to the MLC and drop the
 *     LLC copy (plain victim-cache behaviour).
 *  5. DCA write-allocate/write-update: allocating DMA writes update a
 *     cached line in place wherever it is, else allocate into the DCA
 *     ways only.
 *  6. DMA leak: an I/O line evicted from the LLC before any core
 *     consumed it is counted against the owning workload.
 *  7. DMA bloat: consumed I/O lines evicted from an MLC re-enter the
 *     LLC through rule 2.
 *  8. Non-allocating DMA writes (DDIO disabled for the port) go to
 *     memory and invalidate stale cached copies.
 *  9. Egress DMA reads are served from the LLC when present; a copy of
 *     MLC-only data is read-allocated into the inclusive ways; misses
 *     read memory without allocating.
 * 10. CAT masks constrain only new allocations.
 *
 * Implementation note: tag+flags are packed into a single 64-bit word
 * per way ([6 flag bits][58 address bits]); LRU stamps, owners and
 * the registered MLC core live in parallel arrays. These arrays are
 * the authoritative state and the checkpoint image. Every set also
 * carries derived metadata (cache/setmeta.hh): one fingerprint byte
 * and one recency-order byte per way, each array padded to whole
 * 16-byte chunks (32 bytes per set for up to 16 ways). A lookup
 * hashes the line once for both the set index and the fingerprint,
 * compares all of the set's fingerprints with one SSE2 compare and
 * checks full tags only on a fingerprint match; a touch moves the way
 * to the front of the recency order with one vector shift and blend;
 * an LRU victim is the first invalid way inside the allocation mask,
 * else the last way of the recency order inside it. The metadata is
 * rebuilt from the tags and stamps on restore and audited against
 * them (auditInvariants).
 */

#ifndef A4_CACHE_HIERARCHY_HH
#define A4_CACHE_HIERARCHY_HH

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "cache/counters.hh"
#include "cache/geometry.hh"
#include "cache/setmeta.hh"
#include "mem/dram.hh"
#include "rdt/cat.hh"
#include "sim/types.hh"

namespace a4
{

/** Fresh zero-filled anonymous pages for @p bytes bytes; throws
 *  std::bad_alloc. Pages stay non-resident until written. */
void *mapZeroedPages(std::size_t bytes);
/** Return pages obtained from mapZeroedPages(). */
void unmapPages(void *p, std::size_t bytes) noexcept;

/**
 * Allocator for the cache's per-way arrays: every array gets its own
 * fresh anonymous mapping and value-initialisation writes nothing, so
 * the arrays start zeroed (every way invalid) without touching their
 * pages. The MLC arrays of a core that never runs then never become
 * resident, whatever the allocator did with earlier hierarchies.
 */
template <typename T>
struct ZeroedAlloc
{
    using value_type = T;

    ZeroedAlloc() = default;
    template <typename U>
    ZeroedAlloc(const ZeroedAlloc<U> &) noexcept
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(mapZeroedPages(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        unmapPages(p, n * sizeof(T));
    }

    /** Value-initialisation: the mapping is already zero. (Other
     *  constructions fall back to placement new.) */
    template <typename U>
    void
    construct(U *)
    {
        static_assert(std::is_trivially_default_constructible_v<U>);
    }

    template <typename U>
    bool
    operator==(const ZeroedAlloc<U> &) const noexcept
    {
        return true;
    }
};

/** A cache per-way array (see ZeroedAlloc). */
template <typename T>
using WayArray = std::vector<T, ZeroedAlloc<T>>;

/** deferredTick() value meaning "no deferred access pending". */
inline constexpr Tick kNoDeferredIo = ~Tick(0);

/**
 * A device model whose accesses into the hierarchy are generated
 * lazily instead of one engine event each (the NIC's burst arrival
 * path). The source exposes the timestamp of its earliest
 * not-yet-applied access; the cache drains every attached source up
 * to `now` — in global (timestamp, attach-order) order — before any
 * access or counter sample can observe shared state. This is the
 * observation barrier that makes batched arrival generation
 * tick-for-tick indistinguishable from per-event scheduling: state is
 * only ever *read* with all logically-earlier accesses applied.
 */
class DeferredIoSource
{
  public:
    virtual ~DeferredIoSource() = default;

    /** Timestamp of the earliest pending deferred access, or
     *  kNoDeferredIo when idle. Must be non-decreasing except across
     *  a restart of the source. */
    virtual Tick deferredTick() const = 0;

    /** Apply exactly the earliest pending deferred access.
     *  @pre deferredTick() != kNoDeferredIo. */
    virtual void applyDeferredAccess() = 0;
};

/** Result level of a core access (for tests and latency breakdowns). */
enum class HitLevel { MlcHit, LlcHit, Memory };

/** Outcome of a core access: where it hit and what it cost. */
struct AccessResult
{
    HitLevel level;
    double latency_ns;
};

/** Cache hierarchy model (all cores' MLCs + the shared LLC). */
class CacheSystem
{
  public:
    CacheSystem(const CacheGeometry &geom, const CacheLatencies &lat,
                Dram &dram, CatController &cat);

    /** @name Core-side accesses (attributed to @p wl). @{ */
    AccessResult coreRead(Tick now, CoreId core, Addr addr, WorkloadId wl);
    AccessResult coreWrite(Tick now, CoreId core, Addr addr, WorkloadId wl);
    /** @} */

    /**
     * Device-to-host DMA write of one line.
     *
     * @param owner workload owning the target buffer (attribution).
     * @param consumers cores whose MLCs may hold stale copies (the
     *        buffer's consumer threads); stands in for the extended
     *        directory's snoop filtering.
     * @param allocating DDIO allocating flow (true) vs non-allocating.
     */
    void dmaWriteLine(Tick now, Addr addr, WorkloadId owner,
                      std::span<const CoreId> consumers, bool allocating);

    /**
     * Host-to-device DMA read of one line (egress).
     * @return true if served from the cache hierarchy.
     */
    bool dmaReadLine(Tick now, Addr addr, WorkloadId owner,
                     std::span<const CoreId> cores);

    /**
     * @name Introspection (tests, analysis, occupancy census).
     *
     * These readers (and the counter banks below) are const and
     * therefore bypass the deferred-access barrier: with a batched
     * NIC attached, call drainDeferred(now) first or the state read
     * can be up to one burst interval stale. The access paths and
     * PCM samples drain automatically; raw censuses cannot.
     * @{
     */
    struct Probe
    {
        bool in_llc = false;
        unsigned way = 0;
        bool dirty = false;
        bool io = false;
        bool consumed = false;
        bool in_mlc_flag = false;
        WorkloadId owner = kNoWorkload;
    };

    Probe probeLlc(Addr addr) const;
    bool inMlc(CoreId core, Addr addr) const;

    /**
     * Audit structural invariants; returns the number of violations
     * (0 when healthy). Checked: (a) no duplicate tags within a set,
     * (b) LLC-inclusive lines reside only in inclusive ways, (c) every
     * kInMlc line's registered MLC copy actually exists, (d) every
     * way's fingerprint byte matches its tag (kInvalidFp for an
     * invalid way), (e) every MLC set's recency order — and, under
     * LRU, every LLC set's — is a permutation of the ways whose valid
     * ways appear in descending stamp order.
     */
    std::size_t auditInvariants() const;

    /** Valid-line count per LLC way (whole cache). */
    std::vector<std::uint64_t> llcWayOccupancy() const;
    /** Valid-line count per LLC way owned by @p wl. */
    std::vector<std::uint64_t> llcWayOccupancyOf(WorkloadId wl) const;
    /** @} */

    /** @name Deferred device-access sources (burst batching). @{ */
    /** Register @p src; its pending accesses gate every observation. */
    void attachDeferredSource(DeferredIoSource &src);
    /** Unregister @p src (sources detach on destruction). */
    void detachDeferredSource(DeferredIoSource &src);
    /** Lower the fast-path "earliest deferred access" hint to @p t
     *  (sources call this when they (re)start generating). */
    void
    noteDeferredTick(Tick t)
    {
        if (t < next_deferred_)
            next_deferred_ = t;
    }
    /**
     * Apply all deferred accesses with timestamp <= @p now, merged
     * across sources in (timestamp, attach-order) order. Called
     * internally before every access; public for samplers that read
     * counters without touching lines (PCM, occupancy censuses).
     * One compare when nothing is pending.
     */
    void
    drainDeferred(Tick now)
    {
        if (now >= next_deferred_) [[unlikely]]
            drainDeferredSlow(now);
    }
    /** @} */

    /** Per-workload counter bank (auto-grows). */
    WorkloadCounters &
    wl(WorkloadId id)
    {
        if (id >= wl_stats.size()) [[unlikely]]
            wl_stats.resize(std::size_t(id) + 1);
        return wl_stats[id];
    }
    const WorkloadCounters &
    wlConst(WorkloadId id) const
    {
        if (id >= wl_stats.size()) [[unlikely]]
            wl_stats.resize(std::size_t(id) + 1);
        return wl_stats[id];
    }

    GlobalCacheCounters &global() { return gstats; }
    const GlobalCacheCounters &global() const { return gstats; }

    const CacheGeometry &geometry() const { return geom; }
    const CacheLatencies &latencies() const { return lat; }

    /**
     * @name Snapshot hooks.
     * Tag/LRU/owner arrays go as raw blobs (geometry-checked on
     * restore); counter banks element-wise. The derived set metadata
     * is not saved: restore rebuilds it from the tags and stamps. Deferred-source
     * registration is construction-time wiring and is not saved —
     * each source snapshots its own pending accesses, and
     * next_deferred_ carries the earliest-pending hint across.
     * @{
     */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);
    /** @} */

  private:
    enum Flags : std::uint8_t
    {
        kValid = 1,
        kDirty = 2,
        kIo = 4,       ///< holds DMA-written I/O data
        kConsumed = 8, ///< a core has read it since the last DMA write
        kInMlc = 16,   ///< LLC-inclusive: also present in an MLC
    };

    /** Why a line is being evicted from the LLC (stats attribution). */
    enum class EvictCause { Capacity, Migration, DmaAlloc };

    // --- packed tag entries ---------------------------------------------
    static constexpr unsigned kFlagShift = 58;
    static constexpr std::uint64_t kAddrMask =
        (std::uint64_t(1) << kFlagShift) - 1;
    static constexpr std::uint64_t kValidEntryBit =
        std::uint64_t(kValid) << kFlagShift;
    static constexpr std::uint64_t kMatchMask =
        kAddrMask | kValidEntryBit;

    static std::uint64_t
    pack(Addr line, std::uint8_t flags)
    {
        return (line & kAddrMask) |
               (std::uint64_t(flags) << kFlagShift);
    }

    static std::uint8_t flagsOf(std::uint64_t e)
    {
        return static_cast<std::uint8_t>(e >> kFlagShift);
    }

    static Addr lineOfEntry(std::uint64_t e) { return e & kAddrMask; }

    // --- indexing ---------------------------------------------------------
    // Inlined: hashing + the fingerprint compare are the fast path of
    // every simulated access (an MLC hit is one hash, one compare
    // over the set's fingerprints and one tag check).

    static std::uint64_t
    mix(std::uint64_t x)
    {
        // splitmix64 finalizer; stands in for the slice/index hash.
        x ^= x >> 30;
        x *= 0xBF58476D1CE4E5B9ull;
        x ^= x >> 27;
        x *= 0x94D049BB133111EBull;
        x ^= x >> 31;
        return x;
    }

    /** Where a line lives in one cache level: one hash yields both. */
    struct Loc
    {
        unsigned set;
        std::uint8_t fp;
    };

    static Loc
    locOf(std::uint64_t hash, unsigned sets)
    {
        return {static_cast<unsigned>(
                    (static_cast<unsigned __int128>(hash) * sets) >> 64),
                setmeta::fpOf(hash)};
    }

    Loc llcLoc(Addr line) const { return locOf(mix(line), geom.llc_sets); }

    Loc
    mlcLoc(Addr line) const
    {
        return locOf(mix(line ^ 0xA4A4'5EED'0000'0001ull), geom.mlc_sets);
    }

    /**
     * Way holding @p line in a set of @p ways tags whose metadata is
     * @p meta, or -1. Full tags are read only where the fingerprint
     * matches.
     */
    static int
    findWay(const std::uint64_t *tags, const std::uint8_t *meta,
            unsigned ways, Addr line, std::uint8_t fp)
    {
        return setmeta::findTag(tags, meta, ways, fp,
                                (line & kAddrMask) | kValidEntryBit,
                                kMatchMask);
    }

    std::size_t llcIdx(unsigned set, unsigned way) const
    {
        return std::size_t(set) * geom.llc_ways + way;
    }

    /** Flat (core, set) index: MLC stamp clocks, and set * ways is
     *  the set's first entry. */
    std::size_t mlcSet(CoreId core, unsigned set) const
    {
        return std::size_t(core) * geom.mlc_sets + set;
    }

    std::size_t mlcIdx(CoreId core, unsigned set, unsigned way) const
    {
        return mlcSet(core, set) * geom.mlc_ways + way;
    }

    /** A set's metadata: fingerprints at [0, lanes), the recency
     *  order at [lanes, 2 * lanes). */
    std::uint8_t *llcMeta(unsigned set)
    {
        return &llc_meta[std::size_t(set) * 2 * llc_lanes];
    }
    const std::uint8_t *llcMeta(unsigned set) const
    {
        return &llc_meta[std::size_t(set) * 2 * llc_lanes];
    }
    std::uint8_t *llcOrder(unsigned set) { return llcMeta(set) + llc_lanes; }
    std::uint8_t *mlcMeta(std::size_t mset)
    {
        return &mlc_meta[mset * 2 * mlc_lanes];
    }
    const std::uint8_t *mlcMeta(std::size_t mset) const
    {
        return &mlc_meta[mset * 2 * mlc_lanes];
    }
    std::uint8_t *mlcOrder(std::size_t mset)
    {
        return mlcMeta(mset) + mlc_lanes;
    }

    int
    llcFindWay(Loc loc, Addr line) const
    {
        return findWay(&llc_tags[llcIdx(loc.set, 0)], llcMeta(loc.set),
                       geom.llc_ways, line, loc.fp);
    }

    int
    mlcFindWay(CoreId core, Loc loc, Addr line) const
    {
        const std::size_t mset = mlcSet(core, loc.set);
        return findWay(&mlc_tags[mset * geom.mlc_ways], mlcMeta(mset),
                       geom.mlc_ways, line, loc.fp);
    }

    // --- internal operations ----------------------------------------------
    void drainDeferredSlow(Tick now);
    AccessResult coreAccess(Tick now, CoreId core, Addr addr,
                            WorkloadId wl_id, bool is_write);
    /** Fill @p line into way @p victim of MLC set @p mset, evicting
     *  the resident line (whose LLC location is @p vloc) first. */
    void mlcFill(Tick now, CoreId core, std::size_t mset, unsigned victim,
                 Loc vloc, Addr line, std::uint8_t fp, WorkloadId owner,
                 bool dirty, bool io);
    void mlcEvictEntry(Tick now, CoreId core, std::uint64_t entry,
                       Loc loc, WorkloadId owner);
    void invalidateMlc(CoreId core, Loc loc, Addr line);

    /**
     * Allocate @p line into the LLC choosing a victim inside @p mask.
     * @return way index used.
     */
    unsigned llcAlloc(Tick now, Loc loc, Addr line, WayMask mask,
                      WorkloadId owner, std::uint8_t flags,
                      EvictCause cause);
    void llcEvictSlot(Tick now, unsigned set, unsigned way,
                      EvictCause cause);
    void llcInvalidate(unsigned set, unsigned way);
    void touchLlc(unsigned set, unsigned way);
    void stampInsertLlc(unsigned set, unsigned way);
    /** Reset the derived metadata to "every way invalid". */
    void initMetadata();
    /** Derive the metadata from the tags and stamps (restore). */
    void rebuildMetadata();

    CacheGeometry geom;
    CacheLatencies lat;
    Dram &dram;
    CatController &cat;

    WayMask dca_mask;
    WayMask inclusive_mask;

    // LLC state: hot packed tags, cold metadata.
    WayArray<std::uint64_t> llc_tags;
    WayArray<std::uint32_t> llc_lru;
    WayArray<std::uint16_t> llc_owner;
    WayArray<std::uint16_t> llc_mlc_core;
    WayArray<std::uint32_t> llc_tick;

    // MLC state, flattened across cores.
    WayArray<std::uint64_t> mlc_tags;
    WayArray<std::uint32_t> mlc_lru;
    WayArray<std::uint16_t> mlc_owner;
    WayArray<std::uint32_t> mlc_tick;

    // Derived set metadata: 2 * lanes bytes per set, where lanes is
    // the way count rounded up to whole chunks (setmeta::lanesFor).
    unsigned llc_lanes;
    unsigned mlc_lanes;
    WayArray<std::uint8_t> llc_meta;
    WayArray<std::uint8_t> mlc_meta;

    mutable std::vector<WorkloadCounters> wl_stats;
    GlobalCacheCounters gstats;

    // Deferred-access sources and the cached earliest-pending hint.
    std::vector<DeferredIoSource *> deferred_;
    Tick next_deferred_ = kNoDeferredIo;
    bool draining_ = false; ///< re-entrancy guard (drains access us)
};

} // namespace a4

#endif // A4_CACHE_HIERARCHY_HH
