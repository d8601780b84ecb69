/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * cache access variants, DMA paths, and the event engine. These
 * bound how much simulated traffic the figure benches can push per
 * wall-clock second.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/hierarchy.hh"
#include "mem/dram.hh"
#include "rdt/cat.hh"
#include "sim/engine.hh"

using namespace a4;

namespace
{

/** The hot-path rig: the default geometry at scale 4, optionally with
 *  the MLC cut down to @p mlc_sets sets. */
CacheGeometry
rigGeometry(unsigned mlc_sets)
{
    CacheGeometry g = CacheGeometry{}.scaled(4);
    if (mlc_sets != 0)
        g.mlc_sets = mlc_sets;
    return g;
}

struct Rig
{
    explicit Rig(unsigned mlc_sets = 0)
        : cat(11, 18),
          cache(rigGeometry(mlc_sets), CacheLatencies{}, dram, cat)
    {}

    Dram dram;
    CatController cat;
    CacheSystem cache;
};

constexpr CoreId kCore = 0;
constexpr WorkloadId kWl = 1;
constexpr CoreId kConsumers[1] = {0};

} // namespace

static void
BM_MlcHit(benchmark::State &state)
{
    Rig r;
    r.cache.coreRead(0, kCore, 0x10000, kWl);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            r.cache.coreRead(0, kCore, 0x10000, kWl));
}
BENCHMARK(BM_MlcHit);

static void
BM_LlcHitVictimRoundTrip(benchmark::State &state)
{
    // Every access is an MLC miss that hits the LLC and round-trips
    // through the victim path: with a single MLC set, cycling through
    // more lines than the MLC has ways always misses it, while the
    // lines fit the LLC with room to spare.
    Rig r(1);
    constexpr unsigned kLines = 20;
    static_assert(kLines > CacheGeometry{}.mlc_ways);
    std::vector<Addr> conflict;
    for (unsigned i = 0; i < kLines; ++i)
        conflict.push_back(0x100000 + Addr(i) * kLineBytes);
    // Two warm-up laps leave every line in the LLC or the MLC.
    for (unsigned lap = 0; lap < 2; ++lap) {
        for (Addr a : conflict)
            r.cache.coreRead(0, kCore, a, kWl);
    }
    const WorkloadCounters &c = r.cache.wl(kWl);
    const std::uint64_t miss0 = c.mlc_miss.value();
    const std::uint64_t hit0 = c.llc_hit.value();

    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            r.cache.coreRead(0, kCore, conflict[i], kWl));
        i = (i + 1) % conflict.size();
    }
    const auto iters = static_cast<std::uint64_t>(state.iterations());
    if (c.mlc_miss.value() - miss0 != iters ||
        c.llc_hit.value() - hit0 != iters)
        state.SkipWithError("an access did not take the victim path");
}
BENCHMARK(BM_LlcHitVictimRoundTrip);

static void
BM_MemoryFill(benchmark::State &state)
{
    Rig r;
    Addr a = 0x200000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(r.cache.coreRead(0, kCore, a, kWl));
        a += kLineBytes; // always cold
    }
}
BENCHMARK(BM_MemoryFill);

static void
BM_DmaWriteAllocate(benchmark::State &state)
{
    Rig r;
    Addr a = 0x4000000;
    for (auto _ : state) {
        r.cache.dmaWriteLine(0, a, kWl, kConsumers, true);
        a += kLineBytes;
    }
}
BENCHMARK(BM_DmaWriteAllocate);

static void
BM_DmaWriteUpdate(benchmark::State &state)
{
    Rig r;
    r.cache.dmaWriteLine(0, 0x5000000, kWl, kConsumers, true);
    for (auto _ : state)
        r.cache.dmaWriteLine(0, 0x5000000, kWl, kConsumers, true);
}
BENCHMARK(BM_DmaWriteUpdate);

static void
BM_DmaNonAllocating(benchmark::State &state)
{
    Rig r;
    Addr a = 0x6000000;
    for (auto _ : state) {
        r.cache.dmaWriteLine(0, a, kWl, kConsumers, false);
        a += kLineBytes;
    }
}
BENCHMARK(BM_DmaNonAllocating);

static void
BM_EngineScheduleFire(benchmark::State &state)
{
    Engine eng;
    Tick t = 0;
    for (auto _ : state) {
        eng.schedule(1, [] {});
        eng.runUntil(++t);
    }
}
BENCHMARK(BM_EngineScheduleFire);

static void
BM_EngineRecurringFire(benchmark::State &state)
{
    // Steady-state actor path: the callback is installed once and the
    // event re-arms itself, as every workload poll loop now does.
    Engine eng;
    Engine::Recurring ev;
    std::uint64_t count = 0;
    ev.init(eng, [&] {
        ++count;
        ev.arm(1);
    });
    ev.arm(1);
    Tick t = 0;
    for (auto _ : state)
        eng.runUntil(++t);
    benchmark::DoNotOptimize(count);
}
BENCHMARK(BM_EngineRecurringFire);

static void
BM_EngineManyActors(benchmark::State &state)
{
    // 64 staggered recurring actors: exercises real heap traffic (the
    // front cache cannot short-circuit every pop). Reported time is
    // per tick, with ~multiple firings per tick.
    Engine eng;
    constexpr unsigned kActors = 64;
    std::vector<Engine::Recurring> evs(kActors);
    for (unsigned i = 0; i < kActors; ++i) {
        evs[i].init(eng, [&evs, i] { evs[i].arm(1 + (i % 7)); });
        evs[i].arm(1 + i);
    }
    Tick t = 0;
    for (auto _ : state)
        eng.runUntil(++t);
}
BENCHMARK(BM_EngineManyActors);

static void
BM_EngineQueueLadder(benchmark::State &state)
{
    // Queue-depth regression guard: schedule+fire one event while N
    // others sit pending far in the future. Each iteration spills the
    // cached front event into the heap and pops it back, so it pays
    // O(log N) against the standing population. Arg = pending count.
    const auto pending = static_cast<std::size_t>(state.range(0));
    Engine eng;
    for (std::size_t i = 0; i < pending; ++i)
        eng.schedule(std::uint64_t(1) << 40, [] {});
    Tick t = 0;
    for (auto _ : state) {
        eng.schedule(1, [] {});
        eng.runUntil(++t);
    }
}
BENCHMARK(BM_EngineQueueLadder)
    ->ArgName("pending")
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

static void
BM_LlcOccupancyCensus(benchmark::State &state)
{
    Rig r;
    for (Addr a = 0; a < 4 * kMiB; a += kLineBytes)
        r.cache.dmaWriteLine(0, 0x7000000 + a, kWl, kConsumers, true);
    for (auto _ : state)
        benchmark::DoNotOptimize(r.cache.llcWayOccupancy());
}
BENCHMARK(BM_LlcOccupancyCensus);

BENCHMARK_MAIN();
