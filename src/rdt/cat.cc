#include "rdt/cat.hh"

#include <algorithm>
#include <numeric>

#include "sim/log.hh"

namespace a4
{

CatController::CatController(unsigned num_ways, unsigned num_cores,
                             unsigned num_clos)
    : n_ways(num_ways)
{
    if (num_ways == 0 || num_ways > 31)
        fatal(sformat("CAT: unsupported way count %u", num_ways));
    if (num_clos == 0)
        fatal("CAT: need at least one CLOS");
    masks.assign(num_clos, fullMask(num_ways));
    core_clos.assign(num_cores, 0);
}

void
CatController::checkClos(unsigned clos) const
{
    if (clos >= masks.size())
        fatal(sformat("CAT: CLOS %u out of range (have %zu)", clos,
                      masks.size()));
}

void
CatController::setClosMask(unsigned clos, WayMask mask)
{
    checkClos(clos);
    if (mask == 0)
        fatal("CAT: empty capacity mask rejected");
    if (mask & ~fullMask(n_ways))
        fatal(sformat("CAT: mask 0x%x has bits beyond way %u", mask,
                      n_ways - 1));
    if (!isContiguous(mask))
        fatal(sformat("CAT: non-contiguous mask 0x%x rejected", mask));
    masks[clos] = mask;
}

WayMask
CatController::closMask(unsigned clos) const
{
    checkClos(clos);
    return masks[clos];
}

void
CatController::assignCore(CoreId core, unsigned clos)
{
    checkClos(clos);
    if (core >= core_clos.size())
        coreOutOfRange(core);
    core_clos[core] = clos;
}

void
CatController::coreOutOfRange(CoreId core)
{
    fatal(sformat("CAT: core %u out of range", core));
}

unsigned
CatController::closOfCore(CoreId core) const
{
    if (core >= core_clos.size())
        coreOutOfRange(core);
    return core_clos[core];
}

void
CatController::resetAll()
{
    for (auto &m : masks)
        m = fullMask(n_ways);
    for (auto &c : core_clos)
        c = 0;
}

bool
CatController::isContiguous(WayMask mask)
{
    if (mask == 0)
        return false;
    // Strip trailing zeros, then the run must be all-ones.
    while (!(mask & 1))
        mask >>= 1;
    return (mask & (mask + 1)) == 0;
}

WayMask
CatController::makeMask(unsigned lo_way, unsigned hi_way)
{
    if (lo_way > hi_way)
        fatal(sformat("CAT: invalid way range [%u:%u]", lo_way, hi_way));
    WayMask m = 0;
    for (unsigned w = lo_way; w <= hi_way; ++w)
        m |= (1u << w);
    return m;
}

std::vector<unsigned>
groupTenants(const std::vector<ClosTenant> &tenants, unsigned budget)
{
    if (budget == 0)
        fatal("groupTenants: zero CLOS budget");
    const std::size_t n = tenants.size();
    std::vector<unsigned> group(n, 0);
    if (n == 0)
        return group;

    // Sort by similarity signal; id breaks every tie so equal signals
    // (e.g. the all-zero samples before the first monitor interval)
    // still order deterministically.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const ClosTenant &ta = tenants[a];
                  const ClosTenant &tb = tenants[b];
                  if (ta.miss_rate != tb.miss_rate)
                      return ta.miss_rate < tb.miss_rate;
                  if (ta.mpa != tb.mpa)
                      return ta.mpa < tb.mpa;
                  return ta.id < tb.id;
              });

    if (n <= budget) {
        for (std::size_t r = 0; r < n; ++r)
            group[order[r]] = static_cast<unsigned>(r);
        return group;
    }

    // Split the sorted sequence at the budget-1 widest gaps: the
    // resulting runs are the groups (classic 1-D single-linkage
    // clustering, exact and deterministic).
    std::vector<std::size_t> gaps(n - 1);
    std::iota(gaps.begin(), gaps.end(), std::size_t{0});
    auto gapMiss = [&](std::size_t i) {
        return tenants[order[i + 1]].miss_rate -
               tenants[order[i]].miss_rate;
    };
    auto gapMpa = [&](std::size_t i) {
        return tenants[order[i + 1]].mpa - tenants[order[i]].mpa;
    };
    std::sort(gaps.begin(), gaps.end(),
              [&](std::size_t a, std::size_t b) {
                  if (gapMiss(a) != gapMiss(b))
                      return gapMiss(a) > gapMiss(b);
                  if (gapMpa(a) != gapMpa(b))
                      return gapMpa(a) > gapMpa(b);
                  return a < b;
              });
    gaps.resize(budget - 1);
    std::sort(gaps.begin(), gaps.end());

    unsigned g = 0;
    std::size_t cut = 0;
    for (std::size_t r = 0; r < n; ++r) {
        group[order[r]] = g;
        if (cut < gaps.size() && gaps[cut] == r) {
            ++g;
            ++cut;
        }
    }
    return group;
}

std::string
CatController::paperHex(WayMask mask) const
{
    // Paper convention: way k maps to bit (numWays-1-k).
    WayMask flipped = 0;
    for (unsigned w = 0; w < n_ways; ++w) {
        if (mask & (1u << w))
            flipped |= (1u << (n_ways - 1 - w));
    }
    return sformat("0x%03X", flipped);
}

} // namespace a4
