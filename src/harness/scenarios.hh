/**
 * @file
 * The paper's evaluation scenarios (§7) as reusable harness pieces:
 * the management schemes and the real-world HPW-heavy / LPW-heavy
 * mixes (Fig. 13/14/15), runnable under every scheme (Default,
 * Isolate, A4-a..d). The microbenchmark co-run (Fig. 11/12) is the
 * registered `micro` spec, projected by its sweeps' record=select
 * metrics.
 */

#ifndef A4_HARNESS_SCENARIOS_HH
#define A4_HARNESS_SCENARIOS_HH

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/testbed.hh"

namespace a4
{

/**
 * LLC management scheme under evaluation. `Static` is the
 * motivation-figure setup (Figs. 3-8): no manager at all, the spec's
 * way pins programmed directly into CAT (CLOS 1, 2, ... in list
 * order) — exactly the hand-wired `pinWays` testbeds.
 */
enum class Scheme { Default, Isolate, A4a, A4b, A4c, A4d, Static };

const char *schemeName(Scheme s);

/** All evaluated schemes, in bench display order. */
std::span<const Scheme> allSchemes();

/** Inverse of schemeName(); nullopt for unknown names. */
std::optional<Scheme> schemeFromName(const std::string &name);

/** True for the A4 variants. */
inline bool
isA4(Scheme s)
{
    return s == Scheme::A4a || s == Scheme::A4b || s == Scheme::A4c ||
           s == Scheme::A4d;
}

/** Ablation letter for an A4 scheme. */
char a4Letter(Scheme s);

/** Per-workload outcome of a scenario run. */
struct WorkloadResult
{
    std::string name;
    bool hpw = false;        ///< original QoS
    bool multithread_io = false; ///< perf = throughput, else IPC
    double perf = 0.0;       ///< ops-throughput or IPC (absolute)
    double llc_hit_rate = 0.0;
    bool antagonist = false; ///< flagged by A4 during the run
    double tail_latency_us = 0.0; ///< I/O workloads only
};

/** Scenario-wide outcome. */
struct ScenarioResult
{
    std::vector<WorkloadResult> workloads;

    // Fig. 14a: Fastclick latency breakdown (us).
    double fc_nic_to_host_us = 0.0;
    double fc_pointer_us = 0.0;
    double fc_process_us = 0.0;

    // Fig. 14b: FFSB-H latency breakdown (ms).
    double ffsbh_read_ms = 0.0;
    double ffsbh_regex_ms = 0.0;
    double ffsbh_write_ms = 0.0;

    // Fig. 14c: system-wide I/O throughput (paper-equivalent GB/s).
    double fc_rd_gbps = 0.0;
    double fc_wr_gbps = 0.0;
    double ffsbh_rd_gbps = 0.0;
    double ffsbh_wr_gbps = 0.0;

    // Fig. 14d: memory bandwidth (paper-equivalent GB/s).
    double mem_rd_gbps = 0.0;
    double mem_wr_gbps = 0.0;

    /** Engine::pastEvents() after the run: past-dated schedules the
     *  release build clamped to now(). Anything non-zero means an
     *  actor slipped and the figure numbers are suspect. */
    double past_events = 0.0;

    const WorkloadResult *find(const std::string &name) const;

    /** Geometric-mean relative performance vs @p baseline. */
    static double avgRelative(const ScenarioResult &r,
                              const ScenarioResult &baseline,
                              std::optional<bool> hpw_filter);
};

/** Knobs for a real-world scenario run. */
struct ScenarioOptions
{
    /** Warm-up covers the A4 convergence transient (~40 monitoring
     *  intervals at the compressed 5 ms period); the environment
     *  knobs (A4_TEST_DURATION_SCALE / A4_BENCH_WINDOWS_MS) adjust
     *  it like every other bench window. */
    Windows windows = Windows::fromEnv(Windows{250 * kMsec, 100 * kMsec});
    /** Overrides thresholds/timing of the A4 variants (Fig. 15). */
    std::optional<A4Params> a4_override;
};

/**
 * Run the Table-2 real-world mix (HPW-heavy: 7 HPWs + 4 LPWs;
 * LPW-heavy: 4 HPWs + 8 LPWs) under @p scheme.
 */
ScenarioResult runRealWorldScenario(bool hpw_heavy, Scheme scheme,
                                    const ScenarioOptions &opt = {});

/** @name Sweep-pipe codec for ScenarioResult. @{ */
Record toRecord(const ScenarioResult &r);
ScenarioResult scenarioResultFrom(const Record &r);
/** @} */

} // namespace a4

#endif // A4_HARNESS_SCENARIOS_HH
