/**
 * @file
 * Failure-matrix tests for the fault-tolerant dispatcher: every
 * recovery path — child crash, hang past the point timeout, corrupt
 * payload, truncated pipe frame, connection drop mid-RESULT, version
 * skew, all-workers-dead degradation — must converge to output
 * byte-identical to a clean in-process run, and exhausting the retry
 * budget must fail loudly naming the point and the lane.
 *
 * Faults are injected deterministically via $A4_FAULT (attempt 0
 * only), so each test pins one ladder rung exactly once.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/dispatch.hh"
#include "harness/spec.hh"
#include "harness/sweep.hh"
#include "harness/worker.hh"
#include "sim/log.hh"

using namespace a4;

namespace
{

/** Set an env var for one test, restoring the old value after. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *key, const char *value) : key_(key)
    {
        const char *old = std::getenv(key);
        had_ = old != nullptr;
        old_ = old ? old : "";
        if (value)
            ::setenv(key, value, 1);
        else
            ::unsetenv(key);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(key_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(key_.c_str());
    }

  private:
    std::string key_, old_;
    bool had_ = false;
};

// ----------------------------------------------------------------
// Local-lane failure model (trivial payload closures)

std::string
trivialPayload(std::size_t i)
{
    return "payload-" + std::to_string(i);
}

std::string
trivialLabel(std::size_t i)
{
    return "pt" + std::to_string(i);
}

DispatchConfig
localConfig(unsigned slots)
{
    DispatchConfig dc;
    dc.bench = "disp_test";
    dc.local_slots = slots;
    return dc;
}

void
expectTrivialResults(const std::vector<std::string> &results,
                     std::size_t n)
{
    ASSERT_EQ(results.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(results[i], trivialPayload(i)) << i;
}

TEST(Dispatch, CleanLocalRunMatchesInProcess)
{
    Dispatcher d(localConfig(3));
    expectTrivialResults(d.run(6, trivialPayload, trivialLabel), 6);
    EXPECT_EQ(d.stats().retries, 0u);
    EXPECT_EQ(d.stats().redispatches, 0u);
    EXPECT_EQ(d.stats().remote_points, 0u);
}

TEST(Dispatch, ChildCrashRetriesOnceAndRecovers)
{
    ScopedEnv fault("A4_FAULT", "crash:pt2");
    Dispatcher d(localConfig(3));
    expectTrivialResults(d.run(5, trivialPayload, trivialLabel), 5);
    EXPECT_EQ(d.stats().retries, 1u);
}

TEST(Dispatch, HangIsKilledByPointTimeoutAndRetried)
{
    ScopedEnv fault("A4_FAULT", "hang:pt1");
    DispatchConfig dc = localConfig(2);
    dc.point_timeout_s = 0.5;
    Dispatcher d(std::move(dc));
    expectTrivialResults(d.run(4, trivialPayload, trivialLabel), 4);
    // >= not ==: under heavy parallel-ctest load a legitimate point
    // can also trip the (tight, test-only) timeout; every such retry
    // must still recover to the same bytes.
    EXPECT_GE(d.stats().retries, 1u);
}

TEST(Dispatch, CorruptPayloadIsRejectedByChecksumAndRetried)
{
    ScopedEnv fault("A4_FAULT", "corrupt:pt0");
    Dispatcher d(localConfig(2));
    expectTrivialResults(d.run(3, trivialPayload, trivialLabel), 3);
    EXPECT_EQ(d.stats().retries, 1u);
}

TEST(Dispatch, TruncatedPipeFrameIsRejectedByLengthAndRetried)
{
    ScopedEnv fault("A4_FAULT", "drop:pt0");
    Dispatcher d(localConfig(2));
    expectTrivialResults(d.run(3, trivialPayload, trivialLabel), 3);
    EXPECT_EQ(d.stats().retries, 1u);
}

TEST(Dispatch, MultipleFaultClausesEachFireOnce)
{
    ScopedEnv fault("A4_FAULT", "crash:pt0,corrupt:pt3,drop:pt4");
    Dispatcher d(localConfig(3));
    expectTrivialResults(d.run(6, trivialPayload, trivialLabel), 6);
    EXPECT_EQ(d.stats().retries, 3u);
}

TEST(Dispatch, ExhaustedRetryBudgetNamesPointAndLane)
{
    auto fn = [](std::size_t i) -> std::string {
        if (i == 1)
            fatal("always failing");
        return trivialPayload(i);
    };
    DispatchConfig dc = localConfig(2);
    dc.retry_budget = 1;
    Dispatcher d(std::move(dc));
    try {
        d.run(4, fn, trivialLabel);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'pt1'"), std::string::npos) << what;
        EXPECT_NE(what.find("local pool"), std::string::npos) << what;
        EXPECT_NE(what.find("retry budget exhausted"),
                  std::string::npos) << what;
    }
}

TEST(Dispatch, MalformedWorkerAddressIsFatal)
{
    DispatchConfig dc = localConfig(2);
    dc.workers = {"no-port-here"};
    dc.sweep_text = "sweep = x\n";
    Dispatcher d(std::move(dc));
    EXPECT_THROW(d.run(2, trivialPayload, trivialLabel), FatalError);
}

TEST(Dispatch, FaultEnvRejectsMalformedValues)
{
    for (const char *bad : {"explode:pt0", "crash", "crash:", ":pt0"}) {
        ScopedEnv fault("A4_FAULT", bad);
        EXPECT_EQ(faultEnv(), "") << bad;
    }
    ScopedEnv fault("A4_FAULT", "crash:pt0,hang:pt1");
    EXPECT_EQ(faultEnv(), "crash:pt0,hang:pt1");
    EXPECT_EQ(faultFor(faultEnv(), "pt0", 0), FaultKind::Crash);
    EXPECT_EQ(faultFor(faultEnv(), "pt1", 0), FaultKind::Hang);
    EXPECT_EQ(faultFor(faultEnv(), "pt2", 0), FaultKind::None);
    // Attempt 0 only: the retry must run clean.
    EXPECT_EQ(faultFor(faultEnv(), "pt0", 1), FaultKind::None);
}

TEST(Dispatch, EnvKnobParsers)
{
    {
        ScopedEnv t("A4_POINT_TIMEOUT", "2.5");
        ScopedEnv r("A4_POINT_RETRIES", "5");
        ScopedEnv w("A4_WORKERS", "a:1, b:2,,c:3");
        EXPECT_DOUBLE_EQ(pointTimeoutFromEnv(), 2.5);
        EXPECT_EQ(retryBudgetFromEnv(), 5u);
        const std::vector<std::string> want = {"a:1", "b:2", "c:3"};
        EXPECT_EQ(workersFromEnv(), want);
    }
    {
        ScopedEnv t("A4_POINT_TIMEOUT", "nope");
        ScopedEnv r("A4_POINT_RETRIES", "-2");
        EXPECT_DOUBLE_EQ(pointTimeoutFromEnv(), 0.0);
        EXPECT_EQ(retryBudgetFromEnv(), 2u);
    }
    // Zero retries and the largest count are counts; one past it and
    // far past it (which a bare cast would wrap) keep the fallback.
    for (const auto &[text, want] :
         std::vector<std::pair<const char *, unsigned>>{
             {"0", 0u},
             {"4294967295", 4294967295u},
             {"4294967296", 2u},
             {"99999999999999999999999", 2u},
             {"3x", 2u},
             {"", 2u}}) {
        ScopedEnv r("A4_POINT_RETRIES", text);
        EXPECT_EQ(retryBudgetFromEnv(), want) << "'" << text << "'";
    }
}

TEST(LocalDispatch, FaultInjectedCrashMatchesInProcessRun)
{
    auto label = [](std::size_t i) { return "jp" + std::to_string(i); };
    std::vector<std::string> reference =
        Dispatcher(localConfig(1)).run(5, trivialPayload, label);
    ScopedEnv fault("A4_FAULT", "crash:jp3");
    Dispatcher d(localConfig(3));
    EXPECT_EQ(d.run(5, trivialPayload, label), reference);
    EXPECT_EQ(d.stats().retries, 1u);
}

TEST(LocalDispatch, FaultInjectionDoesNotApplyInProcess)
{
    // local_slots == 1 is the clean reference path: no forks, no
    // frames, no faults — a crash clause for its points must be inert.
    ScopedEnv fault("A4_FAULT", "crash:jp0");
    auto label = [](std::size_t i) { return "jp" + std::to_string(i); };
    Dispatcher d(localConfig(1));
    EXPECT_EQ(d.run(2, trivialPayload, label)[0], trivialPayload(0));
    EXPECT_EQ(d.stats().retries, 0u);
}

// ----------------------------------------------------------------
// Remote lanes: a real forked a4worker over a real mini sweep

/** A tiny but real declarative sweep: 6 xmem points, sub-millisecond
 *  windows, exercising the full JOB -> runSweepPointRecord path. */
const char *kSweepText =
    "sweep = disp_test\n"
    "record = select\n"
    "base.scheme = Default\n"
    "base.warmup_ns = 500000\n"
    "base.measure_ns = 1000000\n"
    "base.workload = x0\n"
    "base.x0.kind = xmem\n"
    "base.x0.cores = 1\n"
    "metric = ipc: x0.ipc\n"
    "metric = hit: x0.hit\n"
    "axis = v\n"
    "v.key = x0.variant\n"
    "v.values = 1,2,3\n"
    "axis = c\n"
    "c.key = x0.cores\n"
    "c.values = 1,2\n"
    "grid = g\n"
    "g.point = v{v}/c{c}\n"
    "g.axes = v,c\n";

/** Drop the nondeterministic wall-clock keys before comparison. */
std::string
stripWall(const std::string &payload)
{
    Record in = Record::deserialize(payload);
    Record out;
    for (const Record::Entry &e : in.entries()) {
        if (e.key == "warmup_s" || e.key == "measure_s")
            continue;
        if (e.is_num)
            out.set(e.key, e.num);
        else
            out.set(e.key, e.str);
    }
    return out.serialize();
}

struct MiniSweep
{
    SweepSpec spec;
    std::vector<std::string> names;

    MiniSweep() : spec(parseSweepSpec(kSweepText, "disp_test"))
    {
        for (const SweepPoint &p : expandSweepSpec(spec, "disp_test"))
            names.push_back(p.name);
    }

    std::string payload(std::size_t i) const
    {
        return runSweepPointRecord(spec, names[i], "disp_test")
            .serialize();
    }

    std::string label(std::size_t i) const { return names[i]; }

    /** In-process reference payloads, wall keys stripped. */
    std::vector<std::string> reference() const
    {
        std::vector<std::string> out;
        for (std::size_t i = 0; i < names.size(); ++i)
            out.push_back(stripWall(payload(i)));
        return out;
    }
};

/** A forked a4worker serving on an ephemeral loopback port. */
struct WorkerProc
{
    pid_t pid = -1;
    std::uint16_t port = 0;

    ~WorkerProc() { stop(); }
    WorkerProc() = default;
    WorkerProc(WorkerProc &&o) : pid(o.pid), port(o.port)
    {
        o.pid = -1;
    }
    WorkerProc(const WorkerProc &) = delete;

    void stop()
    {
        if (pid <= 0)
            return;
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        pid = -1;
    }

    std::string addr() const
    {
        return "127.0.0.1:" + std::to_string(port);
    }
};

WorkerProc
spawnWorker(const char *build_override = nullptr)
{
    WorkerOptions opt; // loopback, ephemeral port
    auto server = std::make_unique<WorkerServer>(opt);
    WorkerProc w;
    w.port = server->port();
    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid == 0) {
        if (build_override)
            ::setenv("A4_BUILD_TAG", build_override, 1);
        server->serveForever(); // never returns
    }
    w.pid = pid;
    return w; // parent's WorkerServer closes its listen-fd copy here
}

DispatchConfig
remoteConfig(const std::vector<WorkerProc> &workers,
             unsigned local_slots = 1)
{
    DispatchConfig dc;
    dc.bench = "disp_test";
    dc.local_slots = local_slots;
    dc.sweep_text = kSweepText;
    for (const WorkerProc &w : workers)
        dc.workers.push_back(w.addr());
    return dc;
}

void
runRemoteAndExpectReference(DispatchConfig dc, const MiniSweep &mini,
                            DispatchStats &stats_out)
{
    Dispatcher d(std::move(dc));
    std::vector<std::string> got = d.run(
        mini.names.size(),
        [&](std::size_t i) { return mini.payload(i); },
        [&](std::size_t i) { return mini.label(i); });
    stats_out = d.stats();
    const std::vector<std::string> want = mini.reference();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(stripWall(got[i]), want[i]) << mini.names[i];
}

TEST(DispatchRemote, TwoWorkersMatchInProcessByteForByte)
{
    MiniSweep mini;
    std::vector<WorkerProc> workers;
    workers.push_back(spawnWorker());
    workers.push_back(spawnWorker());
    DispatchStats stats;
    runRemoteAndExpectReference(remoteConfig(workers), mini, stats);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.redispatches, 0u);
    EXPECT_EQ(stats.workers_lost, 0u);
    // The remote lanes actually carried work (dispatch prefers them).
    EXPECT_GE(stats.remote_points, 1u);
}

TEST(DispatchRemote, WorkerCrashMidPointRecovers)
{
    MiniSweep mini;
    ScopedEnv fault("A4_FAULT", ("crash:" + mini.names[0]).c_str());
    std::vector<WorkerProc> workers;
    workers.push_back(spawnWorker());
    DispatchStats stats;
    runRemoteAndExpectReference(remoteConfig(workers), mini, stats);
    EXPECT_EQ(stats.retries, 1u);
}

TEST(DispatchRemote, HangPastTimeoutRecovers)
{
    MiniSweep mini;
    ScopedEnv fault("A4_FAULT", ("hang:" + mini.names[1]).c_str());
    DispatchStats stats;
    std::vector<WorkerProc> workers;
    workers.push_back(spawnWorker());
    DispatchConfig dc = remoteConfig(workers);
    dc.point_timeout_s = 1.0;
    runRemoteAndExpectReference(std::move(dc), mini, stats);
    // >= not ==: a loaded machine can time out a legitimate point too;
    // recovery must still converge to the reference bytes.
    EXPECT_GE(stats.retries, 1u);
}

TEST(DispatchRemote, CorruptPayloadRecovers)
{
    MiniSweep mini;
    ScopedEnv fault("A4_FAULT", ("corrupt:" + mini.names[2]).c_str());
    std::vector<WorkerProc> workers;
    workers.push_back(spawnWorker());
    DispatchStats stats;
    runRemoteAndExpectReference(remoteConfig(workers), mini, stats);
    EXPECT_EQ(stats.retries, 1u);
}

TEST(DispatchRemote, ConnectionDropMidResultRedispatches)
{
    MiniSweep mini;
    ScopedEnv fault("A4_FAULT", ("drop:" + mini.names[0]).c_str());
    std::vector<WorkerProc> workers;
    workers.push_back(spawnWorker());
    DispatchStats stats;
    runRemoteAndExpectReference(remoteConfig(workers), mini, stats);
    // Worker loss, not the point's fault: a free re-dispatch.
    EXPECT_GE(stats.redispatches, 1u);
}

TEST(DispatchRemote, VersionSkewedWorkerIsRefusedLoudly)
{
    MiniSweep mini;
    std::vector<WorkerProc> workers;
    workers.push_back(spawnWorker("skewed-build-tag"));
    DispatchStats stats;
    runRemoteAndExpectReference(remoteConfig(workers, 2), mini, stats);
    // The skewed worker is retired permanently; everything ran local.
    EXPECT_EQ(stats.workers_lost, 1u);
    EXPECT_EQ(stats.remote_points, 0u);
}

TEST(DispatchRemote, AllWorkersDeadDegradesToLocalPool)
{
    MiniSweep mini;
    DispatchConfig dc;
    dc.bench = "disp_test";
    dc.local_slots = 2;
    dc.sweep_text = kSweepText;
    // Port 1 on loopback: nobody listens, connects fail instantly.
    dc.workers = {"127.0.0.1:1"};
    dc.connect_timeout_s = 0.5;
    dc.reconnect_attempts = 1;
    dc.reconnect_backoff_s = 0.05;
    DispatchStats stats;
    runRemoteAndExpectReference(std::move(dc), mini, stats);
    EXPECT_EQ(stats.workers_lost, 1u);
    EXPECT_EQ(stats.remote_points, 0u);
}

TEST(DispatchRemote, SweepRunWithWorkersMatchesLocalRecords)
{
    // The full Sweep::run path: --workers wiring, setRemoteSweep,
    // dispatch stats. Local jobs=1 is the byte-identity reference.
    MiniSweep mini;
    WorkerProc worker = spawnWorker();

    SweepOptions local_opt;
    local_opt.jobs = 1;
    Sweep local("disp_test", local_opt);
    expandSweep(mini.spec, local);
    local.run();

    SweepOptions remote_opt;
    remote_opt.jobs = 2;
    remote_opt.workers = worker.addr();
    Sweep remote("disp_test", remote_opt);
    expandSweep(mini.spec, remote);
    remote.run();

    for (const std::string &name : mini.names) {
        EXPECT_EQ(stripWall(remote.at(name).serialize()),
                  stripWall(local.at(name).serialize()))
            << name;
    }
    EXPECT_EQ(remote.dispatchStats().retries, 0u);
}

} // namespace
