/**
 * @file
 * Tests for the sweep-runner subsystem: the Record pipe codec, the
 * Dispatcher's fork()-per-point local lanes, and the Sweep grid API.
 * The load-bearing property is determinism — a parallel run must
 * reproduce the in-process run bit for bit — plus declaration-order
 * reassembly and loud worker-failure propagation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include <unistd.h>

#include "harness/builders.hh"
#include "harness/dispatch.hh"
#include "harness/scenarios.hh"
#include "harness/sweep.hh"

using namespace a4;

namespace
{

/** Run @p n jobs on @p slots local lanes (1 = in-process). */
std::vector<std::string>
runLocal(unsigned slots, std::size_t n,
         const std::function<std::string(std::size_t)> &fn,
         const std::function<std::string(std::size_t)> &label)
{
    DispatchConfig dc;
    dc.bench = "test";
    dc.local_slots = slots;
    return Dispatcher(std::move(dc)).run(n, fn, label);
}

SweepOptions
optsWithJobs(unsigned jobs)
{
    SweepOptions o;
    o.jobs = jobs;
    return o;
}

/** A tiny but real simulation point: deterministic per index. */
Record
miniTestbedPoint(std::size_t index)
{
    ServerConfig cfg;
    cfg.scale = 16;
    Testbed bed(cfg);
    CpuStreamWorkload &w =
        addXmem(bed, "xmem", 1 + unsigned(index % 3), 1);
    Windows win;
    win.warmup = 1 * kMsec;
    win.measure = 2 * kMsec;
    Measurement m(bed, {&w}, win);
    m.run();
    Record r;
    r.set("ops", m.opsPerSec(w));
    r.set("ipc", m.ipc(w));
    r.set("hit", m.sample(w).llcHitRate());
    return r;
}

} // namespace

TEST(Record, NumericRoundTripIsExact)
{
    const double values[] = {0.0,
                             -1.5,
                             1.0 / 3.0,
                             6.02214076e23,
                             -4.9e-324, // denormal
                             1.7976931348623157e308,
                             std::numeric_limits<double>::infinity()};
    Record r;
    for (std::size_t i = 0; i < std::size(values); ++i)
        r.set("k" + std::to_string(i), values[i]);
    r.set("nan", std::nan(""));

    Record back = Record::deserialize(r.serialize());
    for (std::size_t i = 0; i < std::size(values); ++i) {
        const std::string key = "k" + std::to_string(i);
        // Bit-exact, not approximately equal.
        EXPECT_EQ(back.num(key), values[i]) << key;
    }
    EXPECT_TRUE(std::isnan(back.num("nan")));
}

TEST(Record, StringAndKeyEscaping)
{
    Record r;
    r.set("plain", "value");
    r.set("with space", "a b\nc%d");
    r.set("num then str", 1.0);
    r.set("num then str", "overwritten");

    Record back = Record::deserialize(r.serialize());
    EXPECT_EQ(back.str("plain"), "value");
    EXPECT_EQ(back.str("with space"), "a b\nc%d");
    EXPECT_EQ(back.str("num then str"), "overwritten");
    EXPECT_FALSE(back.has("absent"));
    EXPECT_THROW(back.num("plain"), FatalError);
    EXPECT_THROW(back.str("absent"), FatalError);
}

TEST(Record, PreservesEntryOrder)
{
    Record r;
    r.set("z", 1.0);
    r.set("a", 2.0);
    r.set("m", "mid");
    Record back = Record::deserialize(r.serialize());
    ASSERT_EQ(back.entries().size(), 3u);
    EXPECT_EQ(back.entries()[0].key, "z");
    EXPECT_EQ(back.entries()[1].key, "a");
    EXPECT_EQ(back.entries()[2].key, "m");
}

TEST(LocalDispatch, ForkedMatchesInProcess)
{
    auto fn = [](std::size_t i) {
        return "payload-" + std::to_string(i * i);
    };
    auto label = [](std::size_t i) { return std::to_string(i); };
    EXPECT_EQ(runLocal(1, 9, fn, label), runLocal(4, 9, fn, label));
}

TEST(LocalDispatch, ReassemblesInSubmissionOrder)
{
    // Earlier jobs sleep longer, so with 4 workers the completion
    // order is roughly the reverse of the submission order.
    auto fn = [](std::size_t i) {
        ::usleep(useconds_t((8 - i) * 20000));
        return "job-" + std::to_string(i);
    };
    auto label = [](std::size_t i) { return std::to_string(i); };
    auto out = runLocal(4, 8, fn, label);
    ASSERT_EQ(out.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], "job-" + std::to_string(i));
}

TEST(LocalDispatch, ChildFailurePropagatesWithPointName)
{
    auto fn = [](std::size_t i) -> std::string {
        if (i == 2)
            fatal("injected failure");
        return "ok";
    };
    auto label = [](std::size_t i) {
        return "point-" + std::to_string(i);
    };
    try {
        runLocal(3, 5, fn, label);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("point-2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(LocalDispatch, LargePayloadsSurviveThePipe)
{
    // Larger than the 64 KiB pipe buffer: exercises incremental
    // draining in the parent.
    auto fn = [](std::size_t i) {
        return std::string(256 * 1024, char('a' + int(i)));
    };
    auto label = [](std::size_t i) { return std::to_string(i); };
    auto out = runLocal(2, 3, fn, label);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(out[i].size(), 256u * 1024u);
        EXPECT_EQ(out[i][0], char('a' + int(i)));
    }
}

TEST(Sweep, ParallelRunIsBitIdenticalToInProcess)
{
    auto build = [](unsigned jobs) {
        Sweep sw("test", optsWithJobs(jobs));
        for (std::size_t i = 0; i < 6; ++i) {
            sw.add("pt" + std::to_string(i),
                   [i] { return miniTestbedPoint(i); });
        }
        sw.run();
        std::string all;
        for (const std::string &name : sw.names())
            all += name + "\n" + sw.at(name).serialize();
        return all;
    };
    EXPECT_EQ(build(1), build(4));
}

TEST(Sweep, FilterSelectsBySubstring)
{
    SweepOptions opt = optsWithJobs(1);
    opt.filter = "keep";
    Sweep sw("test", opt);
    sw.add("keep/a", [] {
        Record r;
        r.set("v", 1.0);
        return r;
    });
    sw.add("drop/b", [] {
        Record r;
        r.set("v", 2.0);
        return r;
    });
    sw.run();
    EXPECT_NE(sw.find("keep/a"), nullptr);
    EXPECT_EQ(sw.find("drop/b"), nullptr);
    EXPECT_THROW(sw.at("drop/b"), FatalError);
    EXPECT_THROW(sw.find("no-such-point"), FatalError);
    EXPECT_EQ(sw.at("keep/a").num("v"), 1.0);
}

TEST(Sweep, RejectsDuplicatePointsAndDoubleRun)
{
    Sweep sw("test", optsWithJobs(1));
    sw.add("p", [] { return Record(); });
    EXPECT_THROW(sw.add("p", [] { return Record(); }), FatalError);
    sw.run();
    EXPECT_THROW(sw.run(), FatalError);
    EXPECT_THROW(sw.add("q", [] { return Record(); }), FatalError);
}

TEST(Sweep, WriteJsonEmitsAllPoints)
{
    const std::string path = "test_sweep_out.json";
    SweepOptions opt = optsWithJobs(2);
    Sweep sw("jsonbench", opt);
    sw.add("p0", [] {
        Record r;
        r.set("metric", 0.5);
        r.set("label", "x\"y");
        return r;
    });
    sw.add("p1", [] {
        Record r;
        r.set("metric", std::numeric_limits<double>::infinity());
        return r;
    });
    sw.run();
    sw.writeJson(path);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::remove(path.c_str());

    EXPECT_NE(body.find("\"bench\": \"jsonbench\""), std::string::npos);
    EXPECT_NE(body.find("\"schema_version\": 1"), std::string::npos);
    // The recorded worker count is what run() actually used, clamped
    // to the number of selected points.
    EXPECT_NE(body.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(body.find("\"name\": \"p0\""), std::string::npos);
    EXPECT_NE(body.find("\"metric\": 0.5"), std::string::npos);
    EXPECT_NE(body.find("x\\\"y"), std::string::npos);
    // Non-finite numbers must not leak into JSON.
    EXPECT_EQ(body.find("inf"), std::string::npos);
    EXPECT_NE(body.find("\"metric\": null"), std::string::npos);
}

TEST(SweepOptions, CliParsing)
{
    const char *argv[] = {"bench",          "--jobs",  "3",
                          "--filter=dca-on", "--json", "out.json"};
    SweepOptions o = SweepOptions::parse(
        "bench", int(std::size(argv)), const_cast<char **>(argv));
    EXPECT_EQ(o.jobs, 3u);
    EXPECT_EQ(o.filter, "dca-on");
    EXPECT_EQ(o.json_path, "out.json");
    EXPECT_FALSE(o.list);
    EXPECT_EQ(o.effectiveJobs(), 3u);

    const char *argv2[] = {"bench", "-j4", "--list", "--burst", "0"};
    SweepOptions o2 = SweepOptions::parse(
        "bench", int(std::size(argv2)), const_cast<char **>(argv2));
    EXPECT_EQ(o2.jobs, 4u);
    EXPECT_TRUE(o2.list);
    EXPECT_EQ(o2.burst, "0");
    EXPECT_TRUE(o.burst.empty()); // untouched when not passed
}

TEST(SweepOptions, EffectiveJobsHonoursEnv)
{
    const char *saved = std::getenv("A4_JOBS");
    std::string saved_val = saved ? saved : "";

    setenv("A4_JOBS", "7", 1);
    EXPECT_EQ(SweepOptions{}.effectiveJobs(), 7u);

    // Malformed and out-of-range values fall back to the hardware
    // thread count instead of truncating.
    const unsigned hw = std::thread::hardware_concurrency();
    for (const char *bad : {"zero-cores", "4294967296", "4294967297",
                            "99999999999999999999", "-1", ""}) {
        setenv("A4_JOBS", bad, 1);
        EXPECT_EQ(SweepOptions{}.effectiveJobs(), hw ? hw : 1u) << bad;
    }
    setenv("A4_JOBS", "4294967295", 1);
    EXPECT_EQ(SweepOptions{}.effectiveJobs(), 4294967295u);

    unsetenv("A4_JOBS");
    EXPECT_GE(SweepOptions{}.effectiveJobs(), 1u);

    if (saved)
        setenv("A4_JOBS", saved_val.c_str(), 1);
}

TEST(SweepOptions, JobsRejectsOutOfRangeCounts)
{
    // Each is rejected like "abc": one line naming the value, exit 2
    // (never a silent wrap to 0 = "all cores").
    for (const char *bad : {"abc", "0", "4294967296",
                            "99999999999999999999"}) {
        const char *argv[] = {"bench", "--jobs", bad};
        EXPECT_EXIT(SweepOptions::parse("bench", 3,
                                        const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(2),
                    std::string("bad --jobs value '") + bad + "'");
    }
    const char *argv[] = {"bench", "-j4294967295"};
    EXPECT_EQ(SweepOptions::parse("bench", 2, const_cast<char **>(argv))
                  .jobs,
              4294967295u);
}

TEST(ScenarioCodec, ScenarioResultRoundTrips)
{
    ScenarioResult s;
    for (int i = 0; i < 3; ++i) {
        WorkloadResult w;
        w.name = "wl-" + std::to_string(i);
        w.hpw = i == 0;
        w.multithread_io = i == 1;
        w.perf = 1.0 / 3.0 * (i + 1);
        w.llc_hit_rate = 0.9 - 0.1 * i;
        w.antagonist = i == 2;
        w.tail_latency_us = 100.5 * i;
        s.workloads.push_back(w);
    }
    s.fc_nic_to_host_us = 1.5;
    s.ffsbh_regex_ms = 2.25;
    s.mem_rd_gbps = 40.0 / 3.0;
    s.past_events = 3.0;

    ScenarioResult back = scenarioResultFrom(
        Record::deserialize(toRecord(s).serialize()));
    ASSERT_EQ(back.workloads.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(back.workloads[i].name, s.workloads[i].name);
        EXPECT_EQ(back.workloads[i].hpw, s.workloads[i].hpw);
        EXPECT_EQ(back.workloads[i].multithread_io,
                  s.workloads[i].multithread_io);
        EXPECT_EQ(back.workloads[i].perf, s.workloads[i].perf);
        EXPECT_EQ(back.workloads[i].llc_hit_rate,
                  s.workloads[i].llc_hit_rate);
        EXPECT_EQ(back.workloads[i].antagonist,
                  s.workloads[i].antagonist);
        EXPECT_EQ(back.workloads[i].tail_latency_us,
                  s.workloads[i].tail_latency_us);
    }
    EXPECT_EQ(back.fc_nic_to_host_us, s.fc_nic_to_host_us);
    EXPECT_EQ(back.ffsbh_regex_ms, s.ffsbh_regex_ms);
    EXPECT_EQ(back.mem_rd_gbps, s.mem_rd_gbps);
    EXPECT_EQ(back.past_events, s.past_events);
    // find() still works on the reconstructed struct.
    ASSERT_NE(back.find("wl-1"), nullptr);
    EXPECT_EQ(back.find("nope"), nullptr);
}
