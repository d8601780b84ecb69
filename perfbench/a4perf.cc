/**
 * @file
 * a4perf — host-time benchmark of the A4 simulator.
 *
 * One repetition is one cold simulation point, run in process on a
 * single thread: spec text -> parseSpec() -> runSpec() -> toRecord(),
 * exactly what `a4sim -j1` does for one scenario. The timed mode
 * repeats that for a fixed host-time budget and reports each
 * repetition as one JSON line; perfbench/run.py turns the lines into
 * the benchmark's metrics.
 *
 * The traced mode alternates a timed repetition with a traced one.
 * The traced repetition assembles the same mix from the public
 * Testbed / builders.hh / A4Manager / Measurement calls, times each
 * phase from outside (spans), reads every module's public counters
 * over the measure window, audits the cache invariants, and checks
 * that its Record is byte-identical to the timed repetition's.
 *
 *   a4perf --workload corun-xmem --seed 0 --seconds 20 [--trace]
 *          [--spans PATH]
 *   a4perf --self-test     equivalence + seed checks at tiny windows
 *
 * Every point runs with all inherited A4_* environment knobs cleared
 * and $A4_SEED set to --seed, so a developer's shell cannot change
 * what is measured (a leftover A4_CKPT_DIR would turn the warm-up
 * into a restore).
 */

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/builders.hh"
#include "harness/experiment.hh"
#include "harness/spec.hh"
#include "sim/log.hh"

extern char **environ;

using namespace a4;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * This process's own peak resident set (VmHWM, KiB). getrusage()'s
 * ru_maxrss is not used: Linux carries it across exec, so it would
 * report the launching process's peak when that one was larger.
 */
double
peakRssKib()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    return kib;
}

// --------------------------------------------------------------------
// Workloads

/**
 * A benchmark workload: a registered scenario plus overrides. All run
 * under A4-d. `hp` names the high-priority I/O tenant whose p99 is
 * the model's headline number.
 */
struct BenchWorkload
{
    const char *name;
    const char *scenario;
    std::vector<std::string> sets;
    const char *hp;
};

const std::vector<BenchWorkload> &
benchWorkloads()
{
    static const std::vector<BenchWorkload> w = {
        // Fig. 12's A4-d/block=64KB point: X-Mem streams make the
        // core-access path dominant.
        {"corun-xmem", "micro",
         {"dpdk-t.packet_bytes=1514", "fio.block_bytes=65536"},
         "dpdk-t"},
        // 256 B DPDK-T beside a 1024 B DPDK-NT bulk receiver: DMA-write
        // allocation and NIC deferral dominate, few core accesses.
        {"nic-flood", "dual-nic", {}, "dpdk-a"},
        // NIC -> parse -> NVMe -> NIC against ffsb-heavy FIO: the only
        // mix with heavy egress DMA reads.
        {"storage-server", "storage-server", {}, "ss"},
    };
    return w;
}

const BenchWorkload *
findBenchWorkload(const std::string &name)
{
    for (const BenchWorkload &w : benchWorkloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

/**
 * Measured windows: 1/25 of the scenarios' nominal 250/100 ms. The
 * slowest point (corun-xmem) takes 1.5-2 s, so a run holds enough
 * cold points for a steady median, and the A4 daemon (5 ms intervals)
 * still ticks twice in the warm-up and once in the measure window.
 */
constexpr Tick kWarmupNs = 10 * kMsec;
constexpr Tick kMeasureNs = 5 * kMsec;

/** Self-test windows: the A4 daemon still ticks once. */
constexpr Tick kTinyWarmupNs = 6 * kMsec;
constexpr Tick kTinyMeasureNs = 3 * kMsec;

/** The seed held out from tuning; the self-test runs it too. */
constexpr std::uint64_t kHeldOutSeed = 104729;

std::string
specText(const BenchWorkload &w, Tick warmup, Tick measure)
{
    const RegisteredScenario *reg = findScenario(w.scenario);
    if (reg == nullptr)
        fatal(sformat("a4perf: scenario '%s' is not registered",
                      w.scenario));
    ScenarioSpec spec = reg->spec;
    std::vector<std::string> sets = {
        "scheme=A4-d",
        sformat("warmup_ns=%llu", (unsigned long long)warmup),
        sformat("measure_ns=%llu", (unsigned long long)measure)};
    sets.insert(sets.end(), w.sets.begin(), w.sets.end());
    applySpecOverrides(spec, sets, "a4perf");
    return serializeSpec(spec);
}

// --------------------------------------------------------------------
// Environment pinning

/** Knobs whose values the output reports (all cleared per point). */
const char *const kKnobs[] = {
    "A4_CKPT_DIR",     "A4_NIC_BURST",           "A4_NVME_LAZY",
    "A4_ENGINE_QUEUE", "A4_TEST_DURATION_SCALE", "A4_BENCH_WINDOWS_MS",
    "A4_WORKERS",      "A4_FAULT",
};

/** Clear every A4_* variable, then export the seed; returns the
 *  name=value pairs that were cleared. */
std::vector<std::pair<std::string, std::string>>
pinEnvironment(std::uint64_t seed)
{
    std::vector<std::pair<std::string, std::string>> cleared;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("A4_", 0) != 0)
            continue;
        const std::size_t eq = kv.find('=');
        cleared.emplace_back(kv.substr(0, eq),
                             eq == std::string::npos ? ""
                                                     : kv.substr(eq + 1));
    }
    for (const auto &[name, value] : cleared)
        unsetenv(name.c_str());
    setenv("A4_SEED", std::to_string(seed).c_str(), 1);
    return cleared;
}

// --------------------------------------------------------------------
// JSON output

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += char(c);
        } else if (c < 0x20) {
            out += sformat("\\u%04x", c);
        } else {
            out += char(c);
        }
    }
    return out + "\"";
}

std::string
jsonNum(double v)
{
    return std::isfinite(v) ? sformat("%.17g", v) : std::string("null");
}

/** One flat JSON object built field by field. */
class JsonLine
{
  public:
    JsonLine &
    raw(const std::string &key, const std::string &json)
    {
        body += (body.empty() ? "" : ", ") + jsonStr(key) + ": " + json;
        return *this;
    }
    JsonLine &num(const std::string &k, double v) { return raw(k, jsonNum(v)); }
    JsonLine &str(const std::string &k, const std::string &v)
    {
        return raw(k, jsonStr(v));
    }
    JsonLine &flag(const std::string &k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    std::string text() const { return "{" + body + "}"; }
    void print() const { std::printf("%s\n", text().c_str()); }

  private:
    std::string body;
};

// --------------------------------------------------------------------
// Correctness checks

/** Empty when @p r passes; otherwise the first violated check. */
std::string
checkResult(const SpecResult &r, const std::string &hp)
{
    if (r.past_events != 0.0)
        return sformat("past_events = %g", r.past_events);
    if (!std::isfinite(r.mem_rd_bw_bps) || r.mem_rd_bw_bps < 0.0 ||
        !std::isfinite(r.mem_wr_bw_bps) || r.mem_wr_bw_bps < 0.0)
        return "memory bandwidth out of range";
    bool hp_seen = false;
    for (const SpecWorkloadResult &w : r.workloads) {
        auto bad = [&](const char *what) {
            return sformat("%s: %s out of range", w.name.c_str(), what);
        };
        auto unit = [](double v) {
            return std::isfinite(v) && v >= 0.0 && v <= 1.0;
        };
        auto nonneg = [](double v) { return std::isfinite(v) && v >= 0.0; };
        if (!std::isfinite(w.perf) || w.perf <= 0.0)
            return bad("perf");
        if (!nonneg(w.ipc))
            return bad("ipc");
        if (!unit(w.llc_hit_rate) || !unit(w.llc_miss_rate) ||
            !unit(w.mpa))
            return bad("LLC rate");
        if (!nonneg(w.dca_leak))
            return bad("dca_leak");
        if (!nonneg(w.tail_latency_us) || !nonneg(w.lat_mean_ns))
            return bad("latency");
        if (!nonneg(w.ingress_bytes) || !nonneg(w.egress_bytes))
            return bad("PCIe bytes");
        if (w.name == hp) {
            hp_seen = true;
            if (w.tail_latency_us <= 0.0 || w.ingress_bytes <= 0.0)
                return bad("high-priority tenant latency/ingress");
        }
    }
    if (!hp_seen)
        return sformat("high-priority tenant '%s' missing", hp.c_str());
    return "";
}

double
hpP99Us(const SpecResult &r, const std::string &hp)
{
    const SpecWorkloadResult *w = r.find(hp);
    return w ? w->tail_latency_us : 0.0;
}

// --------------------------------------------------------------------
// Timed point: exactly the a4sim -j1 path

struct TimedPoint
{
    double point_s = 0.0;
    double parse_s = 0.0;
    double setup_s = 0.0; ///< parse + construction + warm-up
    double sim_us_per_s = 0.0;
    SpecResult result;
    std::string record;
};

TimedPoint
timedPoint(const std::string &text, std::uint64_t seed)
{
    pinEnvironment(seed);
    TimedPoint p;
    const auto t0 = Clock::now();
    const ScenarioSpec spec = parseSpec(text, "a4perf");
    p.parse_s = secondsSince(t0);
    p.result = runSpec(spec);
    const Record rec = toRecord(p.result);
    p.point_s = secondsSince(t0);
    p.record = rec.serialize();
    p.setup_s = p.parse_s + p.result.warmup_wall_s;
    p.sim_us_per_s =
        double(p.result.measure_window) / 1e3 / p.result.measure_wall_s;
    return p;
}

// --------------------------------------------------------------------
// Spans

struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the tracer's epoch
    double end = 0.0;
    int parent = -1;    ///< index into the span list, -1 = root
    unsigned point = 0; ///< repetition the span belongs to
};

/** In-memory span recorder; written out once, at exit. */
class Tracer
{
  public:
    int
    open(const std::string &name, unsigned point)
    {
        Span s;
        s.name = name;
        s.start = secondsSince(epoch);
        s.parent = stack.empty() ? -1 : stack.back();
        s.point = point;
        spans_.push_back(std::move(s));
        stack.push_back(int(spans_.size()) - 1);
        return stack.back();
    }

    /** Close the innermost span; returns its duration (s). */
    double
    close()
    {
        Span &s = spans_[std::size_t(stack.back())];
        stack.pop_back();
        s.end = secondsSince(epoch);
        return s.end - s.start;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Per span name: {count, total s, self s}; self time is the
     *  span's duration minus the part its child spans cover. */
    std::map<std::string, std::vector<double>>
    selfTimes() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child[std::size_t(s.parent)] += s.end - s.start;
        }
        std::map<std::string, std::vector<double>> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            std::vector<double> &v = out[spans_[i].name];
            v.resize(3, 0.0);
            const double dur = spans_[i].end - spans_[i].start;
            v[0] += 1.0;
            v[1] += dur;
            v[2] += dur - child[i];
        }
        return out;
    }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            JsonLine l;
            l.num("id", double(i))
                .str("name", s.name)
                .num("start_s", s.start)
                .num("end_s", s.end)
                .num("parent", double(s.parent))
                .num("point", double(s.point));
            std::fprintf(f, "%s\n", l.text().c_str());
        }
        return std::fclose(f) == 0;
    }

  private:
    Clock::time_point epoch = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack;
};

/** RAII span; the duration is kept for the caller. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tr, const std::string &name, unsigned point,
               double &out)
        : tr(tr), out(out)
    {
        tr.open(name, point);
    }
    ~ScopedSpan() { out = tr.close(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tr;
    double &out;
};

// --------------------------------------------------------------------
// Traced point: the same mix from the public assembly calls

/** Devices the traced assembly keeps for their counters. */
struct Devices
{
    std::vector<Nic *> nics;
    std::vector<SsdArray *> ssds;
};

/** Reject knobs the traced assembly does not reproduce. */
void
requireKnobs(const WorkloadSpec &w, std::vector<std::string> allowed)
{
    for (const SpecKnob &k : w.knobs) {
        bool ok = false;
        for (const std::string &a : allowed)
            ok = ok || k.key == a;
        if (!ok)
            fatal(sformat("a4perf: traced assembly does not reproduce "
                          "knob '%s.%s'", w.name.c_str(), k.key.c_str()));
    }
}

/**
 * Construct one entry with the same allocation order as the spec
 * layer's kind factories (device port first, then id and cores).
 * Knob handling mirrors those factories for the knobs the benchmark
 * mixes use; the self-test proves the Records match.
 */
Workload &
buildEntry(Testbed &bed, const WorkloadSpec &w, Devices &dev)
{
    const unsigned scale = bed.config().scale;
    if (w.kind == "dpdk") {
        requireKnobs(w, {"packet_bytes", "touch"});
        NicConfig nc;
        nc.packet_bytes = w.u32("packet_bytes", nc.packet_bytes);
        DpdkWorkload &d = addDpdk(bed, w.name, w.flag("touch", true), nc);
        dev.nics.push_back(&d.nicDevice());
        return d;
    }
    if (w.kind == "xmem") {
        requireKnobs(w, {"variant", "cores"});
        return addXmem(bed, w.name, w.u32("variant", 1),
                       w.u32("cores", 2));
    }
    if (w.kind == "fio") {
        requireKnobs(w, {"block_bytes", "profile"});
        const std::string profile = w.str("profile", "");
        FioConfig fc;
        if (profile == "ffsb-heavy")
            fc = ffsbHeavyConfig(scale);
        else if (profile.empty())
            fc = scaledFioConfig(w.u64("block_bytes", 128 * kKiB), scale);
        else
            fatal(sformat("a4perf: fio profile '%s' not reproduced",
                          profile.c_str()));
        if (!profile.empty() && w.find("block_bytes") != nullptr)
            fc.block_bytes = scaleBytes(w.u64("block_bytes", 0), scale);
        SsdArray &ssd = bed.addSsd(SsdConfig(), w.name + ".ssd");
        dev.ssds.push_back(&ssd);
        return bed.adopt(std::make_unique<FioWorkload>(
            w.name, bed.allocWorkloadId(), bed.allocCores(fc.num_jobs),
            bed.engine(), bed.cache(), bed.addrs(), ssd, fc));
    }
    if (w.kind == "storage-server") {
        requireKnobs(w, {"block_bytes"});
        StorageServerConfig ss;
        ss.block_bytes = scaleBytes(w.u64("block_bytes", 128 * kKiB), scale);
        ss.num_keys = scaledRedisKeys(16384, scale);
        ss.per_op_cpu_ns *= scale;
        const NicConfig nc;
        Nic &nic = bed.addNic(nc);
        SsdArray &ssd = bed.addSsd(SsdConfig(), w.name + ".ssd");
        dev.nics.push_back(&nic);
        dev.ssds.push_back(&ssd);
        return bed.adopt(std::make_unique<StorageServerWorkload>(
            w.name, bed.allocWorkloadId(), bed.allocCores(nc.num_queues),
            bed.engine(), bed.cache(), bed.addrs(), nic, ssd,
            scaledDpdkConfig(scale, true), ss));
    }
    fatal(sformat("a4perf: kind '%s' not reproduced by the traced "
                  "assembly", w.kind.c_str()));
}

using Counts = std::map<std::string, std::uint64_t>;

/** Absolute values of every module counter the benchmark reports. */
Counts
snapshot(Testbed &bed, const std::vector<Workload *> &tracked,
         Devices &dev, const A4Manager &mgr)
{
    Counts c;
    c["sim.events"] = bed.engine().eventsFired();
    c["sim.batch_expanded"] = bed.engine().batchExpanded();
    std::uint64_t core = 0, mlc_miss = 0, llc_miss = 0, alloc = 0,
                  update = 0, nonalloc = 0, leaked = 0, migrated = 0,
                  ops = 0;
    for (const Workload *w : tracked) {
        const WorkloadCounters &k = bed.cache().wlConst(w->id());
        core += k.mlc_hit.value() + k.mlc_miss.value();
        mlc_miss += k.mlc_miss.value();
        llc_miss += k.llc_miss.value();
        alloc += k.dma_write_alloc.value();
        update += k.dma_write_update.value();
        nonalloc += k.dma_nonalloc.value();
        leaked += k.dma_leaked.value();
        migrated += k.migrated_inclusive.value();
        ops += w->ops().value();
    }
    c["cache.core_accesses"] = core;
    c["cache.mlc_misses"] = mlc_miss;
    c["cache.llc_misses"] = llc_miss;
    c["cache.llc_evictions"] = bed.cache().global().llc_evictions.value();
    c["cache.dma_alloc_lines"] = alloc;
    c["cache.dma_update_lines"] = update;
    c["cache.dma_nonalloc_lines"] = nonalloc;
    c["cache.dma_leaked_lines"] = leaked;
    c["cache.migrated_inclusive"] = migrated;
    c["mem.read_lines"] = bed.dram().readBytes().value() / kLineBytes;
    c["mem.write_lines"] = bed.dram().writeBytes().value() / kLineBytes;
    std::uint64_t rx = 0, drops = 0, tx = 0, rd = 0, wr = 0, in = 0,
                  out = 0;
    for (Nic *n : dev.nics) {
        rx += n->delivered().value();
        drops += n->dropped().value();
        tx += n->txPackets().value();
    }
    for (SsdArray *s : dev.ssds) {
        rd += s->completedReads().value();
        wr += s->completedWrites().value();
    }
    for (unsigned p = 0; p < bed.pcie().numPorts(); ++p) {
        in += bed.pcie().port(p).ingress_bytes.value();
        out += bed.pcie().port(p).egress_bytes.value();
    }
    c["iodev.nic_rx_packets"] = rx;
    c["iodev.nic_drops"] = drops;
    c["iodev.nic_tx_packets"] = tx;
    c["iodev.nvme_reads"] = rd;
    c["iodev.nvme_writes"] = wr;
    c["iodev.ingress_bytes"] = in;
    c["iodev.egress_bytes"] = out;
    c["core.a4_intervals"] = mgr.ticks();
    c["workload.ops"] = ops;
    return c;
}

/** The A4 defaults the spec layer applies to scenario runs (5 ms
 *  intervals, halved detector floors); the self-test catches drift. */
A4Params
scenarioA4Params()
{
    A4Params p;
    p.monitor_interval = 5 * kMsec;
    p.min_accesses = 500;
    p.min_dma_lines = 500;
    return p;
}

struct TracedPoint
{
    double point_s = 0.0;
    double parse_s = 0.0;
    double build_s = 0.0;
    double warmup_s = 0.0;
    double measure_s = 0.0;
    double record_s = 0.0;
    double audit_s = 0.0;
    std::size_t audit = 0;
    Counts counts; ///< measure-window deltas
    SpecResult result;
    std::string record;
};

TracedPoint
tracedPoint(const std::string &text, std::uint64_t seed, Tracer &tr,
            unsigned point)
{
    pinEnvironment(seed);
    TracedPoint p;
    ScopedSpan root(tr, "point", point, p.point_s);

    ScenarioSpec spec;
    {
        ScopedSpan s(tr, "harness.parse", point, p.parse_s);
        spec = expandReplicas(parseSpec(text, "a4perf"));
    }
    if (!isA4(spec.scheme) || !spec.bios_dca || spec.cores != 0 ||
        !spec.replacement.empty() || spec.a4)
        fatal("a4perf: traced assembly expects an A4 scheme on the "
              "default server");

    std::unique_ptr<Testbed> bed;
    std::unique_ptr<A4Manager> mgr;
    std::unique_ptr<Measurement> m;
    Devices dev;
    std::vector<Workload *> tracked;
    {
        ScopedSpan s(tr, "harness.build", point, p.build_s);
        bed = std::make_unique<Testbed>(ServerConfig::fast());
        bed->ddio().setBiosDca(spec.bios_dca);
        for (const WorkloadSpec &w : spec.workloads) {
            if (w.build >= 0 || !w.dca || w.replicate != 1)
                fatal(sformat("a4perf: entry '%s' uses a build rank, "
                              "DCA or replication setting the traced "
                              "assembly does not reproduce",
                              w.name.c_str()));
            tracked.push_back(&buildEntry(*bed, w, dev));
        }
        mgr = std::make_unique<A4Manager>(
            bed->engine(), bed->cache(), bed->cat(), bed->ddio(),
            bed->dram(), bed->pcie(),
            a4Variant(a4Letter(spec.scheme), scenarioA4Params()));
        for (std::size_t i = 0; i < tracked.size(); ++i) {
            mgr->addWorkload(Testbed::describe(
                *tracked[i], spec.workloads[i].hpw ? QosPriority::High
                                                   : QosPriority::Low));
        }
        mgr->start();
        m = std::make_unique<Measurement>(*bed, tracked, spec.windows);
    }
    {
        ScopedSpan s(tr, "sim.warmup", point, p.warmup_s);
        m->startAndWarm();
    }
    m->beginMeasure();
    const Counts before = snapshot(*bed, tracked, dev, *mgr);
    {
        ScopedSpan s(tr, "sim.measure", point, p.measure_s);
        m->runMeasure();
    }

    {
        // The spec layer's result extraction, field for field.
        ScopedSpan s(tr, "harness.record", point, p.record_s);
        SpecResult &res = p.result;
        res.scale = bed->config().scale;
        res.measure_window = spec.windows.measure;
        SystemSample sys = m->system();
        for (std::size_t i = 0; i < tracked.size(); ++i) {
            Workload &wl = *tracked[i];
            SpecWorkloadResult r;
            r.name = wl.name();
            r.kind = spec.workloads[i].kind;
            r.hpw = spec.workloads[i].hpw;
            r.multithread_io = kindMultithreadIo(r.kind);
            WorkloadSample ws = m->sample(wl);
            r.llc_hit_rate = ws.llcHitRate();
            r.llc_miss_rate = ws.llcMissRate();
            r.mpa = ws.missesPerAccess();
            r.dca_leak = ws.dcaMissRate();
            r.lat_mean_ns = wl.latency().mean();
            r.ipc = m->ipc(wl);
            r.perf = r.multithread_io
                         ? (wl.latency().count()
                                ? 1e9 / wl.latency().mean()
                                : 0.0)
                         : r.ipc;
            r.antagonist = mgr->isAntagonist(wl.id());
            if (wl.latency().count())
                r.tail_latency_us = wl.latency().percentile(99) / 1000.0;
            if (wl.isIo() && wl.ioPort() < sys.ports.size()) {
                r.ingress_bytes =
                    double(sys.ports[wl.ioPort()].ingress_bytes);
                r.egress_bytes = double(sys.ports[wl.ioPort()].egress_bytes);
            }
            if (auto *ssw = dynamic_cast<StorageServerWorkload *>(&wl)) {
                if (ssw->ssdPort() < sys.ports.size()) {
                    r.ingress_bytes +=
                        double(sys.ports[ssw->ssdPort()].ingress_bytes);
                    r.egress_bytes +=
                        double(sys.ports[ssw->ssdPort()].egress_bytes);
                }
            }
            if (auto *fw = dynamic_cast<FioWorkload *>(&wl)) {
                r.has_storage_breakdown = true;
                r.read_ns = fw->readLatency().mean();
                r.regex_ns = fw->regexLatency().mean();
                r.write_ns = fw->writeLatency().mean();
            }
            res.workloads.push_back(std::move(r));
        }
        res.mem_rd_bw_bps = sys.memReadBwBps();
        res.mem_wr_bw_bps = sys.memWriteBwBps();
        res.past_events = double(bed->engine().pastEvents());
        p.record = toRecord(res).serialize();
    }

    Counts after = snapshot(*bed, tracked, dev, *mgr);
    for (auto &[key, v] : after)
        v -= before.at(key);
    std::uint64_t antagonists = 0;
    for (const Workload *w : tracked)
        antagonists += mgr->isAntagonist(w->id()) ? 1 : 0;
    std::uint64_t ddio_off = 0;
    for (unsigned port = 0; port < bed->pcie().numPorts(); ++port)
        ddio_off += mgr->ddioDisabled(port) ? 1 : 0;
    after["core.antagonists"] = antagonists;
    after["core.ddio_off_ports"] = ddio_off;
    p.counts = std::move(after);
    {
        ScopedSpan s(tr, "cache.audit", point, p.audit_s);
        p.audit = bed->cache().auditInvariants();
    }
    return p;
}

// --------------------------------------------------------------------
// Modes

std::string
countsJson(const Counts &c)
{
    JsonLine l;
    for (const auto &[k, v] : c)
        l.num(k, double(v));
    return l.text();
}

void
printConfig(const BenchWorkload &w, std::uint64_t seed, bool trace,
            const std::vector<std::pair<std::string, std::string>> &cleared)
{
    JsonLine inherited;
    for (const auto &[k, v] : cleared)
        inherited.str(k, v);
    JsonLine effect;
    for (const char *k : kKnobs) {
        const char *v = std::getenv(k);
        effect.raw(k, v ? jsonStr(v) : "null");
    }
    effect.str("A4_SEED", std::getenv("A4_SEED"));
    JsonLine l;
    l.str("type", "config")
        .str("workload", w.name)
        .str("scenario", w.scenario)
        .num("seed", double(seed))
        .flag("trace", trace)
        .num("warmup_ns", double(kWarmupNs))
        .num("measure_ns", double(kMeasureNs))
        .raw("env_inherited", inherited.text())
        .raw("env_in_effect", effect.text());
    l.print();
}

void
printTimed(unsigned rep, const TimedPoint &t, const std::string &hp,
           const std::string &fail)
{
    JsonLine l;
    l.str("type", "rep")
        .str("mode", "timed")
        .num("rep", rep)
        .num("point_s", t.point_s)
        .num("parse_s", t.parse_s)
        .num("setup_s", t.setup_s)
        .num("sim_us_per_s", t.sim_us_per_s)
        .num("hp_p99_us", hpP99Us(t.result, hp))
        .str("fail", fail);
    l.print();
}

int
runBench(const BenchWorkload &w, std::uint64_t seed, double seconds,
         bool trace, const std::string &spans_path)
{
    const auto cleared = pinEnvironment(seed);
    printConfig(w, seed, trace, cleared);
    const std::string text = specText(w, kWarmupNs, kMeasureNs);
    const std::string hp = w.hp;

    Tracer tr;
    std::string first_record;
    Counts first_counts;
    const auto t0 = Clock::now();
    double last_rep = 0.0;
    const unsigned min_reps = trace ? 2 : 3;
    for (unsigned rep = 0;
         rep < min_reps || secondsSince(t0) + last_rep <= seconds; ++rep) {
        const auto r0 = Clock::now();
        // Traced pairs alternate which side runs first.
        const bool traced_first = trace && rep % 2 == 1;
        TracedPoint tp;
        if (traced_first)
            tp = tracedPoint(text, seed, tr, rep);
        const TimedPoint t = timedPoint(text, seed);
        if (trace && !traced_first)
            tp = tracedPoint(text, seed, tr, rep);

        std::string fail = checkResult(t.result, hp);
        if (first_record.empty())
            first_record = t.record;
        else if (fail.empty() && t.record != first_record)
            fail = "Record differs from the first repetition";
        printTimed(rep, t, hp, fail);

        if (trace) {
            std::string tfail = checkResult(tp.result, hp);
            if (tfail.empty() && tp.record != t.record)
                tfail = "traced Record differs from the timed Record";
            if (tfail.empty() && tp.audit != 0)
                tfail = sformat("auditInvariants() = %zu", tp.audit);
            if (first_counts.empty())
                first_counts = tp.counts;
            else if (tfail.empty() && tp.counts != first_counts)
                tfail = "per-layer counts differ between repetitions";
            JsonLine l;
            l.str("type", "rep")
                .str("mode", "traced")
                .num("rep", rep)
                .num("point_s", tp.point_s)
                .num("parse_s", tp.parse_s)
                .num("build_s", tp.build_s)
                .num("warmup_s", tp.warmup_s)
                .num("measure_s", tp.measure_s)
                .num("record_s", tp.record_s)
                .num("audit_s", tp.audit_s)
                .num("audit", double(tp.audit))
                .raw("counts", countsJson(tp.counts))
                .str("fail", tfail);
            l.print();
        }
        std::fflush(stdout);
        last_rep = secondsSince(r0);
    }

    if (trace) {
        JsonLine self;
        for (const auto &[name, v] : tr.selfTimes()) {
            JsonLine e;
            e.num("count", v[0]).num("total_s", v[1]).num("self_s", v[2]);
            self.raw(name, e.text());
        }
        JsonLine l;
        l.str("type", "spans").raw("self", self.text());
        l.print();
        if (!spans_path.empty() && !tr.write(spans_path)) {
            std::fprintf(stderr, "a4perf: cannot write %s\n",
                         spans_path.c_str());
            return 1;
        }
    }

    JsonLine l;
    l.str("type", "done").num("peak_rss_kib", peakRssKib());
    l.print();
    return 0;
}

/**
 * Equivalence and seed checks at tiny windows: for every workload and
 * for the default and held-out seeds, the traced assembly reproduces
 * runSpec()'s Record byte for byte, both pass every correctness check
 * with a clean cache audit, and the two seeds give different Records.
 */
int
selfTest()
{
    int failures = 0;
    auto report = [&](const std::string &what, const std::string &fail) {
        std::printf("%-4s %s%s%s\n", fail.empty() ? "ok" : "FAIL",
                    what.c_str(), fail.empty() ? "" : ": ", fail.c_str());
        failures += fail.empty() ? 0 : 1;
    };
    for (const BenchWorkload &w : benchWorkloads()) {
        const std::string text = specText(w, kTinyWarmupNs, kTinyMeasureNs);
        std::string records[2];
        const std::uint64_t seeds[2] = {0, kHeldOutSeed};
        for (int i = 0; i < 2; ++i) {
            Tracer tr;
            const TimedPoint t = timedPoint(text, seeds[i]);
            const TracedPoint tp = tracedPoint(text, seeds[i], tr, 0);
            const std::string what = sformat(
                "%s seed %llu", w.name, (unsigned long long)seeds[i]);
            report(what + " timed checks", checkResult(t.result, w.hp));
            report(what + " traced checks", checkResult(tp.result, w.hp));
            report(what + " traced Record == runSpec Record",
                   tp.record == t.record ? "" : "Records differ");
            report(what + " auditInvariants() == 0",
                   tp.audit == 0 ? "" : sformat("%zu", tp.audit));
            records[i] = t.record;
        }
        report(sformat("%s seeds give different Records", w.name),
               records[0] != records[1] ? "" : "identical Records");
    }
    std::printf("%s\n", failures ? "self-test FAILED" : "self-test passed");
    return failures ? 1 : 0;
}

[[noreturn]] void
usage(int code)
{
    std::fprintf(code ? stderr : stdout,
                 "usage: a4perf --workload NAME --seed N --seconds S "
                 "[--trace] [--spans PATH]\n"
                 "       a4perf --self-test\n"
                 "workloads: corun-xmem nic-flood storage-server\n");
    std::exit(code);
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    if (*s == '\0' || s[std::strspn(s, "0123456789")] != '\0')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string workload, spans;
    std::uint64_t seed = 0, seconds = 0;
    bool trace = false, self_test = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = value();
        } else if (arg == "--seed") {
            if (!parseU64(value(), seed))
                usage(2);
        } else if (arg == "--seconds") {
            have_seconds = parseU64(value(), seconds) && seconds > 0;
            if (!have_seconds)
                usage(2);
        } else if (arg == "--trace") {
            trace = true;
        } else if (arg == "--spans") {
            spans = value();
        } else if (arg == "--self-test") {
            self_test = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            usage(2);
        }
    }
    try {
        if (self_test)
            return selfTest();
        const BenchWorkload *w = findBenchWorkload(workload);
        if (w == nullptr || !have_seconds)
            usage(2);
        return runBench(*w, seed, double(seconds), trace, spans);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "a4perf: %s\n", e.what());
        return 1;
    }
}
