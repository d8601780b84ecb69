#include "harness/scenarios.hh"

#include <cmath>

#include "harness/scaling.hh"
#include "harness/spec.hh"
#include "sim/log.hh"

namespace a4
{

const char *
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::Default: return "Default";
      case Scheme::Isolate: return "Isolate";
      case Scheme::A4a: return "A4-a";
      case Scheme::A4b: return "A4-b";
      case Scheme::A4c: return "A4-c";
      case Scheme::A4d: return "A4-d";
      case Scheme::Static: return "Static";
    }
    return "?";
}

std::span<const Scheme>
allSchemes()
{
    static const Scheme all[] = {Scheme::Default, Scheme::Isolate,
                                 Scheme::A4a,     Scheme::A4b,
                                 Scheme::A4c,     Scheme::A4d};
    return all;
}

std::optional<Scheme>
schemeFromName(const std::string &name)
{
    for (Scheme s : allSchemes()) {
        if (name == schemeName(s))
            return s;
    }
    if (name == schemeName(Scheme::Static))
        return Scheme::Static;
    return std::nullopt;
}

char
a4Letter(Scheme s)
{
    switch (s) {
      case Scheme::A4a: return 'a';
      case Scheme::A4b: return 'b';
      case Scheme::A4c: return 'c';
      case Scheme::A4d: return 'd';
      default: panic("a4Letter: not an A4 scheme");
    }
}

const WorkloadResult *
ScenarioResult::find(const std::string &name) const
{
    for (const auto &w : workloads) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

double
ScenarioResult::avgRelative(const ScenarioResult &r,
                            const ScenarioResult &baseline,
                            std::optional<bool> hpw_filter)
{
    double log_sum = 0.0;
    unsigned n = 0;
    for (const auto &w : r.workloads) {
        if (hpw_filter && w.hpw != *hpw_filter)
            continue;
        const WorkloadResult *b = baseline.find(w.name);
        if (!b || b->perf <= 0.0 || w.perf <= 0.0)
            continue;
        log_sum += std::log(w.perf / b->perf);
        ++n;
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

ScenarioResult
scenarioResultFromSpec(const SpecResult &sr)
{
    // Restates a generic SpecResult in the legacy struct, preserving
    // the historical runRealWorldScenario conversion arithmetic
    // exactly (sr.measure_window is the same resolved window the
    // original read from its ScenarioOptions).
    ScenarioResult res;
    for (const SpecWorkloadResult &w : sr.workloads) {
        WorkloadResult r;
        r.name = w.name;
        r.hpw = w.hpw;
        r.multithread_io = w.multithread_io;
        r.perf = w.perf;
        r.llc_hit_rate = w.llc_hit_rate;
        r.antagonist = w.antagonist;
        r.tail_latency_us = w.tail_latency_us;
        res.workloads.push_back(std::move(r));
    }

    const SpecWorkloadResult *fc = sr.find("fastclick");
    const SpecWorkloadResult *fh = sr.find("ffsb-h");
    if (fc == nullptr || fh == nullptr)
        fatal("scenarioResultFromSpec: needs the canonical real-world "
              "mix ('fastclick' and 'ffsb-h' workloads)");
    res.fc_nic_to_host_us = fc->nic_to_host_ns / 1000.0;
    res.fc_pointer_us = fc->pointer_ns / 1000.0;
    res.fc_process_us = fc->process_ns / 1000.0;

    res.ffsbh_read_ms = fh->read_ns / 1e6;
    res.ffsbh_regex_ms = fh->regex_ns / 1e6;
    res.ffsbh_write_ms = fh->write_ns / 1e6;

    const double to_gbps =
        1e9 / double(sr.measure_window) * sr.scale / 1e9;
    res.fc_rd_gbps = fc->ingress_bytes * to_gbps;
    res.fc_wr_gbps = fc->egress_bytes * to_gbps;
    res.ffsbh_rd_gbps = fh->ingress_bytes * to_gbps;
    res.ffsbh_wr_gbps = fh->egress_bytes * to_gbps;
    res.mem_rd_gbps = unscaleBw(sr.mem_rd_bw_bps, sr.scale) / 1e9;
    res.mem_wr_gbps = unscaleBw(sr.mem_wr_bw_bps, sr.scale) / 1e9;
    res.past_events = sr.past_events;
    return res;
}

ScenarioResult
runRealWorldScenario(bool hpw_heavy, Scheme scheme,
                     const ScenarioOptions &opt)
{
    // The canonical declarative spec reproduces the historical
    // hand-wired testbed bit for bit (see realWorldSpec()).
    ScenarioSpec spec = realWorldSpec(hpw_heavy);
    spec.scheme = scheme;
    spec.a4 = opt.a4_override;
    return scenarioResultFromSpec(runSpecWithWindows(spec, opt.windows));
}

Record
toRecord(const ScenarioResult &r)
{
    Record rec;
    rec.set("workloads", double(r.workloads.size()));
    for (std::size_t i = 0; i < r.workloads.size(); ++i) {
        const WorkloadResult &w = r.workloads[i];
        const std::string p = sformat("w%zu.", i);
        rec.set(p + "name", w.name);
        rec.set(p + "hpw", w.hpw ? 1.0 : 0.0);
        rec.set(p + "mtio", w.multithread_io ? 1.0 : 0.0);
        rec.set(p + "perf", w.perf);
        rec.set(p + "hit", w.llc_hit_rate);
        rec.set(p + "ant", w.antagonist ? 1.0 : 0.0);
        rec.set(p + "tail_us", w.tail_latency_us);
    }
    rec.set("fc_nic_to_host_us", r.fc_nic_to_host_us);
    rec.set("fc_pointer_us", r.fc_pointer_us);
    rec.set("fc_process_us", r.fc_process_us);
    rec.set("ffsbh_read_ms", r.ffsbh_read_ms);
    rec.set("ffsbh_regex_ms", r.ffsbh_regex_ms);
    rec.set("ffsbh_write_ms", r.ffsbh_write_ms);
    rec.set("fc_rd_gbps", r.fc_rd_gbps);
    rec.set("fc_wr_gbps", r.fc_wr_gbps);
    rec.set("ffsbh_rd_gbps", r.ffsbh_rd_gbps);
    rec.set("ffsbh_wr_gbps", r.ffsbh_wr_gbps);
    rec.set("mem_rd_gbps", r.mem_rd_gbps);
    rec.set("mem_wr_gbps", r.mem_wr_gbps);
    rec.set("past_events", r.past_events);
    return rec;
}

ScenarioResult
scenarioResultFrom(const Record &rec)
{
    ScenarioResult r;
    const std::size_t n = std::size_t(rec.num("workloads"));
    for (std::size_t i = 0; i < n; ++i) {
        const std::string p = sformat("w%zu.", i);
        WorkloadResult w;
        w.name = rec.str(p + "name");
        w.hpw = rec.num(p + "hpw") != 0.0;
        w.multithread_io = rec.num(p + "mtio") != 0.0;
        w.perf = rec.num(p + "perf");
        w.llc_hit_rate = rec.num(p + "hit");
        w.antagonist = rec.num(p + "ant") != 0.0;
        w.tail_latency_us = rec.num(p + "tail_us");
        r.workloads.push_back(std::move(w));
    }
    r.fc_nic_to_host_us = rec.num("fc_nic_to_host_us");
    r.fc_pointer_us = rec.num("fc_pointer_us");
    r.fc_process_us = rec.num("fc_process_us");
    r.ffsbh_read_ms = rec.num("ffsbh_read_ms");
    r.ffsbh_regex_ms = rec.num("ffsbh_regex_ms");
    r.ffsbh_write_ms = rec.num("ffsbh_write_ms");
    r.fc_rd_gbps = rec.num("fc_rd_gbps");
    r.fc_wr_gbps = rec.num("fc_wr_gbps");
    r.ffsbh_rd_gbps = rec.num("ffsbh_rd_gbps");
    r.ffsbh_wr_gbps = rec.num("ffsbh_wr_gbps");
    r.mem_rd_gbps = rec.num("mem_rd_gbps");
    r.mem_wr_gbps = rec.num("mem_wr_gbps");
    r.past_events = rec.num("past_events");
    return r;
}

} // namespace a4
