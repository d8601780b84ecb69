#include "harness/figures.hh"

#include <cstdlib>
#include <iterator>

#include "rdt/cat.hh"
#include "sim/log.hh"

namespace a4
{

namespace
{

// --------------------------------------------------------------------
// Small builders (the registry is pure data; these keep it readable).

SweepAxis &
addAxis(SweepSpec &s, const char *name, const char *key,
        std::vector<std::string> values,
        std::vector<std::string> labels = {})
{
    SweepAxis a;
    a.name = name;
    a.key = key;
    a.values = std::move(values);
    a.labels = std::move(labels);
    s.axes.push_back(std::move(a));
    return s.axes.back();
}

SweepGrid &
addGrid(SweepSpec &s, const char *name, const char *point,
        std::vector<std::string> axes = {})
{
    SweepGrid g;
    g.name = name;
    g.point = point;
    g.axes = std::move(axes);
    s.grids.push_back(std::move(g));
    return s.grids.back();
}

void
set(SweepGrid &g, const char *key, const char *value)
{
    g.sets.push_back(SpecKnob{key, value, 0});
}

void
metric(std::vector<SpecKnob> &list, const char *key, const char *expr)
{
    list.push_back(SpecKnob{key, expr, 0});
}

void
text(SweepSpec &s, const char *raw)
{
    SweepOutput o;
    o.kind = SweepOutput::Kind::Text;
    o.text = raw;
    s.outputs.push_back(std::move(o));
}

/** Parse "axis=value,axis=value" (registry-internal, trusted). */
std::vector<std::pair<std::string, std::string>>
binds(const std::string &s)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t pos = 0;
    while (pos <= s.size() && !s.empty()) {
        std::size_t comma = s.find(',', pos);
        const std::string item =
            s.substr(pos, comma == std::string::npos ? comma
                                                     : comma - pos);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal(sformat("figure registry: bad binds '%s'", s.c_str()));
        out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

SweepCellSpec
cell(const char *op, const char *arg, int digits = -1,
     const char *bind = nullptr)
{
    SweepCellSpec c;
    c.op = op;
    c.arg = arg;
    c.digits = digits;
    if (bind != nullptr)
        c.bind = binds(bind);
    return c;
}

SweepCellSpec
cText(const char *tmpl)
{
    return cell("text", tmpl);
}

SweepOutput &
addTable(SweepSpec &s, std::vector<std::string> headers)
{
    SweepOutput o;
    o.kind = SweepOutput::Kind::Table;
    o.table.headers = std::move(headers);
    s.outputs.push_back(std::move(o));
    return s.outputs.back();
}

SweepRowBlock &
addBlock(SweepOutput &o, const char *grid,
         std::vector<std::string> axes = {}, const char *fix = nullptr)
{
    SweepRowBlock b;
    b.grid = grid;
    b.axes = std::move(axes);
    if (fix != nullptr)
        b.fix = binds(fix);
    o.table.blocks.push_back(std::move(b));
    return o.table.blocks.back();
}

// --------------------------------------------------------------------
// Shared base pieces

/** Motivation-study base: no manager, pins programmed directly, the
 *  historical default Measurement windows. */
ScenarioSpec
staticBase()
{
    ScenarioSpec s;
    s.scheme = Scheme::Static;
    s.windows = Windows{60 * kMsec, 150 * kMsec};
    return s;
}

const std::vector<std::string> kBlocksKb = {
    "4KB",   "8KB",   "16KB",  "32KB",   "64KB",
    "128KB", "256KB", "512KB", "1024KB", "2048KB"};
const std::vector<std::string> kBlocksBytes = {
    "4096",   "8192",   "16384",  "32768",   "65536",
    "131072", "262144", "524288", "1048576", "2097152"};

// --------------------------------------------------------------------
// The figures

SweepSpec
fig03()
{
    SweepSpec s;
    s.name = "fig03_contention";
    s.record = SweepRecordView::Select;
    s.base = staticBase();
    WorkloadSpec &dpdk = s.base.add("dpdk", "dpdk", true);
    dpdk.pin = std::make_pair(5u, 6u);
    s.base.add("xmem", "xmem", false);

    addAxis(s, "touch", "dpdk.touch", {"0", "1"}, {"a", "b"});
    SweepAxis &x = addAxis(s, "x", "xmem.pin", {});
    std::vector<std::string> masks;
    CatController cat(11, 18);
    for (unsigned lo = 0; lo + 1 < 11; ++lo) {
        x.values.push_back(sformat("%u:%u", lo, lo + 1));
        masks.push_back(
            cat.paperHex(CatController::makeMask(lo, lo + 1)));
    }
    x.label_sets.emplace_back("mask", std::move(masks));

    addGrid(s, "main", "{touch}/x[{x}]", {"touch", "x"});

    metric(s.metrics, "mem_rd_gbps", "sys.mem_rd_gbps");
    metric(s.metrics, "mem_wr_gbps", "sys.mem_wr_gbps");
    metric(s.metrics, "xmem_mpa", "xmem.mpa");
    metric(s.metrics, "dpdk_miss", "dpdk.miss");

    const std::vector<std::string> headers{
        "X-Mem ways", "mask", "MemRd GB/s", "MemWr GB/s",
        "X-Mem miss/acc", "DPDK LLC miss"};
    text(s, "\n=== Fig. 3a: DPDK-NT vs X-Mem (DPDK at way[5:6]) ===\n");
    {
        SweepOutput &t = addTable(s, headers);
        SweepRowBlock &b = addBlock(t, "main", {"x"}, "touch=0");
        b.cells = {cText("[{x}]"),          cText("{x:mask}"),
                   cell("num", "mem_rd_gbps"), cell("num", "mem_wr_gbps"),
                   cell("num", "xmem_mpa", 3), cell("num", "dpdk_miss", 3)};
    }
    text(s, "\n=== Fig. 3b: DPDK-T vs X-Mem (DPDK at way[5:6]) ===\n");
    {
        SweepOutput &t = addTable(s, headers);
        SweepRowBlock &b = addBlock(t, "main", {"x"}, "touch=1");
        b.cells = {cText("[{x}]"),          cText("{x:mask}"),
                   cell("num", "mem_rd_gbps"), cell("num", "mem_wr_gbps"),
                   cell("num", "xmem_mpa", 3), cell("num", "dpdk_miss", 3)};
    }
    return s;
}

SweepSpec
fig04()
{
    SweepSpec s;
    s.name = "fig04_directory_validation";
    s.record = SweepRecordView::Select;
    s.base = staticBase();
    WorkloadSpec &dpdk = s.base.add("dpdk-t", "dpdk", true);
    dpdk.pin = std::make_pair(5u, 6u);
    // This experiment's DPDK-T runs at the paper's Fig. 4 operating
    // point (DCA-on p99 below saturation) so the DCA-off saturation
    // stands out; the Fig. 6 sweep uses the edge-of-saturation point.
    dpdk.set("per_packet_cpu_ns", 220.0);
    WorkloadSpec &xmem = s.base.add("xmem", "xmem", false);
    xmem.pin = std::make_pair(9u, 10u);

    SweepAxis &dca = addAxis(s, "dca", "dca", {"1", "0"},
                             {"dca-on", "dca-off"});
    dca.label_sets.emplace_back(
        "disp", std::vector<std::string>{"DCA on", "DCA off"});
    addAxis(s, "ways", "xmem.pin", {"0:1", "3:4", "5:6", "9:10"});

    SweepGrid &solo = addGrid(s, "solo", "solo/x[9:10]");
    set(solo, "drop", "dpdk-t");
    addGrid(s, "main", "{dca}/x[{ways}]", {"dca", "ways"});

    metric(s.metrics, "xmem_mpa", "xmem.mpa");
    metric(s.metrics, "dpdk_tail_us", "dpdk-t.lat_p99_us");

    text(s, "=== Fig. 4: directory-contention validation ===\n");
    SweepOutput &t = addTable(s, {"config", "X-Mem ways",
                                  "DPDK-T p99 (us)", "X-Mem miss/acc"});
    SweepRowBlock &bs = addBlock(t, "solo");
    bs.cells = {cText("X-Mem solo"), cText("[9:10]"), cText("-"),
                cell("num", "xmem_mpa", 3)};
    SweepRowBlock &bm = addBlock(t, "main", {"dca", "ways"});
    bm.cells = {cText("{dca:disp}"), cText("[{ways}]"),
                cell("num", "dpdk_tail_us", 1),
                cell("num", "xmem_mpa", 3)};
    return s;
}

SweepSpec
fig05()
{
    SweepSpec s;
    s.name = "fig05_storage_dca";
    s.record = SweepRecordView::Select;
    s.base = staticBase();
    WorkloadSpec &fio = s.base.add("fio", "fio", false);
    fio.pin = std::make_pair(2u, 3u);

    addAxis(s, "block", "fio.block_bytes", kBlocksBytes, kBlocksKb);
    addAxis(s, "dca", "dca", {"1", "0"}, {"dca-on", "dca-off"});

    addGrid(s, "main", "block={block}/{dca}", {"block", "dca"});

    metric(s.metrics, "storage_gbps", "fio.io_rd_gbps");
    metric(s.metrics, "mem_rd_gbps", "sys.mem_rd_gbps");
    metric(s.metrics, "leak_rate", "fio.leak");

    text(s, "=== Fig. 5: storage block size & DCA vs throughput/"
            "memory bandwidth ===\n");
    SweepOutput &t = addTable(
        s, {"block", "[DCA on] Storage GB/s", "[DCA on] MemRd GB/s",
            "[DCA on] leak", "[DCA off] Storage GB/s",
            "[DCA off] MemRd GB/s"});
    SweepRowBlock &b = addBlock(t, "main", {"block"});
    b.cells = {cText("{block}"),
               cell("num", "storage_gbps", -1, "dca=1"),
               cell("num", "mem_rd_gbps", -1, "dca=1"),
               cell("pct", "leak_rate", -1, "dca=1"),
               cell("num", "storage_gbps", -1, "dca=0"),
               cell("num", "mem_rd_gbps", -1, "dca=0")};
    return s;
}

SweepSpec
fig06()
{
    SweepSpec s;
    s.name = "fig06_storage_network";
    s.record = SweepRecordView::Select;
    s.base = staticBase();
    WorkloadSpec &dpdk = s.base.add("dpdk-t", "dpdk", true);
    dpdk.pin = std::make_pair(4u, 5u);
    WorkloadSpec &fio = s.base.add("fio", "fio", false);
    fio.pin = std::make_pair(2u, 3u);

    addAxis(s, "block", "fio.block_bytes", kBlocksBytes, kBlocksKb);
    SweepAxis &dca = addAxis(s, "dca", "dca", {"1", "0"},
                             {"dca-on", "dca-off"});
    dca.label_sets.emplace_back(
        "disp", std::vector<std::string>{"DCA on", "DCA off"});

    addGrid(s, "a", "a/block={block}/{dca}", {"block", "dca"});
    SweepGrid &gb = addGrid(s, "b", "b/solo/{dca}", {"dca"});
    set(gb, "drop", "fio");

    metric(s.metrics, "net_avg_us", "dpdk-t.lat_avg_us");
    metric(s.metrics, "net_p99_us", "dpdk-t.lat_p99_us");
    metric(s.metrics, "storage_gbps", "fio.io_rd_gbps");

    text(s, "=== Fig. 6a: DPDK-T + FIO, storage block sweep ===\n");
    SweepOutput &t = addTable(
        s, {"block", "[on] Net AL us", "[on] Net TL us",
            "[on] Storage GB/s", "[off] Net AL us", "[off] Net TL us",
            "[off] Storage GB/s"});
    SweepRowBlock &b = addBlock(t, "a", {"block"});
    b.cells = {cText("{block}"),
               cell("num", "net_avg_us", 1, "dca=1"),
               cell("num", "net_p99_us", 1, "dca=1"),
               cell("num", "storage_gbps", 2, "dca=1"),
               cell("num", "net_avg_us", 1, "dca=0"),
               cell("num", "net_p99_us", 1, "dca=0"),
               cell("num", "storage_gbps", 2, "dca=0")};

    text(s, "\n=== Fig. 6b: DPDK-T solo ===\n");
    SweepOutput &t2 =
        addTable(s, {"config", "Net AL us", "Net TL us"});
    SweepRowBlock &b2 = addBlock(t2, "b", {"dca"});
    b2.cells = {cText("{dca:disp}"), cell("num", "net_avg_us", 1),
                cell("num", "net_p99_us", 1)};
    return s;
}

SweepSpec
fig07()
{
    SweepSpec s;
    s.name = "fig07_overlap_exclude";
    s.record = SweepRecordView::Select;
    s.base = staticBase();
    WorkloadSpec &dpdk = s.base.add("dpdk-t", "dpdk", true);
    dpdk.pin = std::make_pair(9u, 10u);
    // A cache-busy neighbour keeps the non-allocated ways occupied,
    // as in the motivation setup (otherwise unallocated ways hide
    // the conflict misses this figure is about).
    WorkloadSpec &xmem = s.base.add("xmem", "xmem", false);
    xmem.pin = std::make_pair(2u, 8u);

    SweepAxis &strategy = addAxis(
        s, "strategy", "dpdk-t.pin",
        {"9:10", "7:8", "7:10", "5:8", "5:10", "3:8", "3:10"},
        {"2O", "2E", "4O", "4E", "6O", "6E", "8O"});
    strategy.label_sets.emplace_back(
        "ways", std::vector<std::string>{"[9:10]", "[7:8]", "[7:10]",
                                         "[5:8]", "[5:10]", "[3:8]",
                                         "[3:10]"});

    addGrid(s, "main", "{strategy}", {"strategy"});

    metric(s.metrics, "avg_us", "dpdk-t.lat_avg_us");
    metric(s.metrics, "p99_us", "dpdk-t.lat_p99_us");
    metric(s.metrics, "mem_rd_gbps", "sys.mem_rd_gbps");
    metric(s.metrics, "mem_wr_gbps", "sys.mem_wr_gbps");

    text(s, "=== Fig. 7: n-Overlap vs n-Exclude allocation for "
            "DPDK-T ===\n");
    SweepOutput &t = addTable(s, {"strategy", "ways", "Net AL us",
                                  "Net TL us", "MemRd GB/s",
                                  "MemWr GB/s"});
    SweepRowBlock &b = addBlock(t, "main", {"strategy"});
    b.cells = {cText("{strategy}"),      cText("{strategy:ways}"),
               cell("num", "avg_us", 1), cell("num", "p99_us", 1),
               cell("num", "mem_rd_gbps"), cell("num", "mem_wr_gbps")};
    return s;
}

SweepSpec
fig08()
{
    SweepSpec s;
    s.name = "fig08_device_aware";
    s.record = SweepRecordView::Select;
    s.base = staticBase();
    WorkloadSpec &dpdk = s.base.add("dpdk-t", "dpdk", true);
    dpdk.pin = std::make_pair(4u, 5u);
    WorkloadSpec &fio = s.base.add("fio", "fio", false);
    fio.pin = std::make_pair(2u, 3u);

    addAxis(s, "block", "fio.block_bytes",
            {"16384", "32768", "65536", "131072", "262144", "524288"},
            {"16KB", "32KB", "64KB", "128KB", "256KB", "512KB"});
    addAxis(s, "mode", "fio.dca", {"1", "0"}, {"dca-on", "ssd-off"});
    addAxis(s, "fiohi", "fio.pin", {"2:5", "2:4", "2:3", "2:2"});

    SweepGrid &ga =
        addGrid(s, "a", "a/block={block}/{mode}", {"block", "mode"});
    metric(ga.metrics, "net_avg_us", "dpdk-t.lat_avg_us");
    metric(ga.metrics, "net_p99_us", "dpdk-t.lat_p99_us");
    metric(ga.metrics, "storage_gbps", "fio.io_rd_gbps");

    // Panel (b) rebuilds the testbed: X-Mem at way[2:5] next to a
    // 2 MiB-block FIO whose port DCA is off and whose ways shrink.
    auto panelB = [](SweepGrid &g, bool with_fio) {
        set(g, "drop", "dpdk-t");
        set(g, "drop", "fio");
        set(g, "workload", "xmem");
        set(g, "xmem.kind", "xmem");
        set(g, "xmem.pin", "2:5");
        if (with_fio) {
            set(g, "workload", "fio");
            set(g, "fio.kind", "fio");
            set(g, "fio.block_bytes", "2097152");
            set(g, "fio.dca", "0");
        }
        metric(g.metrics, "xmem_mpa", "xmem.mpa");
        metric(g.metrics, "storage_gbps", "fio.io_rd_gbps");
    };
    SweepGrid &gsolo = addGrid(s, "bsolo", "b/solo");
    panelB(gsolo, false);
    SweepGrid &gb = addGrid(s, "b", "b/fio[{fiohi}]", {"fiohi"});
    panelB(gb, true);

    text(s, "=== Fig. 8a: per-port SSD-DCA disable "
            "(DPDK-T + FIO) ===\n");
    SweepOutput &ta = addTable(
        s, {"block", "[DCA on] Net AL us", "[DCA on] Net TL us",
            "[DCA on] Storage GB/s", "[SSD off] Net AL us",
            "[SSD off] Net TL us", "[SSD off] Storage GB/s"});
    SweepRowBlock &ba = addBlock(ta, "a", {"block"});
    ba.cells = {cText("{block}"),
                cell("num", "net_avg_us", 1, "mode=1"),
                cell("num", "net_p99_us", 1, "mode=1"),
                cell("num", "storage_gbps", 2, "mode=1"),
                cell("num", "net_avg_us", 1, "mode=0"),
                cell("num", "net_p99_us", 1, "mode=0"),
                cell("num", "storage_gbps", 2, "mode=0")};

    text(s, "\n=== Fig. 8b: shrinking FIO's ways under SSD-DCA "
            "off (X-Mem at way[2:5]) ===\n");
    SweepOutput &tb =
        addTable(s, {"FIO ways", "X-Mem miss/acc", "Storage GB/s"});
    SweepRowBlock &bs = addBlock(tb, "bsolo");
    bs.cells = {cText("X-Mem solo"), cell("num", "xmem_mpa", 3),
                cText("-")};
    SweepRowBlock &bb = addBlock(tb, "b", {"fiohi"});
    bb.cells = {cText("[{fiohi}]"), cell("num", "xmem_mpa", 3),
                cell("num", "storage_gbps")};
    return s;
}

/** The Fig. 11/12 projection of the micro mix: X-Mem 1..3 IPC and
 *  LLC hit rate, then DPDK-T's tail latency and ingress rate. */
void
microMetrics(SweepSpec &s)
{
    metric(s.metrics, "x1_ipc", "xmem1.ipc");
    metric(s.metrics, "x1_hit", "xmem1.hit");
    metric(s.metrics, "x2_ipc", "xmem2.ipc");
    metric(s.metrics, "x2_hit", "xmem2.hit");
    metric(s.metrics, "x3_ipc", "xmem3.ipc");
    metric(s.metrics, "x3_hit", "xmem3.hit");
    metric(s.metrics, "net_tail_us", "dpdk-t.lat_p99_us");
    metric(s.metrics, "net_rd_gbps", "dpdk-t.io_rd_gbps");
}

SweepSpec
fig11()
{
    SweepSpec s;
    s.name = "fig11_xmem_packet_sweep";
    s.record = SweepRecordView::Select;
    s.base = findScenario("micro")->spec;
    microMetrics(s);

    addAxis(s, "scheme", "scheme", {"Default", "Isolate", "A4-d"});
    addAxis(s, "packet", "dpdk-t.packet_bytes",
            {"64", "128", "256", "512", "1024", "1514"});
    addGrid(s, "main", "{scheme}/p{packet}B", {"scheme", "packet"});

    text(s, "=== Fig. 11: X-Mem IPC / LLC hit rate vs packet size "
            "(storage block 2MB) ===\n");
    SweepOutput &t = addTable(
        s, {"scheme", "packet", "X1 relIPC", "X1 hit", "X2 relIPC",
            "X2 hit", "X3 relIPC", "X3 hit"});
    t.table.ref_grid = "main";
    t.table.ref = binds("scheme=Default,packet=64");
    SweepRowBlock &b = addBlock(t, "main", {"scheme", "packet"});
    b.cells = {cText("{scheme}"),       cText("{packet}B"),
               cell("rel", "x1_ipc"),   cell("pct", "x1_hit"),
               cell("rel", "x2_ipc"),   cell("pct", "x2_hit"),
               cell("rel", "x3_ipc"),   cell("pct", "x3_hit")};
    return s;
}

SweepSpec
fig12()
{
    SweepSpec s;
    s.name = "fig12_network_block_sweep";
    s.record = SweepRecordView::Select;
    s.base = findScenario("micro")->spec;
    microMetrics(s);
    s.base.findWorkload("dpdk-t")->set("packet_bytes",
                                       std::uint64_t(1514));

    addAxis(s, "scheme", "scheme", {"Default", "Isolate", "A4-d"});
    addAxis(s, "block", "fio.block_bytes", kBlocksBytes, kBlocksKb);
    addGrid(s, "main", "{scheme}/block={block}", {"scheme", "block"});

    text(s, "=== Fig. 12: network tail latency / read throughput "
            "vs storage block (packet 1514B) ===\n");
    SweepOutput &t = addTable(
        s, {"scheme", "block", "Net TL (us)", "Net Rd (GB/s)"});
    SweepRowBlock &b = addBlock(t, "main", {"scheme", "block"});
    b.cells = {cText("{scheme}"), cText("{block}"),
               cell("num", "net_tail_us", 1),
               cell("num", "net_rd_gbps")};
    return s;
}

const std::vector<std::string> kAllSchemeValues = {
    "Default", "Isolate", "A4-a", "A4-b", "A4-c", "A4-d"};

SweepSpec
fig13()
{
    SweepSpec s;
    s.name = "fig13_realworld";
    s.record = SweepRecordView::Scenario;
    s.base = findScenario("realworld-hpw")->spec;

    addAxis(s, "mix", "scenario", {"realworld-hpw", "realworld-lpw"},
            {"hpw-heavy", "lpw-heavy"});
    addAxis(s, "scheme", "scheme", kAllSchemeValues);
    addGrid(s, "main", "{mix}/{scheme}", {"mix", "scheme"});

    auto panel = [&s](const char *mix_value, const char *letter,
                      const char *label) {
        SweepOutput o;
        o.kind = SweepOutput::Kind::WorkloadTable;
        SweepWorkloadTable &w = o.wtable;
        w.grid = "main";
        w.fix = binds(sformat("mix=%s", mix_value));
        w.scheme_axis = "scheme";
        w.baseline = "Default";
        w.columns = {"Isolate", "A4-a", "A4-b", "A4-c", "A4-d"};
        w.star = "A4-d";
        w.hit = "A4-d";
        w.title = sformat("\n=== Fig. 13%s: %s scenario ===\n", letter,
                          label);
        w.skip_text = sformat(
            "\n=== Fig. 13%s: skipped — --filter dropped the Default "
            "baseline; rerun without --filter or read --json ===\n",
            letter);
        w.headers = {"workload", "QoS",  "Isolate", "A4-a",
                     "A4-b",     "A4-c", "A4-d",    "A4-d hit"};
        w.agg_headers = {"aggregate", "Isolate", "A4-a", "A4-b",
                         "A4-c", "A4-d"};
        s.outputs.push_back(std::move(o));
    };
    panel("realworld-hpw", "a", "HPW-heavy (7 HPWs + 4 LPWs)");
    panel("realworld-lpw", "b", "LPW-heavy (4 HPWs + 8 LPWs)");
    return s;
}

SweepSpec
fig14()
{
    SweepSpec s;
    s.name = "fig14_breakdown";
    s.record = SweepRecordView::Scenario;
    s.base = findScenario("realworld-hpw")->spec;

    SweepAxis &scheme = addAxis(s, "scheme", "scheme", kAllSchemeValues);
    // Short row labels, tracking the scheme list.
    scheme.label_sets.emplace_back(
        "disp", std::vector<std::string>{"DF", "IS", "A4-a", "A4-b",
                                         "A4-c", "A4-d"});
    addGrid(s, "main", "{scheme}", {"scheme"});

    text(s, "=== Fig. 14a: Fastclick average latency breakdown "
            "(us) ===\n");
    SweepOutput &ta = addTable(s, {"scheme", "NIC-to-host",
                                   "Pointer access", "Packet process"});
    addBlock(ta, "main", {"scheme"}).cells = {
        cText("{scheme:disp}"), cell("num", "fc_nic_to_host_us", 2),
        cell("num", "fc_pointer_us", 3),
        cell("num", "fc_process_us", 3)};

    text(s, "\n=== Fig. 14b: FFSB-H average latency breakdown "
            "(ms) ===\n");
    SweepOutput &tb = addTable(s, {"scheme", "Read", "RegEx", "Write"});
    addBlock(tb, "main", {"scheme"}).cells = {
        cText("{scheme:disp}"), cell("num", "ffsbh_read_ms", 2),
        cell("num", "ffsbh_regex_ms", 2),
        cell("num", "ffsbh_write_ms", 2)};

    text(s, "\n=== Fig. 14c: system-wide I/O throughput (GB/s) "
            "===\n");
    SweepOutput &tc = addTable(s, {"scheme", "Fastclick rd",
                                   "Fastclick wr", "FFSB-H rd",
                                   "FFSB-H wr"});
    addBlock(tc, "main", {"scheme"}).cells = {
        cText("{scheme:disp}"), cell("num", "fc_rd_gbps"),
        cell("num", "fc_wr_gbps"), cell("num", "ffsbh_rd_gbps"),
        cell("num", "ffsbh_wr_gbps")};

    text(s, "\n=== Fig. 14d: system-wide memory bandwidth (GB/s) "
            "===\n");
    SweepOutput &td = addTable(s, {"scheme", "Mem read", "Mem write"});
    addBlock(td, "main", {"scheme"}).cells = {
        cText("{scheme:disp}"), cell("num", "mem_rd_gbps"),
        cell("num", "mem_wr_gbps")};
    return s;
}

SweepSpec
fig15()
{
    SweepSpec s;
    s.name = "fig15_sensitivity";
    s.record = SweepRecordView::Scenario;
    s.base = findScenario("realworld-hpw")->spec;

    addAxis(s, "t5", "a4.t5", {"0.95", "0.90", "0.80"},
            {"95", "90", "80"});
    addAxis(s, "t1", "a4.t1", {"0.30", "0.20"}, {"30", "20"});
    addAxis(s, "stable", "a4.stable_intervals", {"1", "5", "10", "20"});

    SweepGrid &base = addGrid(s, "baseline", "base");
    set(base, "scheme", "Default");
    SweepGrid &a5 = addGrid(s, "a5", "a/T5={t5}", {"t5"});
    set(a5, "scheme", "A4-d");
    SweepGrid &a1 = addGrid(s, "a1", "a/T1={t1}", {"t1"});
    set(a1, "scheme", "A4-d");

    struct Combo
    {
        const char *t2, *t3, *t4;
    };
    const Combo combos[] = {
        {"0.40", "0.35", "0.40"}, // defaults (detects FFSB-H)
        {"0.50", "0.35", "0.40"},
        {"0.40", "0.40", "0.40"},
        {"0.40", "0.35", "0.65"},
        {"0.80", "0.35", "0.40"}, // past the critical point
        {"0.40", "0.60", "0.40"}, // storage share never this high
    };
    std::vector<std::string> combo_labels;
    for (std::size_t i = 0; i < std::size(combos); ++i) {
        const Combo &c = combos[i];
        const std::string label =
            sformat("T2=%.0f,T3=%.0f,T4=%.0f", atof(c.t2) * 100,
                    atof(c.t3) * 100, atof(c.t4) * 100);
        combo_labels.push_back(
            sformat("T2=%.0f%% T3=%.0f%% T4=%.0f%%", atof(c.t2) * 100,
                    atof(c.t3) * 100, atof(c.t4) * 100));
        SweepGrid &g = addGrid(s, sformat("b%zu", i + 1).c_str(),
                               ("b/" + label).c_str());
        set(g, "scheme", "A4-d");
        set(g, "a4.t2", c.t2);
        set(g, "a4.t3", c.t3);
        set(g, "a4.t4", c.t4);
    }

    SweepGrid &cstable = addGrid(s, "cstable", "c/stable={stable}",
                                 {"stable"});
    set(cstable, "scheme", "A4-d");
    SweepGrid &oracle = addGrid(s, "coracle", "c/oracle");
    set(oracle, "scheme", "A4-d");
    set(oracle, "a4.enable_revert", "0");

    const std::vector<std::string> headers{"config", "Avg (HP)",
                                           "Avg (LP)", "Avg (all)"};
    auto aggCells = [](const char *label) {
        return std::vector<SweepCellSpec>{cText(label),
                                          cell("agg", "hp"),
                                          cell("agg", "lp"),
                                          cell("agg", "all")};
    };

    text(s, "=== Fig. 15a: partitioning thresholds (T1, T5) ===\n");
    SweepOutput &ta = addTable(s, headers);
    ta.table.ref_grid = "baseline";
    addBlock(ta, "a5", {"t5"}).cells = aggCells("T5={t5}% T1=20%");
    addBlock(ta, "a1", {"t1"}).cells = aggCells("T5=90% T1={t1}%");

    text(s, "\n=== Fig. 15b: leak-detection thresholds "
            "(T2/T3/T4) ===\n");
    SweepOutput &tb = addTable(s, headers);
    tb.table.ref_grid = "baseline";
    for (std::size_t i = 0; i < std::size(combos); ++i) {
        addBlock(tb, sformat("b%zu", i + 1).c_str()).cells =
            aggCells(combo_labels[i].c_str());
    }

    text(s, "\n=== Fig. 15c: stable interval vs oracle ===\n");
    SweepOutput &tc = addTable(s, headers);
    tc.table.ref_grid = "baseline";
    addBlock(tc, "cstable", {"stable"}).cells =
        aggCells("stable={stable}");
    addBlock(tc, "coracle").cells = aggCells("oracle");
    return s;
}

SweepSpec
ablation()
{
    SweepSpec s;
    s.name = "ablation_replacement";
    s.record = SweepRecordView::Select;
    s.base = staticBase();
    WorkloadSpec &dpdk = s.base.add("dpdk-t", "dpdk", true);
    dpdk.pin = std::make_pair(5u, 6u);
    s.base.add("xmem", "xmem", false);

    SweepAxis &x = addAxis(s, "x", "xmem.pin",
                           {"0:1", "3:4", "5:6", "9:10"});
    x.label_sets.emplace_back(
        "contention",
        std::vector<std::string>{"latent (DCA ways)", "none (baseline)",
                                 "DMA bloat (DPDK's ways)",
                                 "directory (inclusive ways)"});
    addAxis(s, "pol", "replacement", {"lru", "srrip"});

    addGrid(s, "static", "{pol}/x[{x}]", {"x", "pol"});
    // A4 manages the same pair; the LPW is placed by the daemon.
    SweepGrid &a4 = addGrid(s, "a4run", "a4");
    set(a4, "scheme", "A4-d");
    set(a4, "warmup_ns", "150000000");
    set(a4, "measure_ns", "120000000");

    metric(s.metrics, "mpa", "xmem.mpa");

    text(s, "=== Ablation: LLC replacement policy vs A4 "
            "(X-Mem misses/access next to DPDK-T) ===\n");
    SweepOutput &t = addTable(s, {"X-Mem placement", "contention",
                                  "LRU", "SRRIP"});
    SweepRowBlock &b = addBlock(t, "static", {"x"});
    b.cells = {cText("way[{x}]"), cText("{x:contention}"),
               cell("num", "mpa", 3, "pol=lru"),
               cell("num", "mpa", 3, "pol=srrip")};

    SweepOutput note;
    note.kind = SweepOutput::Kind::Note;
    note.point = "a4";
    note.text =
        "\nA4-managed placement (LRU hardware): misses/access = "
        "{mpa:3}\nA4 avoids all three contentions by placement; a "
        "replacement policy can only reshuffle the bloat.\n";
    s.outputs.push_back(std::move(note));
    return s;
}

SweepSpec
memcachedSweep()
{
    SweepSpec s;
    s.name = "memcached_value_sweep";
    s.record = SweepRecordView::Select;
    s.base = findScenario("memcached")->spec;

    addAxis(s, "scheme", "scheme", {"Default", "Isolate", "A4-d"});
    addAxis(s, "value", "mc.value_bytes", {"256", "1024", "4096"});
    addGrid(s, "main", "{scheme}/v{value}B", {"scheme", "value"});

    metric(s.metrics, "mc_perf", "mc.perf");
    metric(s.metrics, "mc_p99_us", "mc.lat_p99_us");
    metric(s.metrics, "mc_hit", "mc.hit");
    metric(s.metrics, "storage_gbps", "fio.io_rd_gbps");

    text(s, "=== Memcached/UDP value-size sweep (vs 1 MiB-block FIO "
            "antagonist) ===\n");
    SweepOutput &t = addTable(
        s, {"scheme", "value", "Mc req/s", "Mc p99 us", "Mc LLC hit",
            "Storage GB/s"});
    SweepRowBlock &b = addBlock(t, "main", {"scheme", "value"});
    b.cells = {cText("{scheme}"),          cText("{value}B"),
               cell("num", "mc_perf", 0),  cell("num", "mc_p99_us", 1),
               cell("pct", "mc_hit"),      cell("num", "storage_gbps")};
    return s;
}

SweepSpec
storageServerSweep()
{
    SweepSpec s;
    s.name = "storage_server_sweep";
    s.record = SweepRecordView::Select;
    s.base = findScenario("storage-server")->spec;

    addAxis(s, "scheme", "scheme", {"Default", "Isolate", "A4-d"});
    addAxis(s, "block", "ss.block_bytes",
            {"65536", "131072", "524288"});
    addGrid(s, "main", "{scheme}/b{block}", {"scheme", "block"});

    metric(s.metrics, "ss_perf", "ss.perf");
    metric(s.metrics, "ss_p99_us", "ss.lat_p99_us");
    metric(s.metrics, "ss_leak", "ss.leak");
    metric(s.metrics, "ant_gbps", "fio.io_rd_gbps");

    text(s, "=== Storage-server block-size sweep (NIC -> NVMe -> NIC "
            "vs ffsb-heavy FIO antagonist) ===\n");
    SweepOutput &t = addTable(
        s, {"scheme", "block", "SS req/s", "SS p99 us", "SS DCA leak",
            "Antag GB/s"});
    SweepRowBlock &b = addBlock(t, "main", {"scheme", "block"});
    b.cells = {cText("{scheme}"),          cText("{block}B"),
               cell("num", "ss_perf", 0),  cell("num", "ss_p99_us", 1),
               cell("pct", "ss_leak"),     cell("num", "ant_gbps")};
    return s;
}

SweepSpec
fleetTenantSweep()
{
    SweepSpec s;
    s.name = "fleet_tenant_sweep";
    s.record = SweepRecordView::Select;
    s.base = findScenario("fleet-memcached")->spec;

    addAxis(s, "scheme", "scheme", {"Default", "A4-d"});
    addAxis(s, "tenants", "mc.replicate", {"16", "32", "64"});
    SweepGrid &g =
        addGrid(s, "main", "{scheme}/t{tenants}", {"scheme", "tenants"});
    // Per-tenant CLOS under A4: 16+ LP tenants exhaust the 16 CLOS,
    // so the grouping pass is on the hot path of every A4-d point.
    set(g, "a4.per_tenant_clos", "1");

    metric(s.metrics, "jain", "sys.jain_fairness");
    metric(s.metrics, "fleet_p99_us", "sys.fleet_p99_us");
    metric(s.metrics, "worst_slowdown", "sys.worst_slowdown");
    metric(s.metrics, "fe_p99_us", "fe.lat_p99_us");
    metric(s.metrics, "fe_perf", "fe.perf");

    text(s, "=== Fleet tenant-count sweep (1 HPW memcached frontend "
            "vs N replicated LPW tenants) ===\n");
    SweepOutput &t = addTable(
        s, {"scheme", "tenants", "Jain", "fleet p99 us",
            "worst slowdown", "FE p99 us", "FE req/s"});
    SweepRowBlock &b = addBlock(t, "main", {"scheme", "tenants"});
    b.cells = {cText("{scheme}"),
               cText("{tenants}"),
               cell("num", "jain", 3),
               cell("num", "fleet_p99_us", 1),
               cell("num", "worst_slowdown", 3),
               cell("num", "fe_p99_us", 1),
               cell("num", "fe_perf", 0)};
    return s;
}

} // namespace

const std::vector<RegisteredSweep> &
sweepRegistry()
{
    static const std::vector<RegisteredSweep> reg = [] {
        std::vector<RegisteredSweep> v;
        auto add = [&v](SweepSpec spec, const char *description) {
            validateSweepSpec(spec, spec.name);
            std::string name = spec.name;
            v.push_back(
                {std::move(name), description, std::move(spec)});
        };
        add(fig03(), "Fig. 3 contention study: DPDK-NT/T vs X-Mem "
                     "across way positions");
        add(fig04(), "Fig. 4 directory-contention validation via the "
                     "global DCA knob");
        add(fig05(), "Fig. 5 storage block size x DCA, FIO solo");
        add(fig06(), "Fig. 6 FIO's impact on DPDK-T latency (C2)");
        add(fig07(), "Fig. 7 n-Overlap vs n-Exclude allocation");
        add(fig08(), "Fig. 8 per-port DDIO disable + trash-way "
                     "shrink");
        add(fig11(), "Fig. 11 X-Mem IPC/hit vs packet size");
        add(fig12(), "Fig. 12 network tail/throughput vs storage "
                     "block");
        add(fig13(), "Fig. 13 Table-2 real-world mixes");
        add(fig14(), "Fig. 14 latency/throughput/membw breakdowns");
        add(fig15(), "Fig. 15 A4 threshold/timing sensitivity");
        add(ablation(), "Related-work ablation: LRU/SRRIP vs A4 "
                        "placement");
        add(memcachedSweep(), "Memcached/UDP value-size sweep (non-"
                              "paper demo)");
        add(storageServerSweep(), "Storage-server scheme x block "
                                  "sweep: NIC -> NVMe -> NIC end-to-"
                                  "end (non-paper demo)");
        add(fleetTenantSweep(), "Fleet scheme x tenant-count sweep: "
                                "fairness and tail aggregates with "
                                "CLOS grouping (non-paper demo)");
        return v;
    }();
    return reg;
}

const RegisteredSweep *
findSweep(const std::string &name)
{
    for (const RegisteredSweep &r : sweepRegistry()) {
        if (r.name == name)
            return &r;
    }
    return nullptr;
}

std::string
workloadKindSummary(const ScenarioSpec &spec)
{
    // Kinds in first-appearance order, runs collapsed to "Nx kind".
    std::vector<std::pair<std::string, unsigned>> counts;
    for (const WorkloadSpec &w : spec.workloads) {
        bool found = false;
        for (auto &[kind, n] : counts) {
            if (kind == w.kind) {
                ++n;
                found = true;
                break;
            }
        }
        if (!found)
            counts.emplace_back(w.kind, 1);
    }
    std::string out;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i)
            out += "+";
        if (counts[i].second > 1)
            out += sformat("%ux ", counts[i].second);
        out += counts[i].first;
    }
    return out.empty() ? "(no workloads)" : out;
}

std::vector<RegistryLine>
sweepListing()
{
    std::vector<RegistryLine> rows;
    for (const RegisteredSweep &r : sweepRegistry()) {
        rows.push_back({r.name, r.spec.pointCount(),
                        workloadKindSummary(r.spec.base) + " — " +
                            r.description});
    }
    return rows;
}

std::vector<RegistryLine>
scenarioListing()
{
    std::vector<RegistryLine> rows;
    for (const RegisteredScenario &r : scenarioRegistry()) {
        rows.push_back({r.name, 1,
                        workloadKindSummary(r.spec) + " — " +
                            r.description});
    }
    return rows;
}

} // namespace a4
