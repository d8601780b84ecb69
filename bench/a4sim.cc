/**
 * @file
 * a4sim — run declarative scenarios (ScenarioSpec) by name or from a
 * file, with field overrides, through the same Sweep runner and
 * --json Record pipeline as a4bench's figure sweeps.
 *
 *   a4sim --list                      all registered scenarios
 *   a4sim micro                       run one by name
 *   a4sim realworld-hpw --scheme A4-d scheme override
 *   a4sim micro --set dpdk-t.packet_bytes=256 --set fio.block_bytes=65536
 *   a4sim --file my.spec              run a spec from a file
 *   a4sim micro --print               dump the resolved spec text
 *   a4sim --seed 7 --json out.json    different RNG stream, JSON out
 *
 * With no scenario arguments every registered scenario runs (use
 * --filter/--jobs like any bench). Overrides apply to every selected
 * scenario; `--set workload=<name>` + `--set <name>.kind=...` can even
 * add workloads from the command line. Windows honour
 * A4_TEST_DURATION_SCALE / A4_BENCH_WINDOWS_MS like every bench.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/figures.hh"
#include "harness/scaling.hh"
#include "harness/spec.hh"
#include "harness/table.hh"
#include "sim/log.hh"

using namespace a4;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::FILE *out = code ? stderr : stdout;
    std::fprintf(out,
        "usage: a4sim [scenario ...] [options]\n"
        "\n"
        "scenario selection:\n"
        "  <name> ...       registered scenarios to run (default: all)\n"
        "  --file PATH      add a scenario parsed from PATH\n"
        "  --list           list selected scenarios (name, workload\n"
        "                   kinds; same format as a4bench --list)\n"
        "\n"
        "spec overrides (applied to every selected scenario):\n"
        "  --scheme NAME    Default | Isolate | A4-a..A4-d\n"
        "  --set KEY=VALUE  any spec line, e.g. dpdk-t.packet_bytes=256,\n"
        "                   a4.t5=0.8, measure_ns=50000000\n"
        "  --print          print the resolved spec text(s) and exit\n"
        "\n"
        "runner (shared bench CLI):\n"
        "  --jobs N / -j N  worker processes; --filter SUBSTR;\n"
        "  --json PATH      write Records as JSON; --seed N RNG stream;\n"
        "  --burst MODE     NIC arrival batching\n"
        "\n"
        "Spec grammar and a cookbook: docs/SCENARIOS.md\n");
    std::exit(code);
}

/** Paper-equivalent GB/s cell, "-" for non-I/O workloads. */
std::string
gbpsCell(const SpecResult &res, const SpecWorkloadResult &w, bool in)
{
    if (w.ingress_bytes == 0.0 && w.egress_bytes == 0.0)
        return "-";
    return Table::num(res.toGbps(in ? w.ingress_bytes
                                    : w.egress_bytes));
}

void
printResult(const std::string &name, const ScenarioSpec &spec,
            const SpecResult &res)
{
    std::printf("\n=== %s (scheme %s, measured %.1f ms at 1/%u scale)"
                " ===\n",
                name.c_str(), schemeName(spec.scheme),
                double(res.measure_window) / 1e6, res.scale);
    Table t({"workload", "kind", "QoS", "perf", "IPC", "LLC hit",
             "p99 us", "rd GB/s", "wr GB/s"});
    for (const SpecWorkloadResult &w : res.workloads) {
        t.addRow({w.name + (w.antagonist ? "*" : ""), w.kind,
                  w.hpw ? "HP" : "LP",
                  Table::num(w.perf, w.multithread_io ? 0 : 3),
                  Table::num(w.ipc, 3), Table::pct(w.llc_hit_rate),
                  w.tail_latency_us ? Table::num(w.tail_latency_us, 1)
                                    : std::string("-"),
                  gbpsCell(res, w, true), gbpsCell(res, w, false)});
    }
    t.print();
    std::printf("memory: rd %.2f GB/s, wr %.2f GB/s"
                "%s\n",
                unscaleBw(res.mem_rd_bw_bps, res.scale) / 1e9,
                unscaleBw(res.mem_wr_bw_bps, res.scale) / 1e9,
                res.past_events
                    ? "  [warning: past_events != 0]"
                    : "");
    bool any_ant = false;
    for (const SpecWorkloadResult &w : res.workloads)
        any_ant = any_ant || w.antagonist;
    if (any_ant)
        std::printf("(* = flagged by A4 for pseudo LLC bypassing / "
                    "DDIO disable)\n");
}

} // namespace

static int
run(int argc, char **argv)
{
    setQuiet(true);

    std::vector<std::string> names;
    std::vector<std::string> files;
    std::vector<std::string> sets;
    std::string scheme_override;
    bool print_only = false;

    // Split a4sim-specific arguments from the shared bench CLI.
    std::vector<char *> sweep_args{argv[0]};
    auto value = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "a4sim: %s needs a value\n", flag);
            usage(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--file") {
            files.push_back(value(i, "--file"));
        } else if (arg.rfind("--file=", 0) == 0) {
            files.push_back(arg.substr(7));
        } else if (arg == "--set") {
            sets.push_back(value(i, "--set"));
        } else if (arg.rfind("--set=", 0) == 0) {
            sets.push_back(arg.substr(6));
        } else if (arg == "--scheme") {
            scheme_override = value(i, "--scheme");
        } else if (arg.rfind("--scheme=", 0) == 0) {
            scheme_override = arg.substr(9);
        } else if (arg == "--print") {
            print_only = true;
        } else if (SweepOptions::takesValue(arg)) {
            // Value-taking shared flags: forward flag + value.
            sweep_args.push_back(argv[i]);
            if (i + 1 < argc)
                sweep_args.push_back(argv[++i]);
        } else if (!arg.empty() && arg[0] != '-') {
            names.push_back(arg);
        } else {
            sweep_args.push_back(argv[i]);
        }
    }

    // Resolve the selected scenarios, in selection order.
    std::vector<std::pair<std::string, ScenarioSpec>> selected;
    if (names.empty() && files.empty()) {
        for (const RegisteredScenario &r : scenarioRegistry())
            selected.emplace_back(r.name, r.spec);
    }
    for (const std::string &n : names) {
        const RegisteredScenario *r = findScenario(n);
        if (r == nullptr) {
            std::fprintf(stderr,
                         "a4sim: unknown scenario '%s' (--list shows "
                         "the registry)\n", n.c_str());
            return 2;
        }
        selected.emplace_back(r->name, r->spec);
    }
    for (const std::string &f : files) {
        ScenarioSpec spec = loadSpecFile(f);
        std::string name = spec.name.empty() ? f : spec.name;
        selected.emplace_back(std::move(name), std::move(spec));
    }

    // Apply the overrides to every selected spec — as one batch, so
    // "--set workload=extra --set extra.kind=fio" can add workloads.
    for (auto &[name, spec] : selected) {
        if (!scheme_override.empty())
            applySpecOverride(spec, "scheme=" + scheme_override,
                              "--scheme");
        applySpecOverrides(spec, sets, "--set");
    }
    // Overrides may add workloads to a file's spec, so an empty one is
    // rejected only now, naming its source: the scenario, or the path.
    for (std::size_t i = 0; i < selected.size(); ++i) {
        if (selected[i].second.workloads.empty())
            fatal(sformat("%s: no workloads",
                          i < names.size()
                              ? selected[i].first.c_str()
                              : files[i - names.size()].c_str()));
    }

    if (print_only) {
        for (std::size_t i = 0; i < selected.size(); ++i) {
            if (i)
                std::printf("\n");
            std::fputs(serializeSpec(selected[i].second).c_str(),
                       stdout);
        }
        return 0;
    }

    // --list: the shared registry-listing format (one row per
    // selected scenario, after --filter), same helper as a4bench.
    {
        const SweepOptions opt = SweepOptions::parse(
            "a4sim", int(sweep_args.size()), sweep_args.data());
        if (opt.list) {
            const std::vector<RegistryLine> reg_rows =
                scenarioListing();
            std::vector<RegistryLine> rows;
            for (const auto &[name, spec] : selected) {
                if (!opt.filter.empty() &&
                    name.find(opt.filter) == std::string::npos)
                    continue;
                bool registered = false;
                for (const RegistryLine &r : reg_rows) {
                    if (r.name == name) {
                        rows.push_back(r);
                        registered = true;
                        break;
                    }
                }
                if (!registered) // --file scenarios: kinds only
                    rows.push_back({name, 1,
                                    workloadKindSummary(spec)});
            }
            std::fputs(formatRegistryListing(rows).c_str(), stdout);
            return 0;
        }
    }

    Sweep sw("a4sim", int(sweep_args.size()), sweep_args.data());
    for (const auto &[name, spec] : selected) {
        const ScenarioSpec spec_copy = spec;
        sw.add(name, [spec_copy] {
            SpecResult r = runSpec(spec_copy);
            Record rec = toRecord(r);
            // Diverted into the point's "wall" object by writeJson().
            rec.set("warmup_s", r.warmup_wall_s);
            rec.set("measure_s", r.measure_wall_s);
            return rec;
        });
    }
    sw.run();

    for (const auto &[name, spec] : selected) {
        if (const Record *rec = sw.find(name))
            printResult(name, spec, specResultFrom(*rec));
    }
    return sw.finish();
}

int
main(int argc, char **argv)
{
    return a4::runCli("a4sim", [&] { return run(argc, argv); });
}
