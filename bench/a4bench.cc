/**
 * @file
 * a4bench — run declarative grid sweeps (SweepSpec) by name or from a
 * file, through the Sweep runner and --json Record pipeline. Every
 * paper figure and the replacement ablation is a registered sweep
 * run by name: `a4bench fig11_xmem_packet_sweep`.
 *
 *   a4bench --list                        registered sweeps
 *   a4bench fig11_xmem_packet_sweep       run one by name
 *   a4bench fig11_xmem_packet_sweep --list     its point names
 *   a4bench --file my.sweep               run a sweep from a file
 *   a4bench fig11_xmem_packet_sweep --print    dump the sweep text
 *   a4bench fig11_xmem_packet_sweep --set packet.values=64,1514
 *   a4bench fig05_storage_dca --set base.fio.iodepth=64
 *
 * One sweep per invocation (grids of different sweeps may share point
 * names). Overrides: `base.<spec line>` edits the base scenario,
 * `<axis>.values/labels/range/key` redefine an axis, `record=` the
 * record view. The shared runner flags (--jobs/--filter/--json/
 * --burst/--seed) apply unchanged; windows honour
 * A4_TEST_DURATION_SCALE / A4_BENCH_WINDOWS_MS like every bench.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/figures.hh"
#include "sim/log.hh"

using namespace a4;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::FILE *out = code ? stderr : stdout;
    std::fprintf(out,
        "usage: a4bench [sweep] [options]\n"
        "\n"
        "sweep selection (exactly one):\n"
        "  <name>           registered sweep to run\n"
        "  --file PATH      run a sweep parsed from PATH\n"
        "  --list           without a sweep: list the registry\n"
        "                   (name, workload kinds, point count);\n"
        "                   with one: its point names (after --filter)\n"
        "\n"
        "sweep overrides:\n"
        "  --set KEY=VALUE  base.<spec line>, <axis>.values=...,\n"
        "                   <axis>.range=lo:hi[:step], record=...\n"
        "  --print          print the resolved sweep text and exit\n"
        "\n"
        "runner (shared bench CLI):\n"
        "  --jobs N / -j N  worker processes; --filter SUBSTR;\n"
        "  --json PATH      write Records as JSON; --seed N RNG stream;\n"
        "  --burst MODE     NIC arrival batching\n"
        "\n"
        "Sweep grammar and a cookbook: docs/SCENARIOS.md\n");
    std::exit(code);
}

} // namespace

static int
run(int argc, char **argv)
{
    setQuiet(true);

    std::vector<std::string> names;
    std::vector<std::string> files;
    std::vector<std::string> sets;
    bool print_only = false;

    std::vector<char *> sweep_args{argv[0]};
    auto value = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "a4bench: %s needs a value\n", flag);
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
        } else if (arg == "--print") {
            print_only = true;
        } else if (SweepOptions::takesValue(arg)) {
            sweep_args.push_back(argv[i]);
            if (i + 1 < argc)
                sweep_args.push_back(argv[++i]);
        } else if (!arg.empty() && arg[0] != '-') {
            names.push_back(arg);
        } else {
            sweep_args.push_back(argv[i]);
        }
    }

    if (names.size() + files.size() > 1) {
        std::fprintf(stderr,
                     "a4bench: exactly one sweep per invocation (grids "
                     "of different sweeps may share point names)\n");
        return 2;
    }

    // No sweep selected: --list prints the registry; anything else is
    // a usage error.
    if (names.empty() && files.empty()) {
        const SweepOptions opt = SweepOptions::parse(
            "a4bench", int(sweep_args.size()), sweep_args.data());
        if (!opt.list)
            usage(2);
        std::vector<RegistryLine> rows;
        for (RegistryLine &r : sweepListing()) {
            if (opt.filter.empty() ||
                r.name.find(opt.filter) != std::string::npos)
                rows.push_back(std::move(r));
        }
        std::fputs(formatRegistryListing(rows).c_str(), stdout);
        return 0;
    }

    SweepSpec spec;
    std::string bench;
    if (!names.empty()) {
        const RegisteredSweep *r = findSweep(names[0]);
        if (r == nullptr) {
            std::fprintf(stderr,
                         "a4bench: unknown sweep '%s' (--list shows "
                         "the registry)\n", names[0].c_str());
            return 2;
        }
        spec = r->spec;
        bench = r->name;
    } else {
        spec = loadSweepSpecFile(files[0]);
        bench = spec.name;
    }

    if (!sets.empty())
        applySweepOverrides(spec, sets, "--set");

    if (print_only) {
        std::fputs(serializeSweepSpec(spec).c_str(), stdout);
        return 0;
    }

    return runSweepBench(spec, bench, int(sweep_args.size()),
                         sweep_args.data());
}

int
main(int argc, char **argv)
{
    return a4::runCli("a4bench", [&] { return run(argc, argv); });
}
