/**
 * a4worker: remote sweep-point worker daemon.
 *
 * Listens for a dispatcher (a4bench/a4sim --workers host:port,...),
 * runs each JOB's sweep point in a fork()ed child, and streams the
 * Record back. A JOB is self-contained (sweep name + canonical
 * SweepSpec text + point name + forwarded env knobs), so the daemon
 * needs no registry; it serves any sweep whose build tag matches its
 * own. Point $A4_CKPT_DIR (or --ckpt) at a local directory to reuse
 * warm-up checkpoint images across jobs.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness/worker.hh"
#include "net/protocol.hh"
#include "sim/log.hh"

namespace
{

[[noreturn]] void
usage(int code)
{
    std::FILE *out = code ? stderr : stdout;
    std::fprintf(out,
                 "usage: a4worker [--host H] [--port N] [--once] "
                 "[--ckpt DIR]\n"
                 "  --host H    bind address (default: 127.0.0.1)\n"
                 "  --port N    TCP port; 0 picks an ephemeral port "
                 "(default: 0)\n"
                 "  --once      serve one dispatcher connection, then "
                 "exit\n"
                 "  --ckpt DIR  warm-up checkpoint store (sets "
                 "$A4_CKPT_DIR)\n");
    std::exit(code);
}

} // namespace

static int
run(int argc, char **argv)
{
    a4::WorkerOptions opt;
    bool once = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "a4worker: %s needs a value\n",
                             arg.c_str());
                usage(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--host") {
            opt.host = value();
        } else if (arg == "--port") {
            char *end = nullptr;
            long v = std::strtol(value(), &end, 10);
            if (!end || *end != '\0' || v < 0 || v > 65535) {
                std::fprintf(stderr, "a4worker: bad --port value\n");
                usage(2);
            }
            opt.port = std::uint16_t(v);
        } else if (arg == "--once") {
            once = true;
        } else if (arg == "--ckpt") {
            ::setenv("A4_CKPT_DIR", value(), 1);
        } else {
            std::fprintf(stderr, "a4worker: unknown argument '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }

    a4::WorkerServer server(opt);
    // Flushed before serving: launch scripts wait for this line to
    // know the worker is accepting connections (and which port an
    // ephemeral bind chose).
    std::printf("a4worker: listening on %s:%u (build '%s', "
                "protocol %u)\n",
                opt.host.c_str(), unsigned(server.port()),
                a4::buildTag().c_str(), a4::kNetProtocolVersion);
    std::fflush(stdout);
    if (once) {
        server.serveOnce();
        return 0;
    }
    server.serveForever();
}

int
main(int argc, char **argv)
{
    return a4::runCli("a4worker", [&] { return run(argc, argv); });
}
