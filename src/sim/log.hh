/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * panic() flags an internal simulator bug (impossible state); fatal()
 * flags a user/configuration error. Both throw so that unit tests can
 * assert on misuse; command-line programs run their main() body
 * through runCli(), which turns these and any other exception into
 * one line and exit 1.
 * warn()/inform() print to stderr and never stop the simulation.
 */

#ifndef A4_SIM_LOG_HH
#define A4_SIM_LOG_HH

#include <stdexcept>
#include <string>

namespace a4
{

/** Exception raised by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/** Exception raised by fatal(): the configuration cannot be run. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** printf-style formatting into a std::string. */
std::string sformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an internal simulator bug and abort the simulation. */
[[noreturn]] void panic(const std::string &msg);

/** Report an unusable user configuration and abort the simulation. */
[[noreturn]] void fatal(const std::string &msg);

/** Print a non-fatal suspicious-condition message to stderr. */
void warn(const std::string &msg);

/** Print a status message to stderr. */
void inform(const std::string &msg);

/** Globally silence warn()/inform() (used by benches). */
void setQuiet(bool quiet);

/**
 * Env-knob rejection diagnostic, straight to stderr (never silenced
 * by setQuiet(): a silently ignored knob is worse than a noisy one).
 * Dedups per offending value via caller-owned @p warned state, so a
 * multi-point sweep — and workers forked after the parent validated
 * once, which inherit @p warned — prints one line, not one per
 * parse. One contract for every A4_* knob (window scales, NIC burst).
 * @p format must contain exactly one %s for the offending value.
 */
void warnOncePerValue(std::string &warned, const char *value,
                      const char *format);

/**
 * Print an exception that reached a program's top level as one line
 * on stderr, "<prog>: <message>" (newlines in the message flattened),
 * and return the exit status 1.
 */
int reportCliFailure(const char *prog, const std::exception &e);

/** Run a command-line program's main() body; any std::exception it
 *  throws (FatalError, PanicError, SnapshotError, ...) ends it
 *  through reportCliFailure() instead of an uncaught-exception
 *  abort. */
template <typename Body>
int
runCli(const char *prog, Body &&body)
{
    try {
        return body();
    } catch (const std::exception &e) {
        return reportCliFailure(prog, e);
    }
}

} // namespace a4

#endif // A4_SIM_LOG_HH
