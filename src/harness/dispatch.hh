/**
 * @file
 * Fault-tolerant job dispatcher: the one engine behind the local and
 * the distributed sweep runner.
 *
 * A run shards its points across two kinds of lanes that drain one
 * shared queue:
 *
 *   - local lanes: fork()-per-point children, payload framed over a
 *     pipe;
 *   - remote lanes: a4worker daemons reached over TCP (net/), one
 *     in-flight JOB each, liveness tracked by HEARTBEATs.
 *
 * Failure model (the degradation ladder):
 *
 *   1. A failed attempt — child crash, per-point timeout, corrupt or
 *      truncated result frame, worker-reported ERROR — re-queues the
 *      point and consumes one unit of its bounded retry budget
 *      (default 2 retries; $A4_POINT_RETRIES). Exhaustion is a loud
 *      fatal() naming the point and the lane that failed it.
 *   2. A lost worker — connection drop, bad frame, heartbeat silence
 *      — gets its in-flight point re-dispatched (free: worker loss is
 *      not the point's fault) and is re-connected with exponential
 *      backoff; repeated losses retire the worker for the run.
 *   3. All workers gone degrades to the local pool alone — the run
 *      completes, slower, with one warning.
 *
 * Results are reassembled in submission order, so every recovery path
 * produces output byte-identical to a clean local `--jobs 1` run.
 *
 * Deterministic fault injection ($A4_FAULT, test/CI only):
 * comma-separated `kind:point` clauses with kind one of crash (child
 * SIGKILLs itself), hang (child blocks until the timeout kills it),
 * corrupt (one payload byte flipped — the frame checksum catches it),
 * drop (local: the child truncates its frame; remote: the worker
 * closes the connection mid-RESULT). A fault fires on attempt 0
 * only, so every injected failure recovers on the retry.
 */

#ifndef A4_HARNESS_DISPATCH_HH
#define A4_HARNESS_DISPATCH_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace a4
{

/** How a run executes: lanes, budgets, deadlines. */
struct DispatchConfig
{
    std::string bench;                ///< for diagnostics
    unsigned local_slots = 1;         ///< concurrent local children
    std::vector<std::string> workers; ///< "host:port" remote lanes
    std::string sweep_text;           ///< serialized SweepSpec for JOBs
    double point_timeout_s = 0;       ///< 0 = no per-point timeout
    unsigned retry_budget = 2;        ///< retries per point, not tries
    double worker_silence_s = 5.0;    ///< heartbeat-loss window
    double connect_timeout_s = 2.0;   ///< per connect() attempt
    unsigned reconnect_attempts = 3;  ///< consecutive failures allowed
    double reconnect_backoff_s = 0.25; ///< doubles per failure
};

/** What the failure model had to do (all zero on a clean run). */
struct DispatchStats
{
    unsigned retries = 0;       ///< failed attempts re-queued
    unsigned redispatches = 0;  ///< points re-queued on worker loss
    unsigned workers_lost = 0;  ///< workers retired for the run
    unsigned remote_points = 0; ///< points completed by workers
};

/** One shared job queue drained by local + remote lanes. */
class Dispatcher
{
  public:
    explicit Dispatcher(DispatchConfig cfg);

    /**
     * Run @p n jobs and return their payloads in index order.
     * @p fn computes job @p i's payload (in a child process, or on a
     * worker via the sweep text); @p label names job @p i — both for
     * diagnostics and as the JOB point name, so with remote workers
     * it must be the expanded SweepSpec point name.
     *
     * With no workers and local_slots <= 1 the jobs run in-process —
     * the debugging/reference path (fault injection does not apply).
     */
    std::vector<std::string>
    run(std::size_t n, const std::function<std::string(std::size_t)> &fn,
        const std::function<std::string(std::size_t)> &label);

    const DispatchStats &stats() const { return stats_; }
    const DispatchConfig &config() const { return cfg_; }

  private:
    DispatchConfig cfg_;
    DispatchStats stats_;
};

// --------------------------------------------------------------------
// Failure-model env knobs + fault injection

/** $A4_POINT_TIMEOUT (seconds, fractional ok) or @p fallback. */
double pointTimeoutFromEnv(double fallback = 0);

/** A count: a whole decimal number in [@p min, UINT_MAX], else
 *  nullopt (trailing text, overflow and values below @p min). */
std::optional<unsigned> parseCount(const char *s, unsigned min);

/** $A4_POINT_RETRIES (a count >= 0) or, with a warning when it is
 *  set but not a count, @p fallback. */
unsigned retryBudgetFromEnv(unsigned fallback = 2);

/** $A4_WORKERS (comma-separated host:port list) or empty. */
std::vector<std::string> workersFromEnv();

/** Split a comma-separated worker list (empty elements dropped). */
std::vector<std::string> parseWorkerList(const std::string &list);

/** Injected failure kinds (see the file comment). */
enum class FaultKind
{
    None,
    Crash,
    Hang,
    Corrupt,
    Drop,
};

/** $A4_FAULT's raw value ("" when unset); malformed clauses warn
 *  once and disable the whole value. */
std::string faultEnv();

/** The fault to inject for @p point on attempt @p attempt, given the
 *  $A4_FAULT text @p spec (faults fire on attempt 0 only). */
FaultKind faultFor(const std::string &spec, const std::string &point,
                   unsigned attempt);

} // namespace a4

#endif // A4_HARNESS_DISPATCH_HH
