/**
 * @file
 * Supervised sweep executor: fault-isolated, resumable execution of
 * independent (mix, config) simulation jobs.
 *
 * The parallel runner (sim/parallel.hh) fans jobs across threads of
 * one address space, so a single SIGSEGV, tripped invariant, or
 * livelocked configuration — exactly what the fuzzer hunts and what
 * design-space sweeps keep finding — destroys the whole sweep and
 * every completed result with it. The supervisor is the layer above
 * the runner that makes sweeps survive their jobs:
 *
 *  - isolation: each job runs in a sandboxed child process (a
 *    re-exec of the current binary in a hidden `--worker` mode; the
 *    job spec travels as one JSON document, the result comes back
 *    over a pipe at full double precision, so results are
 *    byte-identical to an in-process run);
 *  - watchdog: a per-job wall-clock timeout SIGKILLs hung workers;
 *  - retries: crashed and timed-out jobs re-run with exponential
 *    backoff, up to a bounded retry budget;
 *  - quarantine: jobs that exhaust the budget are reported with a
 *    one-line repro artifact (`<binary> --worker '<spec>'`) and an
 *    explicitly-missing result cell, instead of aborting the sweep;
 *  - journal: completed jobs append one JSONL record each, so an
 *    interrupted sweep resumed with the same journal re-runs only
 *    unfinished jobs and replays finished ones byte-identically.
 *
 * In-process mode (isolate = false, the default) executes jobs on
 * the worker pool exactly like runJobs() — same speed, same results
 * — while keeping the journal/resume and retry bookkeeping, so
 * harnesses can adopt the supervisor without behavior change and
 * flip isolation on per run. In-process run() calls additionally
 * share one functional warmup among the jobs that would walk the
 * same one (the window configurations of one mix; see WarmMemo) and
 * dispatch such jobs so that they follow each other.
 */

#ifndef SHELFSIM_SIM_SUPERVISOR_HH
#define SHELFSIM_SIM_SUPERVISOR_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "validate/config_json.hh"

namespace shelf
{

class WorkerLauncher;

struct SupervisorOptions
{
    /** Run each job in a sandboxed child process. */
    bool isolate = false;

    /** Per-job wall-clock watchdog in seconds; 0 disables it. Only
     * meaningful with isolation (an in-process job cannot be killed
     * safely). */
    double timeoutSeconds = 0;

    /** Re-runs granted to a crashed/timed-out job before it is
     * quarantined (total attempts = retries + 1). */
    unsigned retries = 2;

    /** Base retry delay; attempt k waits backoffDelay(k) =
     * backoffSeconds * 2^(k-1), capped at 5 s. */
    double backoffSeconds = 0.25;

    /** JSONL journal path; empty disables journaling. */
    std::string journalPath;

    /** Replay finished jobs from the journal instead of re-running
     * them (requires journalPath). */
    bool resume = false;

    /** Binary to exec for isolated jobs; empty means the current
     * binary (/proc/self/exe), which must handle the hidden
     * --worker mode via maybeRunSweepWorker(). */
    std::string workerBinary;

    /** Worker-pool width, as in runJobs() (0 = defaultJobs()). */
    unsigned jobs = 0;

    /**
     * Directory where workers write crash-dump JSON artifacts
     * (passed to them as SHELFSIM_DUMP_DIR); empty disables worker
     * crash dumps. Dump files a failed worker announced on stderr
     * are linked from the quarantine record. Only meaningful with
     * isolation.
     */
    std::string dumpDir;

    /**
     * Transport that executes isolated job attempts (see
     * sim/launcher.hh). Null means the classic local backend: a
     * LocalSpawnLauncher over workerBinary/dumpDir, constructed by
     * the supervisor. Supplying a launcher redirects where attempts
     * run (e.g. at a --serve node) without changing any of the
     * watchdog/retry/quarantine/journal semantics layered above it.
     * Ignored when isolate is false.
     */
    std::shared_ptr<WorkerLauncher> launcher;

    /**
     * Environment-derived options for harnesses without CLI flags:
     * SHELFSIM_ISOLATE (0/1), SHELFSIM_TIMEOUT (seconds),
     * SHELFSIM_RETRIES, SHELFSIM_BACKOFF (seconds),
     * SHELFSIM_JOURNAL (path), SHELFSIM_RESUME (0/1),
     * SHELFSIM_DUMP_DIR (path). Malformed values are fatal.
     */
    static SupervisorOptions fromEnv();
};

/** Final state of one supervised job. */
struct JobOutcome
{
    enum class Status {
        Ok,          ///< result is valid
        Quarantined, ///< retry budget exhausted; result cell missing
    };

    Status status = Status::Ok;
    SystemResult result;      ///< valid only when ok()
    bool fromJournal = false; ///< replayed, not re-run
    unsigned attempts = 0;    ///< executions performed this run
    double wallSeconds = 0;   ///< total wall clock across attempts
    int exitCode = 0;         ///< last worker exit code (if exited)
    int termSignal = 0;       ///< last worker terminating signal
    bool timedOut = false;    ///< last attempt hit the watchdog
    std::string stderrTail;   ///< tail of the last worker's stderr
    std::string repro;        ///< one-line repro artifact (failures)
    /** Crash-dump JSON the last failed worker announced on stderr
     * (via the "SHELFSIM-DUMP <path>" marker); empty if none. */
    std::string dumpFile;

    bool ok() const { return status == Status::Ok; }
};

class SweepSupervisor
{
  public:
    explicit SweepSupervisor(SupervisorOptions opt);

    /**
     * Execute every job and return outcomes in input order
     * (deterministic for any worker count). Healthy jobs yield
     * byte-identical results to a serial in-process run; failed
     * jobs come back Quarantined instead of taking the process
     * down. Journal records are appended as jobs finish.
     */
    std::vector<JobOutcome>
    run(const std::vector<validate::SweepJobSpec> &jobs);

    /**
     * Execute exactly one job with the same isolation/watchdog/
     * retry/quarantine machinery as run(), but without touching the
     * journal and without the worker pool — the caller provides the
     * concurrency. This is the serve daemon's hook: its executor
     * threads each push one cache-miss job at a time through the
     * supervisor, so a crashing client-supplied config quarantines
     * instead of taking the service down.
     */
    JobOutcome runOne(const validate::SweepJobSpec &spec);

    /** Invoked after each job completes (from worker threads). */
    void
    setProgressCallback(
        std::function<void(size_t, const JobOutcome &)> cb)
    {
        progress = std::move(cb);
    }

    /** Retry-backoff policy: delay before attempt @p attempt
     * (1-based count of failures so far). */
    static double backoffDelay(unsigned attempt, double baseSeconds);

    /**
     * backoffDelay with deterministic per-@p seed jitter in
     * [d, 1.25d): the same (seed, attempt) always produces the same
     * delay (runs stay reproducible), but different jobs and fabric
     * nodes spread out instead of retrying in lockstep. The actual
     * retry sleeps use this, seeded with the job-spec hash.
     */
    static double backoffDelayJittered(unsigned attempt,
                                       double baseSeconds,
                                       uint64_t seed);

    /**
     * The order in which run() dispatches in-process jobs, given
     * each job's warm-memo key (empty: the job shares no warm state)
     * and the worker count. Jobs with equal keys form a group;
     * groups are numbered by first appearance, a keyless job is a
     * group of its own, and jobs go out sorted by
     * (group / workers, rank within group, group). A worker pool so
     * starts one group per worker and then serves each group's later
     * jobs after its first has published the warm state; with one
     * worker, a list whose groups are contiguous keeps its order.
     */
    static std::vector<size_t>
    dispatchOrder(const std::vector<std::string> &keys,
                  unsigned workers);

    /** Warm-memo entries still held: run() drops every entry once
     * its last job has used it, so this is 0 between runs. */
    size_t warmMemoEntries() const { return warmMemo.size(); }

    /** Number of quarantined outcomes. */
    static size_t failures(const std::vector<JobOutcome> &outcomes);

    /**
     * Multi-line human-readable report of every quarantined job
     * (exit status, stderr tail, repro line); empty string when all
     * jobs succeeded. Harnesses print this and carry on — partial
     * but honest.
     */
    static std::string
    failureSummary(const std::vector<JobOutcome> &outcomes);

  private:
    JobOutcome execute(const validate::SweepJobSpec &spec,
                       WarmMemo *memo = nullptr);
    JobOutcome runIsolated(const validate::SweepJobSpec &spec);

    SupervisorOptions opt;
    /** Shares functional-warmup state among the in-process jobs of
     * one run() call (System's WarmMemo). */
    WarmMemo warmMemo;
    std::function<void(size_t, const JobOutcome &)> progress;
};

/**
 * Execute one sweep job in this process and return its result
 * (honoring the spec's self-faulting hook). The worker mode and the
 * supervisor's in-process path share this.
 */
SystemResult runSweepJob(const validate::SweepJobSpec &spec);

/**
 * Non-fatal variant: trace-backed jobs load untrusted input, and a
 * corrupt or missing trace must quarantine that one job — never
 * kill the worker (or, in non-isolated mode, the whole sweep).
 * Returns false with a precise message (trace path, TraceError
 * name, detail) in @p err; such failures are deterministic, so
 * callers quarantine without retrying. Content hashes carried by
 * the spec are re-verified against the file before it runs. A
 * generated single-core job shares its functional warmup through
 * @p memo when one is given.
 */
bool tryRunSweepJob(const validate::SweepJobSpec &spec,
                    SystemResult &res, std::string &err,
                    WarmMemo *memo = nullptr);

/** Exit/quarantine code for deterministic job-input failures (bad
 * trace file): distinct from crash codes so failure summaries and
 * fabric retries can tell "poison job" from "sick node". */
constexpr int kJobInputErrorExit = 4;

/**
 * Hidden worker-mode entry point. When argv is
 * `<prog> --worker '<spec json>'`, runs the job, prints the result
 * payload on stdout, stores the exit code in @p rc, and returns
 * true; the caller's main() should immediately return *rc. Returns
 * false (rc untouched) for every other command line. Every binary
 * that runs supervised sweeps with isolation calls this first thing
 * in main() so it can serve as its own worker.
 */
bool maybeRunSweepWorker(int argc, char **argv, int *rc);

} // namespace shelf

#endif // SHELFSIM_SIM_SUPERVISOR_HH
