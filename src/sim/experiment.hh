/**
 * @file
 * Experiment-level helpers shared by the bench harnesses: the 28
 * standard balanced-random mixes, single-thread reference IPCs for
 * STP, and one-call runners for each core configuration.
 */

#ifndef SHELFSIM_SIM_EXPERIMENT_HH
#define SHELFSIM_SIM_EXPERIMENT_HH

#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "workload/mix.hh"

namespace shelf
{

class ResultCache;

namespace validate { struct SweepJobSpec; }

/** Simulation-length controls for experiments; scaled by the
 * SHELFSIM_SCALE environment variable (default 1.0). */
struct SimControls
{
    Cycle warmupCycles = 4000;
    Cycle measureCycles = 16000;
    uint64_t seed = 1;

    /**
     * Fault injection: cycle at which the core stops retiring
     * instructions (0 = never). Exercises the forward-progress
     * watchdog and crash-dump paths end to end; see
     * `--inject-fault K=wedge`.
     */
    Cycle wedgeAtCycle = 0;

    /**
     * Multi-core system mode: number of cores sharing the memory
     * hierarchy and the thread-to-core allocation policy
     * (sim/allocation.hh). With one core the allocation name is
     * ignored; a mix then must have exactly core.threads entries,
     * otherwise up to numCores * core.threads.
     */
    unsigned numCores = 1;
    std::string allocation = "round-robin";

    /** Warm-state memo for the systems of one sweep
     * (SystemConfig::warmMemo); null runs every warmup walk. */
    WarmMemo *warmMemo = nullptr;

    /** Read SHELFSIM_SCALE and scale cycle counts. */
    static SimControls fromEnv();
};

/** The paper's 28 balanced-random mixes of @p threads threads. */
std::vector<WorkloadMix> standardMixes(unsigned threads,
                                       uint64_t seed = 42);

/** The system runMix() builds for one mix on one configuration. */
SystemConfig mixConfig(const CoreParams &core, const WorkloadMix &mix,
                       const SimControls &ctl);

/** Run one mix on one core configuration. */
SystemResult runMix(const CoreParams &core, const WorkloadMix &mix,
                    const SimControls &ctl);

/** Run one benchmark single-threaded on a 1-thread variant of
 * @p core (for Figures 1/2 style studies). */
SystemResult runSingle(const CoreParams &core,
                       const std::string &benchmark,
                       const SimControls &ctl);

/**
 * Single-thread reference IPCs for STP, computed per benchmark on a
 * single-thread variant of the *baseline* core (the common-reference
 * methodology; see EXPERIMENTS.md).
 *
 * Thread-safe: ipc() may be called concurrently from parallel sweep
 * workers. Each benchmark's reference simulation runs exactly once
 * per instance (per-benchmark once-semantics: a second caller for a
 * benchmark that is being computed blocks until the result lands
 * rather than duplicating the run). Prefer seeding the cache up
 * front with precompute(), which fans the reference simulations
 * across the worker pool, over paying for them lazily mid-sweep.
 */
class STReference
{
  public:
    explicit STReference(const SimControls &ctl);

    /** Reference IPC of benchmark index @p bench (thread-safe). */
    double ipc(size_t bench);

    /**
     * Reference IPC of a trace-backed workload: the trace replayed
     * single-threaded on the 1-thread baseline core. Keyed by the
     * trace's content @p hash (not its path), so renamed copies
     * share one reference run and an edited file gets a fresh one.
     * Same once-semantics and thread-safety as ipc(); fatal() if the
     * trace fails to load (references are computed from inputs the
     * sweep already validated).
     */
    double ipcForTrace(const std::string &path,
                       const std::string &hash);

    /**
     * Compute (in parallel, input-ordered and deterministic) every
     * reference IPC that evaluating @p mixes will need and is not
     * cached yet. @p jobs as in runJobs().
     */
    void precompute(const std::vector<WorkloadMix> &mixes,
                    unsigned jobs = 0);

    /** Precompute the reference IPC of every known benchmark. */
    void precomputeAll(unsigned jobs = 0);

  private:
    double compute(size_t bench) const;
    double computeTrace(const std::string &path,
                        const std::string &hash) const;
    void precomputeBenches(std::vector<size_t> benches,
                           unsigned jobs);

    SimControls ctl;
    std::mutex m;
    std::condition_variable ready;
    std::map<size_t, double> cache;     ///< guarded by m
    std::set<size_t> inFlight;          ///< guarded by m
    /** Trace references, keyed by content hash; guarded by m. */
    std::map<std::string, double> traceCache;
    std::set<std::string> traceInFlight;
};

/**
 * Process-lifetime shared STReference for @p ctl: repeated sweeps
 * with the same simulation controls (e.g. the STP table and the
 * ANTT cross-check of one harness) reuse one reference cache
 * instead of re-simulating the single-thread baselines.
 */
STReference &sharedReference(const SimControls &ctl);

/**
 * Back every STReference in this process with a content-addressed
 * result cache (nullptr disconnects). A single-thread reference run
 * is itself a canonical (1-thread baseline config, [bench]) sweep
 * job, so its result lives in the same cache tier as sweep cells:
 * the serve daemon and warm --cache-dir sweeps skip reference
 * recomputation exactly like they skip cell recomputation. The
 * cache must outlive its registration.
 */
void setReferenceResultCache(ResultCache *cache);

/** STP of a mix result against the reference. */
double stpOf(const SystemResult &res, const WorkloadMix &mix,
             STReference &ref);

/**
 * STP of a sweep-job result against the reference, dispatching on
 * the spec's workload kind: generator-backed specs normalize against
 * per-benchmark references (as stpOf), trace-backed specs against
 * per-trace references (ipcForTrace). The spec must carry content
 * hashes for its traces (fillTraceHashes).
 */
double stpOfSpec(const SystemResult &res,
                 const validate::SweepJobSpec &spec,
                 STReference &ref);

/** ANTT (average normalized turnaround time; lower is better). */
double anttOf(const SystemResult &res, const WorkloadMix &mix,
              STReference &ref);

} // namespace shelf

#endif // SHELFSIM_SIM_EXPERIMENT_HH
