/**
 * @file
 * Top-level simulation driver: assembles workload traces, the cache
 * hierarchy, and one or more cores from a configuration; runs warmup
 * and a measured interval; and collects one self-contained result
 * record. This is the primary entry point of the public API.
 *
 * Multi-core mode: with numCores > 1 the configured CoreParams
 * describes each core (threads = per-core SMT width) and the
 * benchmark list names every global thread; a thread-to-core
 * allocation policy (sim/allocation.hh) decides placement. Each core
 * gets private L1 caches; all cores share the L2 and memory, and
 * advance in cycle-lockstep, each keeping its own quiescent-cycle
 * skipping. A numCores == 1 system is byte-identical — run loop,
 * result, and stats report — to the classic single-core path.
 */

#ifndef SHELFSIM_SIM_SYSTEM_HH
#define SHELFSIM_SIM_SYSTEM_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/core.hh"
#include "energy/energy_model.hh"
#include "mem/hierarchy.hh"
#include "workload/generator.hh"
#include "workload/inst_source.hh"

namespace shelf
{

class WarmMemo;

struct SystemConfig
{
    CoreParams core;
    HierarchyParams mem;

    /** One benchmark profile name per global hardware thread. */
    std::vector<std::string> benchmarks;

    uint64_t seed = 1;

    /** Cycles to run before statistics are reset. */
    Cycle warmupCycles = 4000;
    /** Measured cycles. */
    Cycle measureCycles = 16000;

    /** Trace length per thread; 0 = sized automatically from the
     * cycle budget (traces wrap if exhausted). */
    size_t traceLength = 0;

    /**
     * Number of cores sharing the memory hierarchy. `core` describes
     * each core; with one core the benchmark count must equal
     * core.threads exactly (the classic mode), with more it may be
     * anything in [1, numCores * core.threads] and each core's
     * window partitions shrink to its allocated thread count.
     */
    unsigned numCores = 1;

    /** Thread-to-core allocation policy (sim/allocation.hh):
     * round-robin, fill-first, classify, or dynamic. Only consulted
     * when numCores > 1. */
    std::string allocation = "round-robin";

    /**
     * Externally supplied traces (e.g. from trace_io files). When
     * non-empty, one entry per global thread. A thread with a
     * non-empty trace replays it (its benchmarks entry is then only
     * a label); a thread with an empty entry still generates from
     * its benchmarks profile, so trace-backed and generated threads
     * can share a core.
     */
    std::vector<Trace> externalTraces;

    /**
     * Optional in-process memo of functional-warmup state (see
     * WarmMemo), shared by the systems of one sweep. Only a
     * single-core system without external traces consults it; any
     * other system walks its own warmup. Never changes a result.
     */
    WarmMemo *warmMemo = nullptr;
};

struct ThreadResult
{
    std::string benchmark;
    uint64_t instructions = 0;
    double ipc = 0;
    double inSeqFrac = 0;
    /** Core the thread ran on (always 0 in single-core mode). */
    unsigned core = 0;
};

struct SystemResult
{
    std::string configName;
    Cycle cycles = 0;
    std::vector<ThreadResult> threads;
    double totalIpc = 0;

    double inSeqFrac = 0;        ///< all threads combined
    double shelfSteerFrac = 0;   ///< instructions steered to shelf
    /** Practical-vs-oracle steering disagreement rate; only
     * populated when CoreParams::shadowOracle is set. */
    double missteerFrac = 0;
    double branchMispredictRate = 0;
    double l1dMissRate = 0;
    uint64_t squashes = 0;
    uint64_t memOrderSquashes = 0;

    /** Core count the system ran with, and (when > 1) the
     * allocation policy used. */
    unsigned numCores = 1;
    std::string allocation;

    EnergyReport energy;
    EventCounts events;

    /**
     * @name Weighted series-length distributions (Figure 2).
     * Populated only on fresh in-process results. toJson() does not
     * carry histograms, so on a result rehydrated from JSON (result
     * cache hit, isolated worker, journal replay) these accessors
     * fatal() instead of silently returning empty distributions —
     * check hasHistograms() first if rehydration is possible.
     * @{
     */
    const stats::Histogram &inSeqSeries() const;
    const stats::Histogram &reorderedSeries() const;
    bool hasHistograms() const { return !rehydrated; }
    /** Install fresh in-process series (System::run). */
    void setSeries(stats::Histogram in_seq,
                   stats::Histogram reordered);
    /** @} */

    /** Per-thread IPC vector (for STP computations). */
    std::vector<double> ipcVector() const;

    /**
     * Machine-readable export of the whole result (histograms are
     * not serialized). @p doublePrecision as in JsonWriter: the
     * default is the human-facing form; supervised sweep workers
     * and journal records use JsonWriter::kFullPrecision so every
     * double survives the text round trip bit-exactly.
     */
    std::string toJson(int doublePrecision = 10) const;

    /**
     * Rebuild a result from toJson() output. The histograms, which
     * toJson does not carry, are marked rehydrated: reading them
     * through the accessors fatal()s. fatal() on malformed or
     * unknown-schema input.
     */
    static SystemResult fromJson(const std::string &json);

  private:
    stats::Histogram inSeqSeriesHist;
    stats::Histogram reorderedSeriesHist;
    /** Set by fromJson(): the histograms were lost to the JSON
     * round trip and must not be read. */
    bool rehydrated = false;
};

/**
 * Functional-warmup state shared across the systems of one sweep.
 *
 * The warmup walk of a single-core system reads the first
 * min(len, kWarmupWalk) instructions of each thread and touches only
 * the caches and the branch predictor, so every system with the same
 * traces and hierarchy parameters ends the walk in the same state
 * whatever its window configuration (the four Figure-10 configs of
 * one mix, say). The first such system to warm up walks and
 * publishes a copy of its caches and predictor; the others copy that
 * in instead of walking again.
 *
 * The owner announces each system that will use a key with expect()
 * before any of them runs; an entry is dropped as soon as its last
 * expected user has finished with it, so a drained memo holds
 * nothing. Lookups never wait: two systems that miss at the same
 * time both walk, which costs time but not correctness. Thread-safe.
 */
class WarmMemo
{
  public:
    /** Announce one more system that will warm up under @p key. */
    void expect(const std::string &key);

    /**
     * If a state is published for @p key, copy it into @p mem and
     * @p bpred, count one user of the key done and return true;
     * otherwise leave both untouched and return false.
     */
    bool copyInto(const std::string &key, MemHierarchy &mem,
                  GsharePredictor &bpred);

    /**
     * A user of @p key that walked itself is done; keep a copy of
     * its warmed @p mem and @p bpred if later users still expect it.
     */
    void publish(const std::string &key, const MemHierarchy &mem,
                 const GsharePredictor &bpred);

    /** Keys with users still expected. */
    size_t size() const;

  private:
    struct State
    {
        Cache l1i, l1d, l2;
        GsharePredictor bpred;
    };
    struct Entry
    {
        unsigned users = 0;
        std::shared_ptr<const State> state;
    };

    mutable std::mutex m;
    std::map<std::string, Entry> entries;
};

class System
{
  public:
    /** Instructions per thread the functional warmup walks (at most
     * the trace length). */
    static constexpr size_t kWarmupWalk = 65536;

    explicit System(SystemConfig config);
    ~System();

    /** Trace length per thread that @p cfg gets: its traceLength,
     * or one sized from its cycle budget. */
    static size_t traceLengthOf(const SystemConfig &cfg);

    /**
     * The WarmMemo key of @p cfg: everything its warmup walk reads
     * (each thread's profile, seed, address base and walk length)
     * plus the thread count and hierarchy parameters. Empty when
     * @p cfg cannot share warm state (several cores, or external
     * traces).
     */
    static std::string warmKey(const SystemConfig &cfg);

    /** Run warmup + measurement and return the collected result. */
    SystemResult run();

    /**
     * Text report of every statistic the system tracks (core,
     * caches, predictors, steering, energy), in the classic
     * one-line-per-stat simulator format. Call after run().
     */
    std::string statsReport() const;

    /** Access a live core (valid between construction and run()
     * completion; used by integration tests). An allocation can
     * leave a core empty — check hasCore() before touching cores
     * other than 0 in multi-core mode. */
    Core &core(unsigned idx = 0) { return *cores.at(idx); }
    bool hasCore(unsigned idx) const
    {
        return idx < cores.size() && cores[idx] != nullptr;
    }
    unsigned numCores() const { return cfg.numCores; }
    /** Core @p idx's hierarchy: private L1s; the L2 is private in
     * single-core mode and shared otherwise. */
    MemHierarchy &memory(unsigned idx = 0) { return *hiers.at(idx); }
    /** The L2 every core misses into (the single core's own L2 in
     * single-core mode). */
    Cache &sharedL2Cache()
    {
        return sharedL2 ? *sharedL2 : hiers.at(0)->l2();
    }

    /** Global thread @p t's instruction source. */
    const InstSource &source(unsigned t) const
    {
        return *sources.at(t);
    }

    /** Global thread -> core placement chosen by the allocation
     * policy (after run() with the dynamic policy: the final
     * placement). */
    const std::vector<unsigned> &threadAssignment() const
    {
        return assignment;
    }

  private:
    /** (Re)build the cores from the current assignment. */
    void buildCores();
    /** Functional warmup + predictor reset + timed warmup. */
    void warmupPhase();
    /** Walk a prefix of each thread's stream, installing code and
     * data blocks and training the owning core's predictor. */
    void functionalWarmup();
    /** Advance every core by @p cycles in cycle-lockstep. */
    void runAll(Cycle cycles);
    /** Multi-core variant of statsReport(). */
    std::string multiCoreStatsReport() const;

    SystemConfig cfg;
    /** One per global thread: generated lazily, or a view of the
     * thread's entry in cfg.externalTraces. */
    std::vector<std::unique_ptr<InstSource>> sources;
    /** warmKey(cfg) when cfg.warmMemo is used, else empty. */
    std::string memoKey;
    /** Shared L2 backing every core's private L1s; null in
     * single-core mode (the lone hierarchy then owns its L2). */
    std::unique_ptr<Cache> sharedL2;
    /** One hierarchy (private L1I/L1D) per core slot. */
    std::vector<std::unique_ptr<MemHierarchy>> hiers;
    /** Global thread -> core index. */
    std::vector<unsigned> assignment;
    /** Core index -> global threads, ascending (a thread's position
     * is its core-local ThreadID). */
    std::vector<std::vector<unsigned>> coreThreads;
    /** Global thread -> core-local ThreadID. */
    std::vector<unsigned> localTid;
    /** One entry per core; null where the allocation left a core
     * without threads. */
    std::vector<std::unique_ptr<Core>> cores;
};

} // namespace shelf

#endif // SHELFSIM_SIM_SYSTEM_HH
