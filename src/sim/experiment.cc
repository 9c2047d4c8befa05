#include "sim/experiment.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <list>

#include "base/json.hh"
#include "base/logging.hh"
#include "metrics/throughput.hh"
#include "sim/parallel.hh"
#include "sim/result_cache.hh"
#include "sim/supervisor.hh"
#include "validate/config_json.hh"
#include "workload/spec2006.hh"

namespace shelf
{

namespace
{

/** Process-wide backing store for reference runs (may be null). */
std::atomic<ResultCache *> refResultCache{nullptr};

} // namespace

void
setReferenceResultCache(ResultCache *cache)
{
    refResultCache.store(cache);
}

SimControls
SimControls::fromEnv()
{
    SimControls ctl;
    if (const char *s = std::getenv("SHELFSIM_SCALE")) {
        // Strict parse: atof would silently turn "nan", "0.5x", or
        // garbage into NaN/partial values and yield zero-cycle
        // "measurements" downstream. tryParseDouble already rejects
        // NaN/infinity and trailing text.
        double scale;
        fatal_if(!tryParseDouble(s, scale) || scale <= 0.0,
                 "bad SHELFSIM_SCALE '%s' (need a finite value "
                 "> 0)", s);
        ctl.warmupCycles =
            static_cast<Cycle>(ctl.warmupCycles * scale);
        ctl.measureCycles =
            static_cast<Cycle>(ctl.measureCycles * scale);
        if (ctl.measureCycles < 1) {
            warn("SHELFSIM_SCALE %s leaves no measured cycles; "
                 "clamping to 1", s);
            ctl.measureCycles = 1;
        }
    }
    return ctl;
}

std::vector<WorkloadMix>
standardMixes(unsigned threads, uint64_t seed)
{
    size_t num_benchmarks = spec2006Profiles().size();
    // 28 mixes, like the paper, regardless of thread count (28*T is
    // divisible by 28 benchmarks for any T).
    return balancedRandomMixes(num_benchmarks, threads,
                               num_benchmarks, seed);
}

SystemConfig
mixConfig(const CoreParams &core, const WorkloadMix &mix,
          const SimControls &ctl)
{
    SystemConfig cfg;
    cfg.core = core;
    cfg.seed = ctl.seed;
    cfg.warmupCycles = ctl.warmupCycles;
    cfg.measureCycles = ctl.measureCycles;
    cfg.numCores = ctl.numCores;
    cfg.allocation = ctl.allocation;
    cfg.warmMemo = ctl.warmMemo;
    const auto &profiles = spec2006Profiles();
    for (size_t b : mix.benchmarks)
        cfg.benchmarks.push_back(profiles[b].name);
    return cfg;
}

SystemResult
runMix(const CoreParams &core, const WorkloadMix &mix,
       const SimControls &ctl)
{
    SystemConfig cfg = mixConfig(core, mix, ctl);
    if (cfg.numCores == 1) {
        fatal_if(cfg.benchmarks.size() != core.threads,
                 "mix size %zu != %u threads", cfg.benchmarks.size(),
                 core.threads);
    } else {
        fatal_if(cfg.benchmarks.size() >
                 static_cast<size_t>(cfg.numCores) * core.threads,
                 "mix size %zu > %u cores x %u threads",
                 cfg.benchmarks.size(), cfg.numCores, core.threads);
    }
    System sys(std::move(cfg));
    if (ctl.wedgeAtCycle) {
        for (unsigned c = 0; c < sys.numCores(); ++c)
            if (sys.hasCore(c))
                sys.core(c).wedgeRetirementAt(ctl.wedgeAtCycle);
    }
    return sys.run();
}

SystemResult
runSingle(const CoreParams &core, const std::string &benchmark,
          const SimControls &ctl)
{
    CoreParams single = core;
    single.threads = 1;
    SystemConfig cfg;
    cfg.core = single;
    cfg.seed = ctl.seed;
    cfg.warmupCycles = ctl.warmupCycles;
    cfg.measureCycles = ctl.measureCycles;
    cfg.benchmarks = { benchmark };
    System sys(cfg);
    return sys.run();
}

STReference::STReference(const SimControls &ctl_)
    : ctl(ctl_)
{}

double
STReference::compute(size_t bench) const
{
    const auto &profiles = spec2006Profiles();
    panic_if(bench >= profiles.size(), "bad benchmark index %zu",
             bench);
    // A reference run is itself a canonical sweep job (1-thread
    // baseline core, one-benchmark mix), so it is content-addressed
    // in the same cache tier as sweep cells when one is registered.
    validate::SweepJobSpec spec;
    spec.core = baseCore64(1);
    spec.mixBenchmarks = { bench };
    spec.warmupCycles = ctl.warmupCycles;
    spec.measureCycles = ctl.measureCycles;
    spec.seed = ctl.seed;
    ResultCache *cache = refResultCache.load();
    SystemResult res;
    std::string cached;
    if (cache &&
        cache->lookup(validate::canonicalJobKey(spec), cached)) {
        res = SystemResult::fromJson(cached);
    } else {
        res = runSingle(baseCore64(1), profiles[bench].name, ctl);
        if (cache) {
            cache->insert(validate::canonicalJobKey(spec),
                          res.toJson(JsonWriter::kFullPrecision));
        }
    }
    double ipc = res.threads[0].ipc;
    panic_if(ipc <= 0.0, "zero single-thread IPC for %s",
             profiles[bench].name.c_str());
    return ipc;
}

double
STReference::computeTrace(const std::string &path,
                          const std::string &hash) const
{
    // Like compute(): the reference run is itself a canonical sweep
    // job (1-thread baseline core replaying this one trace), so it
    // shares the content-addressed cache tier with sweep cells.
    validate::SweepJobSpec spec;
    spec.core = baseCore64(1);
    spec.tracePaths = { path };
    spec.traceHashes = { hash };
    spec.warmupCycles = ctl.warmupCycles;
    spec.measureCycles = ctl.measureCycles;
    spec.seed = ctl.seed;
    ResultCache *cache = refResultCache.load();
    SystemResult res;
    std::string cached;
    if (cache &&
        cache->lookup(validate::canonicalJobKey(spec), cached)) {
        res = SystemResult::fromJson(cached);
    } else {
        std::string err;
        fatal_if(!tryRunSweepJob(spec, res, err),
                 "single-thread reference run for trace '%s' "
                 "failed: %s", path.c_str(), err.c_str());
        if (cache) {
            cache->insert(validate::canonicalJobKey(spec),
                          res.toJson(JsonWriter::kFullPrecision));
        }
    }
    double ipc = res.threads[0].ipc;
    panic_if(ipc <= 0.0, "zero single-thread IPC for trace %s",
             path.c_str());
    return ipc;
}

double
STReference::ipcForTrace(const std::string &path,
                         const std::string &hash)
{
    fatal_if(hash.empty(),
             "trace reference for '%s' needs a content hash",
             path.c_str());
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
        auto it = traceCache.find(hash);
        if (it != traceCache.end())
            return it->second;
        if (traceInFlight.count(hash)) {
            ready.wait(lk);
            continue;
        }
        traceInFlight.insert(hash);
        lk.unlock();
        double value = computeTrace(path, hash);
        lk.lock();
        traceCache[hash] = value;
        traceInFlight.erase(hash);
        ready.notify_all();
        return value;
    }
}

double
STReference::ipc(size_t bench)
{
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
        auto it = cache.find(bench);
        if (it != cache.end())
            return it->second;
        if (inFlight.count(bench)) {
            // Another thread is simulating this benchmark: wait for
            // its result instead of duplicating the run.
            ready.wait(lk);
            continue;
        }
        inFlight.insert(bench);
        lk.unlock();
        double value = compute(bench);
        lk.lock();
        cache[bench] = value;
        inFlight.erase(bench);
        ready.notify_all();
        return value;
    }
}

void
STReference::precomputeBenches(std::vector<size_t> benches,
                               unsigned jobs)
{
    std::sort(benches.begin(), benches.end());
    benches.erase(std::unique(benches.begin(), benches.end()),
                  benches.end());
    {
        std::lock_guard<std::mutex> lk(m);
        benches.erase(
            std::remove_if(benches.begin(), benches.end(),
                           [&](size_t b) { return cache.count(b); }),
            benches.end());
    }
    runJobs(benches.size(),
            [&](size_t i) { ipc(benches[i]); }, jobs);
}

void
STReference::precompute(const std::vector<WorkloadMix> &mixes,
                        unsigned jobs)
{
    std::vector<size_t> benches;
    for (const auto &mix : mixes)
        for (size_t b : mix.benchmarks)
            benches.push_back(b);
    precomputeBenches(std::move(benches), jobs);
}

void
STReference::precomputeAll(unsigned jobs)
{
    std::vector<size_t> benches(spec2006Profiles().size());
    for (size_t b = 0; b < benches.size(); ++b)
        benches[b] = b;
    precomputeBenches(std::move(benches), jobs);
}

STReference &
sharedReference(const SimControls &ctl)
{
    struct Entry
    {
        SimControls ctl;
        STReference ref;
        explicit Entry(const SimControls &c) : ctl(c), ref(c) {}
    };
    static std::mutex m;
    static std::list<Entry> entries;

    std::lock_guard<std::mutex> lk(m);
    for (auto &e : entries) {
        if (e.ctl.warmupCycles == ctl.warmupCycles &&
            e.ctl.measureCycles == ctl.measureCycles &&
            e.ctl.seed == ctl.seed) {
            return e.ref;
        }
    }
    entries.emplace_back(ctl);
    return entries.back().ref;
}

double
stpOf(const SystemResult &res, const WorkloadMix &mix,
      STReference &ref)
{
    std::vector<double> ipc_mt = res.ipcVector();
    std::vector<double> ipc_st;
    for (size_t b : mix.benchmarks)
        ipc_st.push_back(ref.ipc(b));
    return stp(ipc_mt, ipc_st);
}

double
stpOfSpec(const SystemResult &res,
          const validate::SweepJobSpec &spec, STReference &ref)
{
    std::vector<double> ipc_mt = res.ipcVector();
    std::vector<double> ipc_st;
    if (spec.tracePaths.empty()) {
        for (size_t b : spec.mixBenchmarks)
            ipc_st.push_back(ref.ipc(b));
    } else {
        fatal_if(spec.traceHashes.size() != spec.tracePaths.size(),
                 "stpOfSpec: spec lacks trace content hashes");
        for (size_t t = 0; t < spec.tracePaths.size(); ++t)
            ipc_st.push_back(ref.ipcForTrace(spec.tracePaths[t],
                                             spec.traceHashes[t]));
    }
    return stp(ipc_mt, ipc_st);
}

double
anttOf(const SystemResult &res, const WorkloadMix &mix,
       STReference &ref)
{
    std::vector<double> ipc_mt = res.ipcVector();
    std::vector<double> ipc_st;
    for (size_t b : mix.benchmarks)
        ipc_st.push_back(ref.ipc(b));
    return antt(ipc_mt, ipc_st);
}

} // namespace shelf
