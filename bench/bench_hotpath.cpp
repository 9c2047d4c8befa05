/**
 * @file
 * Hot-path perf-regression microbenchmark: single-core simulation
 * speed (cycles/s) and whole-simulation throughput (sims/s), written
 * to BENCH_core.json. Unlike the figure harnesses this runs the core
 * single-threaded on purpose — it measures the per-cycle loop the
 * slab allocator and the incremental IQ ready list optimise, not the
 * parallel runner.
 *
 * Modes:
 *   bench_hotpath                 measure and write BENCH_core.json
 *   bench_hotpath --check FILE    measure and compare cycles/s per
 *                                 workload against the baseline FILE;
 *                                 exit 1 on a >threshold regression
 *                                 or on any behavioural divergence
 *                                 (retired-instruction counts are
 *                                 cycle-exact and machine-independent).
 *                                 FILE is read before measuring and
 *                                 nothing is written, so a check of
 *                                 ./BENCH_core.json compares against
 *                                 the committed record, not itself
 *   bench_hotpath --threshold X   override every per-workload
 *                                 threshold with one global fraction
 *
 * Each workload carries its own regression threshold (emitted as
 * "min_ratio" in the JSON and read back from the baseline), so a
 * shelf-path slowdown fails the check independently of the base64
 * workloads and of the (noisier) end-to-end sims/s record.
 *
 * Each workload is measured `kRepeats` times and the fastest run is
 * reported, which filters scheduler noise far better than averaging.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/strutil.hh"
#include "core/core.hh"
#include "mem/hierarchy.hh"
#include "sim/experiment.hh"
#include "sim/supervisor.hh"
#include "workload/generator.hh"
#include "workload/mix.hh"
#include "workload/spec2006.hh"

using namespace shelf;

namespace
{

constexpr unsigned kRepeats = 3;
constexpr Cycle kMeasureCycles = 300000;
constexpr size_t kTraceLen = 200000;

/** Per-workload regression thresholds: minimum acceptable fraction
 * of the baseline rate. The shelf workloads are the paths this
 * benchmark exists to protect and get the tightest margin; the
 * end-to-end sims/s record spans process setup and is the noisiest. */
double
minRatioFor(const std::string &name)
{
    if (name == "sims")
        return 0.5;
    if (name.rfind("shelf-opt", 0) == 0)
        return 0.75;
    return 0.7;
}

struct WorkloadResult
{
    std::string name;
    Cycle cycles = 0;
    uint64_t retired = 0; ///< cycle-exact behavioural fingerprint
    double wallSeconds = 0;
    double cyclesPerSec = 0;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Build warmed traces + memory for a fixed benchmark set. */
struct Workload
{
    std::vector<Trace> traces;
    MemHierarchy mem;
    std::vector<const Trace *> ptrs;

    explicit Workload(const std::vector<const char *> &names)
    {
        for (size_t t = 0; t < names.size(); ++t) {
            TraceGenerator gen(spec2006Profile(names[t]),
                               7 + static_cast<uint64_t>(t),
                               static_cast<Addr>(t) << 30);
            traces.push_back(gen.generate(kTraceLen));
            for (const auto &inst : traces.back()) {
                mem.warmInst(inst.pc);
                if (inst.isMem())
                    mem.warmData(inst.addr);
            }
        }
        for (const auto &tr : traces)
            ptrs.push_back(&tr);
    }
};

WorkloadResult
measureCore(const std::string &name, const CoreParams &params,
            Workload &wl)
{
    WorkloadResult res;
    res.name = name;
    res.cycles = kMeasureCycles;
    double best = 0;
    for (unsigned rep = 0; rep < kRepeats; ++rep) {
        Core core(params, wl.mem, wl.ptrs);
        auto t0 = std::chrono::steady_clock::now();
        core.run(kMeasureCycles);
        double wall = secondsSince(t0);
        uint64_t retired = core.coreStatistics().retiredAll;
        if (rep == 0)
            res.retired = retired;
        else
            fatal_if(retired != res.retired,
                     "%s: nondeterministic retired count (%llu vs "
                     "%llu)", name.c_str(),
                     (unsigned long long)retired,
                     (unsigned long long)res.retired);
        if (best == 0 || wall < best)
            best = wall;
        // A fresh hierarchy per repeat keeps cache state identical.
        wl.mem = MemHierarchy();
        for (const auto &tr : wl.traces) {
            for (const auto &inst : tr) {
                wl.mem.warmInst(inst.pc);
                if (inst.isMem())
                    wl.mem.warmData(inst.addr);
            }
        }
    }
    res.wallSeconds = best;
    res.cyclesPerSec = best > 0 ? kMeasureCycles / best : 0;
    return res;
}

/** End-to-end sims/s: sequential short full simulations (worker
 * guards off, single job) — the unit of sweep throughput. */
WorkloadResult
measureSims()
{
    WorkloadResult res;
    res.name = "sims";
    const unsigned kSims = 8;
    SimControls ctl;
    ctl.warmupCycles = 2000;
    ctl.measureCycles = 8000;
    auto mixes = standardMixes(4);
    double best = 0;
    for (unsigned rep = 0; rep < kRepeats; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        uint64_t retired = 0;
        for (unsigned s = 0; s < kSims; ++s) {
            SystemResult r =
                runMix(shelfCore(4, true), mixes[s % mixes.size()],
                       ctl);
            for (const auto &tr : r.threads)
                retired += tr.instructions;
        }
        double wall = secondsSince(t0);
        if (rep == 0)
            res.retired = retired;
        else
            fatal_if(retired != res.retired,
                     "sims: nondeterministic retired count");
        if (best == 0 || wall < best)
            best = wall;
    }
    res.cycles = kSims; // count, not cycles, for this record
    res.wallSeconds = best;
    res.cyclesPerSec = best > 0 ? kSims / best : 0; // sims/s
    return res;
}

void
writeJson(const std::vector<WorkloadResult> &results)
{
    JsonWriter w;
    w.beginObject();
    w.field("measure_cycles", static_cast<uint64_t>(kMeasureCycles));
    w.beginArray("workloads");
    for (const auto &r : results) {
        w.beginObject();
        w.field("name", r.name);
        w.field("retired", r.retired);
        w.field("wall_s", r.wallSeconds);
        w.field(r.name == "sims" ? "sims_per_s" : "cycles_per_s",
                r.cyclesPerSec);
        w.field("min_ratio", minRatioFor(r.name));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (FILE *f = fopen("BENCH_core.json", "w")) {
        fputs(w.str().c_str(), f);
        fputc('\n', f);
        fclose(f);
    }
}

/** Read the baseline's workload records into @p doc; false (with a
 * message) when the file is missing or malformed. */
bool
loadBaseline(const std::string &path, JsonValue &doc)
{
    std::ifstream in(path);
    if (!in) {
        fprintf(stderr, "bench_hotpath: cannot open baseline %s\n",
                path.c_str());
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    const JsonValue *wls = nullptr;
    if (tryParseJson(ss.str(), doc, &err))
        wls = doc.find("workloads");
    if (!wls || !wls->isArray()) {
        fprintf(stderr, "bench_hotpath: malformed baseline %s\n",
                path.c_str());
        return false;
    }
    return true;
}

int
check(const std::vector<WorkloadResult> &results,
      const JsonValue &doc, double threshold)
{
    const JsonValue *wls = doc.find("workloads");
    int rc = 0;
    for (const auto &r : results) {
        const JsonValue *base = nullptr;
        for (const auto &item : wls->items) {
            const JsonValue *n = item.find("name");
            if (n && n->isString() && n->raw == r.name) {
                base = &item;
                break;
            }
        }
        if (!base) {
            fprintf(stderr, "  %-14s no baseline entry, skipped\n",
                    r.name.c_str());
            continue;
        }
        const char *rate_key =
            r.name == "sims" ? "sims_per_s" : "cycles_per_s";
        const JsonValue *rate = base->find(rate_key);
        const JsonValue *retired = base->find("retired");
        double base_rate = rate ? rate->asDouble() : 0;
        double ratio = base_rate > 0 ? r.cyclesPerSec / base_rate : 1;
        // Per-workload threshold: --threshold override, else the
        // baseline's own min_ratio, else this binary's defaults
        // (covers baselines written before min_ratio existed).
        double thr = threshold;
        if (thr <= 0) {
            const JsonValue *mr = base->find("min_ratio");
            thr = mr ? mr->asDouble() : minRatioFor(r.name);
        }
        bool rate_ok = ratio >= thr;
        // Behaviour is machine-independent: any retired-count drift
        // is a correctness bug, not noise.
        bool behave_ok =
            !retired || retired->asU64() == r.retired;
        fprintf(stderr,
                "  %-14s %12.0f /s vs baseline %12.0f (%.2fx) %s\n",
                r.name.c_str(), r.cyclesPerSec, base_rate, ratio,
                rate_ok && behave_ok ? "ok"
                : !behave_ok         ? "BEHAVIOUR DIVERGED"
                                     : "REGRESSED");
        if (!rate_ok || !behave_ok)
            rc = 1;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    // The supervisor re-execs sweep binaries with --worker; this
    // bench never fans out, but keep the guard for uniformity.
    if (int rc = 0; maybeRunSweepWorker(argc, argv, &rc))
        return rc;

    std::string baseline;
    double threshold = 0; // 0: use per-workload min_ratio
    for (int i = 1; i < argc; ++i) {
        if (!strcmp(argv[i], "--check") && i + 1 < argc) {
            baseline = argv[++i];
        } else if (!strcmp(argv[i], "--threshold") && i + 1 < argc) {
            fatal_if(!tryParseDouble(argv[++i], threshold),
                     "--threshold: not a number: %s", argv[i]);
        } else {
            fprintf(stderr, "usage: bench_hotpath [--check FILE] "
                            "[--threshold X]\n");
            return 2;
        }
    }

    // Read the baseline before measuring: the measurement must not
    // be able to replace what it is checked against.
    JsonValue baselineDoc;
    if (!baseline.empty() && !loadBaseline(baseline, baselineDoc))
        return 1;

    std::vector<WorkloadResult> results;

    {
        Workload single({ "gcc" });
        results.push_back(
            measureCore("base64-1t", baseCore64(1), single));
        results.push_back(
            measureCore("shelf-opt-1t", shelfCore(1, true), single));
    }
    {
        Workload quad({ "gcc", "hmmer", "milc", "povray" });
        results.push_back(
            measureCore("base64-4t", baseCore64(4), quad));
        results.push_back(
            measureCore("shelf-opt-4t", shelfCore(4, true), quad));
    }
    {
        // Full-width SMT with memory-bound company (mcf, omnetpp,
        // lbm): maximum pressure on the shelf steering structures
        // and the quiescent-span machinery during MSHR pile-ups.
        Workload oct({ "gcc", "hmmer", "milc", "povray", "mcf",
                       "omnetpp", "sjeng", "lbm" });
        results.push_back(
            measureCore("shelf-opt-8t", shelfCore(8, true), oct));
    }
    results.push_back(measureSims());

    for (const auto &r : results) {
        fprintf(stderr, "%-14s %12.0f %s (retired %llu)\n",
                r.name.c_str(), r.cyclesPerSec,
                r.name == "sims" ? "sims/s" : "cycles/s",
                (unsigned long long)r.retired);
    }

    if (!baseline.empty())
        return check(results, baselineDoc, threshold);
    writeJson(results);
    return 0;
}
