/**
 * @file
 * The three benchmark workloads.
 *
 *  - fig10-sweep: the paper's Figure-10 harness in-process (the 28
 *    standard mixes x {base64, shelf-cons, shelf-opt, base128} plus
 *    single-thread references, default 4k+16k windows). Trace
 *    generation and functional warmup are most of a cell's host time.
 *  - long-cells: a few serial long cells with a fixed per-thread
 *    trace length, so the cycle loop, the quiescent skipper and the
 *    multi-core lockstep dominate and the front end barely shows.
 *  - serve-isolated: the Figure-10 base64/shelf-opt cells and their
 *    references through an in-process SweepServer with isolated
 *    workers and a disk cache tier. Each cold pass starts from an
 *    empty cache, so every cell is a miss that spawns a worker and
 *    writes through.
 *
 * Every workload runs the same loop until --seconds is used up: set
 * up (specs, keys, a fresh serve daemon), run one timed pass, then
 * send a chunk of closed-loop warm requests to the daemon, which
 * holds the pass's cells. Spreading set-ups and warm requests over
 * the whole run keeps their medians from resting on one moment of
 * the host's state. The seed only changes the generated instruction
 * streams; the mixes are always the paper's 28.
 *
 * An untraced run reports the end-to-end metrics. A traced run
 * (--trace 1) runs one plain pass, then runs every cell twice on the
 * same worker, once decomposed into its layers with a span around
 * each layer call and once untraced through System, and reports the
 * per-layer metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "base/json.hh"
#include "base/strutil.hh"
#include "bench.hh"
#include "cells.hh"
#include "metrics/throughput.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/result_cache.hh"
#include "sim/serve.hh"
#include "sim/supervisor.hh"
#include "spans.hh"
#include "workload/spec2006.hh"

namespace shelfbench
{

using namespace shelf;
namespace fs = std::filesystem;

namespace
{

/** Passes per untraced run: at least kMinPasses, then more until
 * --seconds is used up. */
constexpr unsigned kMinPasses = 3;
constexpr unsigned kMaxPasses = 200;
/** Closed-loop warm requests are sent in chunks of kHitChunk, so
 * each chunk's p99 keeps 10 samples beyond it, and kHitChunksPerPass
 * chunks follow each pass. */
constexpr unsigned kHitChunk = 1000;
constexpr unsigned kHitChunksPerPass = 4;
/** Cells run both isolated and in-process to price a spawn. */
constexpr size_t kProbeCells = 6;
/** The standard 28 Figure-10 mixes. */
constexpr uint64_t kMixSeed = 42;

/** Windows of the long cells (simulated cycles) and their fixed
 * per-thread trace length (instructions). */
constexpr uint64_t kLongWarmup = 20000;
constexpr uint64_t kLongMeasure = 200000;
constexpr size_t kLongTraceLength = 65536;
/** long-cells layout: cells 0-2 single-core, 3 the 2x4 cell, 4-7
 * the single-thread references of the 4-thread mix. */
constexpr size_t kLongMultiCore = 3;
constexpr size_t kLongFirstRef = 4;

const char *const kQuad[] = { "gcc", "hmmer", "milc", "povray" };
const char *const kOct[] = { "gcc", "hmmer", "milc", "povray",
                             "mcf", "omnetpp", "sjeng", "lbm" };

size_t
benchIndex(const char *name)
{
    const auto &profiles = spec2006Profiles();
    for (size_t i = 0; i < profiles.size(); ++i)
        if (profiles[i].name == name)
            return i;
    fatal("unknown benchmark %s", name);
}

Cell
makeCell(const std::string &kind, const CoreParams &core,
         const std::vector<size_t> &mix, uint64_t seed)
{
    Cell c;
    c.kind = kind;
    c.spec.core = core;
    c.spec.mixBenchmarks = mix;
    c.spec.seed = seed;
    return c;
}

double
ms(double seconds)
{
    return seconds * 1e3;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / v.size();
}

std::vector<size_t>
allIndices(size_t n)
{
    std::vector<size_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = i;
    return v;
}

/** geomean over mixes of STP(opt)/STP(base), as a percentage. */
double
stpGainPct(const std::vector<double> &stpBase,
           const std::vector<double> &stpOpt)
{
    std::vector<double> ratios;
    for (size_t i = 0; i < stpBase.size(); ++i)
        ratios.push_back(stpOpt[i] / stpBase[i]);
    return (geomean(ratios) - 1) * 100;
}

/** A serve daemon in this process plus connected clients. */
struct ServerStack
{
    std::string dir;
    std::unique_ptr<SweepServer> server;
    std::vector<std::unique_ptr<ServeClient>> clients;

    ServerStack() = default;
    ServerStack(const ServerStack &) = delete;
    ServerStack &operator=(const ServerStack &) = delete;
    ~ServerStack() { stop(); }

    void
    stop()
    {
        clients.clear();
        if (server)
            server->stop();
        server.reset();
        if (!dir.empty()) {
            std::error_code ec;
            fs::remove_all(dir, ec);
            dir.clear();
        }
    }
};

/** Everything a run measures and checks, shared by the workloads. */
struct Ctx
{
    Ctx(const Options &o, Results &r) : opt(o), res(r) {}

    const Options &opt;
    Results &res;

    std::vector<Cell> cells;
    std::vector<validate::SweepJobSpec> specs;
    std::vector<std::string> keys;
    /** Each cell's result bytes (full precision) from the first
     * pass: what the warm daemon must answer with. */
    std::vector<std::string> values;
    ServerStack st;

    std::vector<double> setupS, passS, cellMs, hitUs;
    uint64_t passRetired = 0; ///< measured-window insts, one pass
    uint64_t passCycles = 0;
    double stpGainPct = 0;

    /** Per-cell fingerprint lines of the first pass. */
    std::vector<std::string> firstLines;
    unsigned passes = 0;
    uint64_t fingerprintValue = 0;

    /** @name Traced-run measurements @{ */
    std::vector<LayerCounts> counts; ///< per decomposed cell
    std::vector<std::string> countKinds;
    double lockstepCycles = 0, lockstepSeconds = 0;
    double refSeconds = 0; ///< single-thread references, one pass
    std::vector<double> spawnOverheadMs, attempts;
    std::vector<double> keyUs, lookupUs, insertUs;
    uint64_t servedJobs = 0, coalescedJobs = 0;
    uint64_t cacheHits = 0, cacheLookups = 0;
    /** @} */

    unsigned dirCounter = 0;

    std::string
    scratchDir(const char *tag)
    {
        std::string d = csprintf("%s/%s-%u", opt.workDir.c_str(), tag,
                                 dirCounter++);
        std::error_code ec;
        fs::remove_all(d, ec);
        fs::create_directories(d);
        return d;
    }

    /** Record one pass's per-cell fingerprint lines; every pass must
     * retire exactly what the first did. */
    void
    notePass(std::vector<std::string> lines)
    {
        if (opt.doctorResult && passes > 0 && !lines.empty())
            lines[0] += "doctored";
        if (passes == 0) {
            firstLines = lines;
            std::string all;
            for (const auto &l : lines)
                all += l;
            fingerprintValue = fnv1a64(all);
        } else {
            for (size_t i = 0; i < lines.size(); ++i)
                if (lines[i] != firstLines.at(i))
                    res.fail(csprintf(
                        "pass %u: cell %zu (%s) retired differently "
                        "from pass 0", passes, i,
                        cells[i].kind.c_str()));
        }
        ++passes;
    }

    /** Keep the first pass's result bytes; later passes must match
     * them byte for byte. */
    void
    noteValues(const std::vector<std::string> &v)
    {
        if (values.empty()) {
            values = v;
            return;
        }
        for (size_t i = 0; i < v.size(); ++i)
            if (!v[i].empty() && v[i] != values[i])
                res.fail(csprintf("cell %zu: result bytes differ from "
                                  "pass 0", i));
    }

    bool
    morePasses(Clock::time_point start) const
    {
        if (opt.trace)
            return false; // a traced run needs one plain pass
        return passes < kMinPasses ||
            (secondsSince(start) < opt.seconds && passes < kMaxPasses);
    }

    /** Canonical job keys, timed per call. */
    void
    computeKeys()
    {
        keys.clear();
        for (const auto &spec : specs) {
            Span s("config_json.key");
            auto t0 = Clock::now();
            keys.push_back(validate::canonicalJobKey(spec));
            keyUs.push_back(secondsSince(t0) * 1e6);
        }
    }

    /** Replace the serve daemon with a fresh one (empty cache) and
     * @p nclients connected clients. */
    void
    startServer(bool isolate, unsigned nclients)
    {
        st.stop();
        Span s("serve.start");
        st.dir = scratchDir("serve");
        ServeOptions so;
        so.socketPath = st.dir + "/sock";
        so.cacheDir = st.dir + "/cache";
        so.executors = opt.jobs;
        so.supervisor.isolate = isolate;
        so.supervisor.timeoutSeconds = isolate ? 120 : 0;
        st.server = std::make_unique<SweepServer>(so);
        std::string err;
        fatal_if(!st.server->start(&err), "serve start: %s",
                 err.c_str());
        for (unsigned i = 0; i < nclients; ++i) {
            auto c = std::make_unique<ServeClient>();
            fatal_if(!c->connectRetry(so.socketPath, 20, 0.01, &err),
                     "serve connect: %s", err.c_str());
            st.clients.push_back(std::move(c));
        }
    }

    /** Add the serve and cache counters the daemon gained since
     * @p before. */
    void
    noteServerStats(const ServeStats &before)
    {
        ServeStats now = st.server->stats();
        servedJobs += now.cacheHit + now.cacheMiss + now.cacheCoalesced -
            (before.cacheHit + before.cacheMiss + before.cacheCoalesced);
        coalescedJobs += now.cacheCoalesced - before.cacheCoalesced;
        cacheHits += now.cache.hits - before.cache.hits;
        cacheLookups += now.cache.hits + now.cache.misses -
            (before.cache.hits + before.cache.misses);
    }

    /** Fill the daemon's cache with the workload's results, timing
     * each write-through insert. */
    void
    prefill(ResultCache &cache)
    {
        for (size_t k = 0; k < keys.size(); ++k) {
            Span s("result_cache.insert", static_cast<int64_t>(k));
            auto t0 = Clock::now();
            cache.insert(keys[k], values[k]);
            insertUs.push_back(secondsSince(t0) * 1e6);
        }
    }

    /**
     * The closed-loop warm client: one connection, one request
     * outstanding, one cached cell per request, cycling over the
     * workload's cells. Every reply must be a cache hit carrying
     * exactly the bytes of that cell's result.
     */
    void
    warmHits(unsigned n)
    {
        ServeClient &client = *st.clients.at(0);
        ServeStats before = st.server->stats();
        Span pass("serve.warm_pass");
        for (unsigned i = 0; i < n; ++i) {
            size_t k = hitUs.size() % specs.size();
            std::vector<ServeClient::JobReply> replies;
            std::string err;
            bool ok;
            auto t0 = Clock::now();
            {
                Span s("serve.submit", static_cast<int64_t>(k));
                ok = client.submit({ specs[k] }, replies, &err);
            }
            hitUs.push_back(secondsSince(t0) * 1e6);
            ++res.attempted;
            if (!ok || replies.size() != 1 || !replies[0].ok)
                res.fail("warm request failed: " + err);
            else if (replies[0].source != "cache")
                res.fail("warm request answered as " +
                         replies[0].source + ", not from the cache");
            else if (replies[0].resultJson != values[k])
                res.fail(csprintf("warm request for cell %zu: bytes "
                                  "differ from the cell's result", k));
        }
        noteServerStats(before);
    }

    /** Direct lookups price the cache tier alone, so the serve round
     * trip can be reported without it (traced runs). */
    void
    directLookups()
    {
        for (unsigned r = 0; r < 3; ++r) {
            for (size_t k = 0; k < keys.size(); ++k) {
                std::string v;
                Span s("result_cache.lookup", static_cast<int64_t>(k));
                auto t0 = Clock::now();
                bool hit = st.server->cache().lookup(keys[k], v);
                lookupUs.push_back(secondsSince(t0) * 1e6);
                if (!hit || v != values[k])
                    res.fail("direct cache lookup missed or returned "
                             "other bytes");
            }
        }
    }

    /**
     * The shared loop: set up, run one timed pass, then query the
     * warm daemon, until --seconds is used up. @p prefillTail fills
     * the daemon from the pass's results first (in-process
     * workloads; a serve pass fills it itself).
     */
    template <typename Setup, typename Pass>
    void
    loop(Setup setup, Pass pass, bool prefillTail)
    {
        auto start = Clock::now();
        do {
            st.stop(); // tearing the last daemon down is not set-up
            auto t0 = Clock::now();
            {
                Span s("bench.setup");
                setup();
            }
            setupS.push_back(secondsSince(t0));
            pass();
            if (prefillTail)
                prefill(st.server->cache());
            warmHits(kHitChunk * kHitChunksPerPass);
        } while (morePasses(start));
    }

    /**
     * Price process isolation: a few spec-expressible cells run
     * through an isolating supervisor and in-process; the isolated
     * result must be byte-identical.
     */
    void
    isolationProbe(const std::vector<validate::SweepJobSpec> &probe)
    {
        SupervisorOptions so;
        so.isolate = true;
        so.timeoutSeconds = 120;
        so.jobs = 1;
        SweepSupervisor sup(so);
        for (size_t i = 0; i < probe.size(); ++i) {
            JobOutcome oc;
            auto t0 = Clock::now();
            {
                Span s("supervisor.runOne", static_cast<int64_t>(i));
                oc = sup.runOne(probe[i]);
            }
            double iso = secondsSince(t0);
            std::string local;
            t0 = Clock::now();
            {
                Span s("system.job", static_cast<int64_t>(i));
                local = runSweepJob(probe[i]).toJson(
                    JsonWriter::kFullPrecision);
            }
            double inproc = secondsSince(t0);
            ++res.attempted;
            attempts.push_back(oc.attempts);
            if (!oc.ok())
                res.fail("isolation probe cell quarantined");
            else if (oc.result.toJson(JsonWriter::kFullPrecision) !=
                     local)
                res.fail("isolated result differs from runSweepJob");
            else
                spawnOverheadMs.push_back(ms(iso - inproc));
        }
    }

    /**
     * Run each listed cell decomposed into its layers (single-core
     * cells) and whole through System::System + run, one after the
     * other on the same worker, alternating which goes first so both
     * see the same host state. Both must retire exactly what the
     * timed pass retired (@p reference, indexed like cells). Spans:
     * "bench.cell" around a decomposed cell, "bench.syscell" around
     * a System cell. Untraced runs pass @p withSystem = false and
     * only check the decomposition.
     */
    void
    pairedCells(const std::vector<size_t> &which,
                const std::vector<CellOutcome> &reference,
                unsigned jobs, bool withSystem)
    {
        std::vector<LayerCounts> cnt(which.size());
        std::vector<std::string> errors(which.size());
        std::vector<double> runS(which.size(), 0);
        Span batch("parallel.batch");
        int64_t parent = batch.id();
        runJobs(which.size(), [&](size_t j) {
            size_t i = which[j];
            auto id = static_cast<int64_t>(i);
            std::string want = fingerprintLine(cells[i], reference.at(i));
            bool single = cells[i].spec.numCores == 1;
            auto decomposed = [&] {
                Span cell("bench.cell", id, parent);
                CellOutcome o = runDecomposed(cells[i], id, cnt[j]);
                if (fingerprintLine(cells[i], o) != want)
                    errors[j] += "the decomposed layers retired "
                                 "differently from the timed pass; ";
            };
            auto whole = [&] {
                Span cell("bench.syscell", id, parent);
                CellOutcome o = outcomeOf(runSystem(cells[i], id,
                                                    &runS[j]));
                if (fingerprintLine(cells[i], o) != want)
                    errors[j] += "System retired differently from "
                                 "the timed pass; ";
            };
            // A multi-core cell only runs whole.
            bool systemFirst = j % 2 == 1 || !single;
            if (withSystem && systemFirst)
                whole();
            if (single)
                decomposed();
            if (withSystem && !systemFirst)
                whole();
        }, jobs);
        for (size_t j = 0; j < which.size(); ++j) {
            size_t i = which[j];
            ++res.attempted;
            if (!errors[j].empty())
                res.fail(csprintf("cell %zu (%s): %s", i,
                                  cells[i].kind.c_str(),
                                  errors[j].c_str()));
            if (cells[i].spec.numCores > 1) {
                lockstepCycles += static_cast<double>(
                    cells[i].spec.warmupCycles +
                    cells[i].spec.measureCycles);
                lockstepSeconds += runS[j];
                continue;
            }
            counts.push_back(cnt[j]);
            countKinds.push_back(cells[i].kind);
        }
    }

    /** Single-thread reference precompute for @p mixes, timed. */
    void
    timeReferences(const std::vector<WorkloadMix> &mixes)
    {
        SimControls ctl;
        ctl.seed = opt.seed;
        STReference ref(ctl);
        auto t0 = Clock::now();
        Span s("experiment.stref");
        ref.precompute(mixes, opt.jobs);
        refSeconds = secondsSince(t0);
    }

    /** The first pass's outcomes, parsed back from its bytes. */
    std::vector<CellOutcome>
    firstOutcomes() const
    {
        std::vector<CellOutcome> out(values.size());
        for (size_t i = 0; i < values.size(); ++i)
            if (!values[i].empty())
                out[i] = outcomeOf(SystemResult::fromJson(values[i]));
        return out;
    }
};

// ---------------------------------------------------------------
// fig10-sweep
// ---------------------------------------------------------------

const char *const kFig10Kinds[] = { "base64-4t", "shelf-cons-4t",
                                    "shelf-opt-4t", "base128-4t" };

/** One timed pass: references, then every cell through the
 * in-process supervisor on the worker pool. */
void
fig10Pass(Ctx &ctx, const std::vector<WorkloadMix> &mixes)
{
    SimControls ctl;
    ctl.seed = ctx.opt.seed;
    STReference ref(ctl);
    SupervisorOptions so;
    so.jobs = ctx.opt.jobs;
    SweepSupervisor sup(so);

    auto t0 = Clock::now();
    {
        Span s("experiment.stref");
        ref.precompute(mixes, ctx.opt.jobs);
    }
    std::vector<JobOutcome> oc;
    {
        Span s("supervisor.run");
        oc = sup.run(ctx.specs);
    }
    ctx.passS.push_back(secondsSince(t0));

    std::vector<std::string> lines, bytes(oc.size());
    uint64_t retired = 0, cycles = 0;
    bool allOk = true;
    for (size_t i = 0; i < oc.size(); ++i) {
        ++ctx.res.attempted;
        ctx.attempts.push_back(oc[i].attempts);
        if (!oc[i].ok()) {
            ctx.res.fail(csprintf("cell %zu quarantined", i));
            allOk = false;
            lines.push_back("quarantined;");
            continue;
        }
        ctx.cellMs.push_back(ms(oc[i].wallSeconds));
        CellOutcome o = outcomeOf(oc[i].result);
        lines.push_back(fingerprintLine(ctx.cells[i], o));
        retired += totalRetired(o);
        cycles += o.cycles;
        bytes[i] = oc[i].result.toJson(JsonWriter::kFullPrecision);
    }
    if (allOk) {
        // As bench_fig10_stp computes it.
        std::vector<double> stpBase, stpOpt;
        const size_t n = std::size(kFig10Kinds);
        for (size_t m = 0; m < mixes.size(); ++m) {
            stpBase.push_back(stpOf(oc[m * n].result, mixes[m], ref));
            stpOpt.push_back(stpOf(oc[m * n + 2].result, mixes[m], ref));
        }
        ctx.stpGainPct = stpGainPct(stpBase, stpOpt);
    }
    ctx.passRetired = retired;
    ctx.passCycles = cycles;
    ctx.noteValues(bytes);
    ctx.notePass(std::move(lines));
}

void
runFig10(Ctx &ctx)
{
    std::vector<WorkloadMix> mixes;
    auto setup = [&] {
        mixes = standardMixes(4, kMixSeed);
        std::vector<CoreParams> configs = {
            baseCore64(4), shelfCore(4, false), shelfCore(4, true),
            baseCore128(4) };
        ctx.cells.clear();
        ctx.specs.clear();
        for (const auto &mix : mixes) {
            for (size_t c = 0; c < configs.size(); ++c) {
                ctx.cells.push_back(makeCell(kFig10Kinds[c], configs[c],
                                             mix.benchmarks,
                                             ctx.opt.seed));
                ctx.specs.push_back(ctx.cells.back().spec);
            }
        }
        ctx.computeKeys();
        ctx.startServer(false, 1);
        // The worker pool starts its threads on first use.
        runJobs(ctx.opt.jobs, [](size_t) {}, ctx.opt.jobs);
    };
    ctx.loop(setup, [&] { fig10Pass(ctx, mixes); }, true);
    std::vector<CellOutcome> reference = ctx.firstOutcomes();

    if (!ctx.opt.trace) {
        // One cell per configuration, outside the timed passes.
        ctx.pairedCells({ 0, 1, 2, 3 }, reference, ctx.opt.jobs, false);
        return;
    }
    ctx.timeReferences(mixes);
    ctx.pairedCells(allIndices(ctx.cells.size()), reference,
                    ctx.opt.jobs, true);
    ctx.isolationProbe(std::vector<validate::SweepJobSpec>(
        ctx.specs.begin(), ctx.specs.begin() + kProbeCells));
    ctx.directLookups();
}

// ---------------------------------------------------------------
// long-cells
// ---------------------------------------------------------------

void
buildLongCells(Ctx &ctx)
{
    std::vector<size_t> quad, oct;
    for (const char *b : kQuad)
        quad.push_back(benchIndex(b));
    for (const char *b : kOct)
        oct.push_back(benchIndex(b));
    uint64_t seed = ctx.opt.seed;
    ctx.cells = {
        makeCell("base64-4t", baseCore64(4), quad, seed),
        makeCell("shelf-opt-4t", shelfCore(4, true), quad, seed),
        // Memory-bound company: long MSHR pile-ups, where the
        // quiescent-cycle skipper does its work.
        makeCell("shelf-opt-8t", shelfCore(8, true), oct, seed),
        makeCell("shelf-opt-2x4", shelfCore(4, true), oct, seed),
    };
    ctx.cells[kLongMultiCore].spec.numCores = 2;
    ctx.cells[kLongMultiCore].spec.allocation = "classify";
    for (size_t b : quad)
        ctx.cells.push_back(makeCell("ref-1t", baseCore64(1), { b },
                                     seed));
    ctx.specs.clear();
    for (auto &cell : ctx.cells) {
        cell.spec.warmupCycles = kLongWarmup;
        cell.spec.measureCycles = kLongMeasure;
        cell.traceLength = kLongTraceLength;
        // A SweepJobSpec cannot carry the fixed trace length, so
        // these specs only key the warm daemon's prefilled results;
        // nothing computes from them.
        ctx.specs.push_back(cell.spec);
    }
}

void
longPass(Ctx &ctx)
{
    // Serial on purpose: each cell has the host to itself.
    auto t0 = Clock::now();
    std::vector<CellOutcome> o(ctx.cells.size());
    std::vector<std::string> lines, bytes;
    uint64_t retired = 0, cycles = 0;
    for (size_t i = 0; i < ctx.cells.size(); ++i) {
        auto c0 = Clock::now();
        SystemResult r = runSystem(ctx.cells[i], static_cast<int64_t>(i));
        ctx.cellMs.push_back(ms(secondsSince(c0)));
        ++ctx.res.attempted;
        o[i] = outcomeOf(r);
        lines.push_back(fingerprintLine(ctx.cells[i], o[i]));
        retired += totalRetired(o[i]);
        cycles += o[i].cycles;
        bytes.push_back(r.toJson(JsonWriter::kFullPrecision));
    }
    ctx.passS.push_back(secondsSince(t0));
    std::vector<double> st;
    for (size_t i = kLongFirstRef; i < o.size(); ++i)
        st.push_back(o[i].ipc.at(0));
    ctx.stpGainPct = (stp(o[1].ipc, st) / stp(o[0].ipc, st) - 1) * 100;
    ctx.passRetired = retired;
    ctx.passCycles = cycles;
    ctx.noteValues(bytes);
    ctx.notePass(std::move(lines));
}

void
runLongCells(Ctx &ctx)
{
    auto setup = [&] {
        buildLongCells(ctx);
        ctx.computeKeys();
        ctx.startServer(false, 1);
    };
    ctx.loop(setup, [&] { longPass(ctx); }, true);
    std::vector<CellOutcome> reference = ctx.firstOutcomes();

    if (!ctx.opt.trace) {
        ctx.pairedCells({ 0 }, reference, 1, false);
        return;
    }
    // Serial like the timed pass.
    ctx.pairedCells(allIndices(ctx.cells.size()), reference, 1, true);
    for (const SpanRecord &sp : tracer()->spans())
        if (sp.name == "bench.cell" &&
            sp.cell >= static_cast<int64_t>(kLongFirstRef))
            ctx.refSeconds += sp.end - sp.start;
    // Isolated specs cannot carry the fixed trace length, so the
    // spawn is priced on the same mixes at default windows.
    std::vector<validate::SweepJobSpec> probe;
    for (size_t i : { size_t(0), size_t(1), kLongFirstRef }) {
        validate::SweepJobSpec spec = ctx.specs[i];
        spec.warmupCycles = validate::SweepJobSpec().warmupCycles;
        spec.measureCycles = validate::SweepJobSpec().measureCycles;
        probe.push_back(spec);
    }
    ctx.isolationProbe(probe);
    ctx.directLookups();
}

// ---------------------------------------------------------------
// serve-isolated
// ---------------------------------------------------------------

/** Cells: (base64, shelf-opt) per mix, then one single-thread
 * reference per benchmark. */
void
buildServeCells(Ctx &ctx, const std::vector<WorkloadMix> &mixes,
                std::map<size_t, size_t> &refCell)
{
    ctx.cells.clear();
    for (const auto &mix : mixes) {
        ctx.cells.push_back(makeCell("base64-4t", baseCore64(4),
                                     mix.benchmarks, ctx.opt.seed));
        ctx.cells.push_back(makeCell("shelf-opt-4t", shelfCore(4, true),
                                     mix.benchmarks, ctx.opt.seed));
    }
    std::set<size_t> benches;
    for (const auto &mix : mixes)
        benches.insert(mix.benchmarks.begin(), mix.benchmarks.end());
    refCell.clear();
    for (size_t b : benches) {
        // The job STReference keys its reference runs by.
        refCell[b] = ctx.cells.size();
        ctx.cells.push_back(makeCell("ref-1t", baseCore64(1), { b },
                                     ctx.opt.seed));
    }
    ctx.specs.clear();
    for (const auto &cell : ctx.cells)
        ctx.specs.push_back(cell.spec);
}

/** One cold pass: each client keeps one cell request outstanding
 * until the cells run out. Returns the reply bytes per cell ("" for
 * a failed cell) and the pass's wall time. */
std::vector<std::string>
coldPass(Ctx &ctx, double &wallS)
{
    size_t n = ctx.specs.size();
    std::vector<std::string> bytes(n), errors(n);
    std::vector<double> lat(n, 0);
    std::atomic<size_t> next{0};
    ServeStats before = ctx.st.server->stats();
    Span pass("serve.cold_pass");
    int64_t parent = pass.id();
    auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (auto &cp : ctx.st.clients) {
        ServeClient *client = cp.get();
        clients.emplace_back([&, client] {
            for (size_t k; (k = next.fetch_add(1)) < n;) {
                std::vector<ServeClient::JobReply> replies;
                std::string err;
                auto c0 = Clock::now();
                bool ok;
                {
                    Span s("serve.submit", static_cast<int64_t>(k),
                           parent);
                    ok = client->submit({ ctx.specs[k] }, replies,
                                        &err);
                }
                lat[k] = secondsSince(c0);
                if (!ok || replies.size() != 1 || !replies[0].ok)
                    errors[k] = "error reply: " + err +
                        (replies.empty() ? "" : replies[0].error);
                else if (replies[0].source != "computed")
                    errors[k] = "cold request answered as " +
                        replies[0].source;
                else
                    bytes[k] = replies[0].resultJson;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    wallS = secondsSince(t0);
    for (size_t k = 0; k < n; ++k) {
        ++ctx.res.attempted;
        if (!errors[k].empty())
            ctx.res.fail(csprintf("cold cell %zu: %s", k,
                                  errors[k].c_str()));
        else
            ctx.cellMs.push_back(ms(lat[k]));
    }
    ctx.noteServerStats(before);
    return bytes;
}

void
servePass(Ctx &ctx, const std::vector<WorkloadMix> &mixes,
          const std::map<size_t, size_t> &refCell)
{
    double wallS = 0;
    std::vector<std::string> bytes = coldPass(ctx, wallS);
    ctx.passS.push_back(wallS);
    std::vector<CellOutcome> o(bytes.size());
    std::vector<std::string> lines;
    uint64_t retired = 0, cycles = 0;
    bool allOk = true;
    for (size_t k = 0; k < bytes.size(); ++k) {
        if (bytes[k].empty()) {
            allOk = false;
            lines.push_back("failed;");
            continue;
        }
        o[k] = outcomeOf(SystemResult::fromJson(bytes[k]));
        lines.push_back(fingerprintLine(ctx.cells[k], o[k]));
        retired += totalRetired(o[k]);
        cycles += o[k].cycles;
    }
    if (allOk) {
        std::vector<double> stpBase, stpOpt;
        for (size_t m = 0; m < mixes.size(); ++m) {
            std::vector<double> st;
            for (size_t b : mixes[m].benchmarks)
                st.push_back(o[refCell.at(b)].ipc.at(0));
            stpBase.push_back(stp(o[2 * m].ipc, st));
            stpOpt.push_back(stp(o[2 * m + 1].ipc, st));
        }
        ctx.stpGainPct = stpGainPct(stpBase, stpOpt);
    }
    ctx.passRetired = retired;
    ctx.passCycles = cycles;
    ctx.noteValues(bytes);
    ctx.notePass(std::move(lines));
}

void
runServeIsolated(Ctx &ctx)
{
    std::vector<WorkloadMix> mixes;
    std::map<size_t, size_t> refCell;
    auto setup = [&] {
        mixes = standardMixes(4, kMixSeed);
        buildServeCells(ctx, mixes, refCell);
        ctx.computeKeys();
        ctx.startServer(true, ctx.opt.jobs);
    };
    auto pass = [&] { servePass(ctx, mixes, refCell); };
    ctx.loop(setup, pass, false);

    // Every isolated result must be byte-identical to the in-process
    // one (later passes were checked against the first already).
    std::vector<std::string> local(ctx.specs.size());
    {
        Span batch("bench.verify");
        int64_t parent = batch.id();
        runJobs(ctx.specs.size(), [&](size_t k) {
            Span s("system.job", static_cast<int64_t>(k), parent);
            local[k] = runSweepJob(ctx.specs[k]).toJson(
                JsonWriter::kFullPrecision);
        }, ctx.opt.jobs);
    }
    for (size_t k = 0; k < local.size(); ++k) {
        ++ctx.res.attempted;
        if (ctx.values[k] != local[k])
            ctx.res.fail(csprintf("cell %zu: isolated serve result "
                                  "differs from runSweepJob", k));
    }
    std::vector<CellOutcome> reference = ctx.firstOutcomes();

    if (!ctx.opt.trace) {
        ctx.pairedCells({ 0, 1, refCell.begin()->second }, reference,
                        ctx.opt.jobs, false);
        return;
    }
    ctx.timeReferences(mixes);
    ctx.pairedCells(allIndices(ctx.cells.size()), reference,
                    ctx.opt.jobs, true);
    ctx.isolationProbe(std::vector<validate::SweepJobSpec>(
        ctx.specs.begin(), ctx.specs.begin() + kProbeCells));
    // The daemon writes through inside the cold pass; price the same
    // inserts from outside.
    ResultCache scratch(4096, ctx.scratchDir("insert"));
    ctx.prefill(scratch);
    ctx.directLookups();
}

// ---------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Quantile @p q of the warm round trips, per chunk of kHitChunk
 * requests, then the median over chunks: one burst of host noise
 * moves one chunk's tail, not the run's.
 */
double
hitQuantile(const std::vector<double> &hitUs, double q)
{
    std::vector<double> perChunk;
    for (size_t c = 0; c + kHitChunk <= hitUs.size(); c += kHitChunk)
        perChunk.push_back(quantile(
            std::vector<double>(hitUs.begin() + c,
                                hitUs.begin() + c + kHitChunk), q));
    return median(perChunk);
}

void
endToEndMetrics(Ctx &ctx)
{
    Results &res = ctx.res;
    std::string passes = "pass seconds:";
    for (double p : ctx.passS)
        passes += csprintf(" %.3f", p);
    res.notes.push_back(passes);
    double sweep = median(ctx.passS);
    res.add("sweep_s", sweep, "s", Domain::Host,
            csprintf("median of %zu timed passes", ctx.passS.size()));
    res.add("sim_kips", ctx.passRetired / sweep / 1e3, "kinst/s",
            Domain::Host,
            "simulated instructions retired (measured windows) per "
            "host second");
    res.add("cell_ms_p50", quantile(ctx.cellMs, 0.5), "ms",
            Domain::Host, csprintf("n=%zu cells", ctx.cellMs.size()));
    res.add("cell_ms_p90", quantile(ctx.cellMs, 0.9), "ms",
            Domain::Host, csprintf("n=%zu cells", ctx.cellMs.size()));
    std::string hitNote = csprintf(
        "median over %zu chunks of %u closed-loop requests",
        ctx.hitUs.size() / kHitChunk, kHitChunk);
    res.add("hit_us_p50", hitQuantile(ctx.hitUs, 0.5), "us",
            Domain::Host, hitNote);
    // The tail swings far more than any allowed bound whenever
    // co-tenants stall the host, so it is reported, not gated: here,
    // and as serve.hit_us_p99 in traced runs.
    res.notes.push_back(csprintf("hit_us_p99 %.1f us (%s)",
                                 hitQuantile(ctx.hitUs, 0.99),
                                 hitNote.c_str()));
    res.add("setup_s", median(ctx.setupS), "s", Domain::Host,
            csprintf("median of %zu set-ups", ctx.setupS.size()));
    res.add("peak_rss_mb", peakRssMb(), "MiB", Domain::Host,
            "peak resident set of this process");
    res.add("stp_gain_pct", ctx.stpGainPct, "%", Domain::Simulated,
            "geomean STP shelf-opt over base64; the paper's gem5 "
            "figure is +11.5%; this model is not validated against "
            "hardware");
    res.add("sim_ipc", ratio(ctx.passRetired, ctx.passCycles),
            "inst/cycle", Domain::Simulated,
            "retired / simulated cycles over all cells");
}

void
perLayerMetrics(Ctx &ctx)
{
    Results &res = ctx.res;
    std::vector<SpanRecord> spans = tracer()->spans();
    std::map<int64_t, double> self = selfTimes(spans);
    std::map<int64_t, const SpanRecord *> byId;
    for (const SpanRecord &s : spans)
        byId[s.id] = &s;
    auto parentName = [&](const SpanRecord &s) -> std::string {
        auto p = byId.find(s.parent);
        return p == byId.end() ? "" : p->second->name;
    };
    auto singleCore = [&](const SpanRecord &s) {
        return ctx.cells.at(s.cell).spec.numCores == 1;
    };

    std::map<std::string, double> selfByName, cellLayer, layerSelf;
    double cellTime = 0, layerTime = 0;
    double sysCtor = 0, sysRun = 0, sysCells = 0;
    double sysSingle = 0, sysSingleCtorRun = 0;
    double batchWall = 0, batchJobs = 0;
    for (const SpanRecord &s : spans) {
        double dur = s.end - s.start;
        std::string parent = parentName(s);
        selfByName[s.name] += self[s.id];
        layerSelf[layerOf(s.name)] += self[s.id];
        if (parent == "parallel.batch")
            batchJobs += dur;
        if (s.name == "parallel.batch")
            batchWall += dur;
        if (s.name == "bench.cell") {
            cellTime += dur;
            cellLayer["bench"] += self[s.id];
        } else if (parent == "bench.cell") {
            cellLayer[layerOf(s.name)] += self[s.id];
            layerTime += self[s.id];
        } else if (s.name == "bench.syscell") {
            ++sysCells;
            if (singleCore(s))
                sysSingle += dur;
        } else if (parent == "bench.syscell") {
            (s.name == "system.ctor" ? sysCtor : sysRun) += dur;
            if (singleCore(*byId.at(s.parent)))
                sysSingleCtorRun += dur;
        }
    }

    LayerCounts all;
    std::map<std::string, std::pair<double, double>> rate; // cyc, s
    for (size_t i = 0; i < ctx.counts.size(); ++i) {
        const LayerCounts &c = ctx.counts[i];
        all.generated += c.generated;
        all.retiredAll += c.retiredAll;
        all.measuredCycles += c.measuredCycles;
        all.quiesceSkipped += c.quiesceSkipped;
        all.l1dAccesses += c.l1dAccesses;
        all.l1dMisses += c.l1dMisses;
        all.l2Accesses += c.l2Accesses;
        all.l2Misses += c.l2Misses;
        all.steeredShelf += c.steeredShelf;
        all.steered += c.steered;
        all.robOccupancy += c.robOccupancy;
        all.coreRunSeconds += c.coreRunSeconds;
        rate[ctx.countKinds[i]].first += c.coreCycles;
        rate[ctx.countKinds[i]].second += c.coreRunSeconds;
    }
    double ncells = std::max<double>(1, ctx.counts.size());
    // long-cells runs its cells serially; the others on the pool.
    double workers = ctx.opt.workload == "long-cells" ? 1 : ctx.opt.jobs;
    const char *share = "share of decomposed cell host time";

    res.add("workload.generate_ms",
            ms(selfByName["workload.generate"]) / ncells, "ms",
            Domain::Host, "per decomposed cell");
    res.add("workload.insts_per_retired",
            ratio(all.generated, all.retiredAll), "ratio",
            Domain::Simulated, "generated / retired (warmup+measure)");
    res.add("workload.cell_share",
            ratio(cellLayer["workload"], cellTime), "ratio",
            Domain::Host, share);
    res.add("mem.warm_ms", ms(selfByName["mem.warm"]) / ncells, "ms",
            Domain::Host, "functional warmup, per decomposed cell");
    res.add("mem.cell_share", ratio(cellLayer["mem"], cellTime),
            "ratio", Domain::Host, share);
    res.add("mem.l1d_miss_rate", ratio(all.l1dMisses, all.l1dAccesses),
            "ratio", Domain::Simulated, "measured windows");
    res.add("mem.l2_miss_rate", ratio(all.l2Misses, all.l2Accesses),
            "ratio", Domain::Simulated, "measured windows");
    res.add("core.run_ms", ms(selfByName["core.run"]) / ncells, "ms",
            Domain::Host, "Core::run, per decomposed cell");
    res.add("core.cell_share", ratio(cellLayer["core"], cellTime),
            "ratio", Domain::Host, share);
    res.add("core.ns_per_retired",
            ratio(all.coreRunSeconds * 1e9, all.retiredAll), "ns",
            Domain::Host, "Core::run host ns per retired instruction");
    for (const char *kind :
         { "base64-4t", "shelf-opt-4t", "shelf-opt-8t" }) {
        auto it = rate.find(kind);
        bool have = it != rate.end();
        res.add(csprintf("core.cycles_per_s.%s", kind),
                have ? ratio(it->second.first, it->second.second) : 0.0,
                "cycles/s", Domain::Host,
                have ? "simulated cycles per host second"
                     : "no such cell in this workload");
    }
    res.add("core.quiesce_skip_frac",
            ratio(all.quiesceSkipped, all.measuredCycles), "ratio",
            Domain::Count, "skipped / simulated cycles (measured)");
    res.add("core.shelf_steer_frac",
            ratio(all.steeredShelf, all.steered), "ratio",
            Domain::Simulated, "instructions steered to the shelf");
    res.add("core.rob_occupancy", all.robOccupancy / ncells, "entries",
            Domain::Simulated, "mean over decomposed cells");
    res.add("system.ctor_ms", ms(sysCtor) / std::max(1.0, sysCells),
            "ms", Domain::Host, "System::System per cell");
    res.add("system.run_ms", ms(sysRun) / std::max(1.0, sysCells), "ms",
            Domain::Host, "System::run per cell");
    res.add("system.reconcile_ratio", ratio(layerTime, sysSingleCtorRun),
            "ratio", Domain::Host,
            "layer self times / (System ctor + run), same cells");
    res.add("system.lockstep_cycles_per_s",
            ratio(ctx.lockstepCycles, ctx.lockstepSeconds), "cycles/s",
            Domain::Host,
            ctx.lockstepSeconds > 0 ? "2x4 multi-core cell"
                                    : "no multi-core cell in this "
                                      "workload");
    res.add("experiment.stref_ms", ms(ctx.refSeconds), "ms",
            Domain::Host, "single-thread references, one pass");
    res.add("parallel.busy_frac", ratio(batchJobs, batchWall * workers),
            "ratio", Domain::Host, "job time / (wall x workers)");
    res.add("parallel.straggler_ms", ms(batchWall - batchJobs / workers),
            "ms", Domain::Host, "wall - job time / workers");
    res.add("supervisor.spawn_overhead_ms",
            median(ctx.spawnOverheadMs), "ms", Domain::Host,
            "isolated - in-process wall time, same spec");
    res.add("supervisor.attempts_per_cell", mean(ctx.attempts), "count",
            Domain::Count, "supervised cells");
    res.add("config_json.key_us", mean(ctx.keyUs), "us", Domain::Host,
            "canonicalJobKey per spec");
    double lookup = median(ctx.lookupUs);
    res.add("result_cache.lookup_us", lookup, "us", Domain::Host,
            "direct lookups on the warm daemon's cache");
    res.add("result_cache.hit_ratio",
            ratio(ctx.cacheHits, ctx.cacheLookups), "ratio",
            Domain::Count, "hits / lookups, every daemon of the run");
    res.add("result_cache.insert_us", median(ctx.insertUs), "us",
            Domain::Host, "write-through insert");
    res.add("serve.round_trip_us", quantile(ctx.hitUs, 0.5) - lookup,
            "us", Domain::Host, "warm round trip p50 - lookup p50");
    res.add("serve.hit_us_p99", hitQuantile(ctx.hitUs, 0.99), "us",
            Domain::Host, "warm round trip p99, median over chunks");
    res.add("serve.coalesced_frac",
            ratio(ctx.coalescedJobs, ctx.servedJobs), "ratio",
            Domain::Count, "coalesced / jobs served");
    res.add("trace.overhead_pct", (ratio(cellTime, sysSingle) - 1) * 100,
            "%", Domain::Host,
            csprintf("traced cells %.3f s vs the same cells untraced "
                     "%.3f s", cellTime, sysSingle));

    for (const auto &[layer, secs] : layerSelf)
        res.notes.push_back(csprintf("self time %-12s %10.1f ms",
                                     layer.c_str(), ms(secs)));
}

} // namespace

void
Results::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(why);
}

void
Results::add(const std::string &name, double value,
             const std::string &unit, Domain domain,
             const std::string &note)
{
    metrics.push_back({ name, value, unit, domain, note });
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * (v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

bool
runWorkload(const Options &opt, Results &res, uint64_t &fingerprint,
            double &stpGainPct)
{
    Ctx ctx(opt, res);
    if (opt.workload == "fig10-sweep")
        runFig10(ctx);
    else if (opt.workload == "long-cells")
        runLongCells(ctx);
    else if (opt.workload == "serve-isolated")
        runServeIsolated(ctx);
    else
        return false;
    fingerprint = ctx.fingerprintValue;
    stpGainPct = ctx.stpGainPct;
    if (opt.trace)
        perLayerMetrics(ctx);
    else
        endToEndMetrics(ctx);
    return true;
}

} // namespace shelfbench
