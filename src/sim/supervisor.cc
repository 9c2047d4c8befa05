#include "sim/supervisor.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <tuple>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/strutil.hh"
#include "diag/crash_dump.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/launcher.hh"
#include "sim/parallel.hh"
#include "sim/system.hh"
#include "workload/mix.hh"
#include "workload/trace_io.hh"

namespace shelf
{

namespace
{

double
envDouble(const char *name, double dflt)
{
    const char *s = std::getenv(name);
    if (!s)
        return dflt;
    double v;
    fatal_if(!tryParseDouble(s, v) || v < 0, "bad %s '%s'", name, s);
    return v;
}

uint64_t
envU64(const char *name, uint64_t dflt)
{
    const char *s = std::getenv(name);
    if (!s)
        return dflt;
    uint64_t v;
    fatal_if(!tryParseU64(s, v), "bad %s '%s'", name, s);
    return v;
}

bool
envFlag(const char *name)
{
    const char *s = std::getenv(name);
    return s && *s && std::string(s) != "0";
}

double
elapsedSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** The simulation controls of a generated job, fault hooks aside. */
SimControls
controlsOf(const validate::SweepJobSpec &spec)
{
    SimControls ctl;
    ctl.warmupCycles = static_cast<Cycle>(spec.warmupCycles);
    ctl.measureCycles = static_cast<Cycle>(spec.measureCycles);
    ctl.seed = spec.seed;
    ctl.numCores = spec.numCores;
    ctl.allocation = spec.allocation;
    return ctl;
}

WorkloadMix
mixOf(const validate::SweepJobSpec &spec)
{
    WorkloadMix mix;
    mix.benchmarks = spec.mixBenchmarks;
    return mix;
}

/** The warm-memo key of an in-process job; empty for a job that
 * walks its own warmup (fault-marked, trace-backed or multi-core). */
std::string
warmKeyOf(const validate::SweepJobSpec &spec)
{
    if (!spec.fault.empty() || !spec.tracePaths.empty())
        return "";
    return System::warmKey(
        mixConfig(spec.core, mixOf(spec), controlsOf(spec)));
}

} // namespace

SupervisorOptions
SupervisorOptions::fromEnv()
{
    SupervisorOptions opt;
    opt.isolate = envFlag("SHELFSIM_ISOLATE");
    opt.timeoutSeconds = envDouble("SHELFSIM_TIMEOUT", 0);
    opt.retries = static_cast<unsigned>(
        envU64("SHELFSIM_RETRIES", opt.retries));
    opt.backoffSeconds =
        envDouble("SHELFSIM_BACKOFF", opt.backoffSeconds);
    if (const char *s = std::getenv("SHELFSIM_JOURNAL"))
        opt.journalPath = s;
    opt.resume = envFlag("SHELFSIM_RESUME");
    if (const char *s = std::getenv("SHELFSIM_DUMP_DIR"))
        opt.dumpDir = s;
    fatal_if(opt.resume && opt.journalPath.empty(),
             "SHELFSIM_RESUME needs SHELFSIM_JOURNAL");
    return opt;
}

double
SweepSupervisor::backoffDelay(unsigned attempt, double baseSeconds)
{
    if (attempt == 0 || baseSeconds <= 0)
        return 0;
    double d = baseSeconds;
    for (unsigned i = 1; i < attempt && d < 5.0; ++i)
        d *= 2;
    return d < 5.0 ? d : 5.0;
}

double
SweepSupervisor::backoffDelayJittered(unsigned attempt,
                                      double baseSeconds,
                                      uint64_t seed)
{
    double d = backoffDelay(attempt, baseSeconds);
    if (d <= 0)
        return 0;
    // Deterministic splitmix64-style jitter: the same (seed,
    // attempt) always waits the same amount (reproducible runs),
    // but distinct jobs and nodes decorrelate, so a fleet of
    // retriers does not hammer a recovering node in lockstep.
    uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (attempt + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    double frac =
        static_cast<double>(x >> 11) / 9007199254740992.0; // [0,1)
    return d * (1.0 + frac / 4.0); // [d, 1.25d)
}

SweepSupervisor::SweepSupervisor(SupervisorOptions opt_)
    : opt(std::move(opt_))
{
    if (opt.workerBinary.empty()) {
        // Resolve the symlink up front so repro artifacts name the
        // actual binary, not whichever process re-runs them.
        char buf[4096];
        ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
        if (n > 0) {
            buf[n] = '\0';
            opt.workerBinary = buf;
        } else {
            opt.workerBinary = "/proc/self/exe";
        }
    }
    if (!opt.launcher) {
        opt.launcher = std::make_shared<LocalSpawnLauncher>(
            opt.workerBinary, opt.dumpDir);
    }
}

JobOutcome
SweepSupervisor::runIsolated(const validate::SweepJobSpec &spec)
{
    JobOutcome oc;
    std::string specJson = spec.toJson();
    uint64_t jitterSeed = fnv1a64(specJson);
    unsigned maxAttempts = opt.retries + 1;
    for (unsigned a = 1; a <= maxAttempts; ++a) {
        if (a > 1) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoffDelayJittered(
                    a - 1, opt.backoffSeconds, jitterSeed)));
        }
        oc.attempts = a;
        LaunchResult at =
            opt.launcher->launch(specJson, opt.timeoutSeconds);
        oc.exitCode = at.exitCode;
        oc.termSignal = at.termSignal;
        oc.timedOut = at.timedOut;
        oc.stderrTail = at.stderrTail;
        oc.dumpFile = at.dumpFile;
        if (oc.stderrTail.empty() && !at.error.empty())
            oc.stderrTail = at.error;
        if (at.ok) {
            oc.status = JobOutcome::Status::Ok;
            oc.result = SystemResult::fromJson(at.resultJson);
            return oc;
        }
        oc.status = JobOutcome::Status::Quarantined;
    }
    return oc;
}

JobOutcome
SweepSupervisor::execute(const validate::SweepJobSpec &spec,
                         WarmMemo *memo)
{
    auto t0 = std::chrono::steady_clock::now();
    JobOutcome oc;
    if (opt.isolate) {
        oc = runIsolated(spec);
    } else if (!spec.fault.empty()) {
        // In-process mode cannot contain a real fault (that is the
        // point of isolation); fault-marked jobs fail synthetically
        // so the retry/quarantine/journal machinery stays testable
        // without forking.
        uint64_t jitterSeed = fnv1a64(spec.toJson());
        unsigned maxAttempts = opt.retries + 1;
        for (unsigned a = 1; a <= maxAttempts; ++a) {
            if (a > 1) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(
                        backoffDelayJittered(
                            a - 1, opt.backoffSeconds, jitterSeed)));
            }
            oc.attempts = a;
        }
        oc.status = JobOutcome::Status::Quarantined;
        oc.exitCode = 3;
        oc.stderrTail = csprintf(
            "fault '%s' injected (in-process mode)",
            spec.fault.c_str());
    } else {
        oc.attempts = 1;
        std::string jerr;
        if (tryRunSweepJob(spec, oc.result, jerr, memo)) {
            oc.status = JobOutcome::Status::Ok;
        } else {
            // Deterministic input failure (bad trace file): the
            // rest of the sweep continues; this one cell is
            // quarantined with the precise reason, no retries.
            oc.status = JobOutcome::Status::Quarantined;
            oc.exitCode = kJobInputErrorExit;
            oc.stderrTail = jerr;
        }
    }
    oc.wallSeconds = elapsedSince(t0);
    if (!oc.ok()) {
        oc.repro = csprintf("%s --worker '%s'",
                            opt.workerBinary.c_str(),
                            spec.toJson().c_str());
    }
    return oc;
}

JobOutcome
SweepSupervisor::runOne(const validate::SweepJobSpec &spec)
{
    return execute(spec);
}

std::vector<JobOutcome>
SweepSupervisor::run(const std::vector<validate::SweepJobSpec> &jobs)
{
    std::vector<JobOutcome> outcomes(jobs.size());

    std::map<std::string, JournalRecord> done;
    if (opt.resume && !opt.journalPath.empty())
        done = loadJournal(opt.journalPath);

    std::vector<size_t> pending;
    for (size_t i = 0; i < jobs.size(); ++i) {
        std::string key = jobs[i].toJson();
        auto it = done.find(key);
        if (it == done.end()) {
            pending.push_back(i);
            continue;
        }
        if (!outcomeFromJournal(it->second, outcomes[i])) {
            warn("journal: unreadable result for %s; re-running",
                 key.c_str());
            outcomes[i] = JobOutcome();
            pending.push_back(i);
            continue;
        }
        if (progress)
            progress(i, outcomes[i]);
    }

    JournalWriter journal;
    std::string jerr;
    fatal_if(!journal.open(opt.journalPath, &jerr), "%s",
             jerr.c_str());

    if (!opt.isolate) {
        // Count each warm key's users before any job runs, so the
        // memo drops an entry as soon as its last user has it.
        std::vector<std::string> keys;
        for (size_t i : pending) {
            keys.push_back(warmKeyOf(jobs[i]));
            if (!keys.back().empty())
                warmMemo.expect(keys.back());
        }
        std::vector<size_t> order = dispatchOrder(
            keys, opt.jobs ? opt.jobs : defaultJobs());
        std::vector<size_t> byOrder;
        for (size_t k : order)
            byOrder.push_back(pending[k]);
        pending = std::move(byOrder);
    }

    WarmMemo *memo = opt.isolate ? nullptr : &warmMemo;
    runJobs(pending.size(), [&](size_t k) {
        size_t i = pending[k];
        JobOutcome oc = execute(jobs[i], memo);
        journal.append(journalLine(jobs[i].toJson(), oc));
        outcomes[i] = std::move(oc);
        if (progress)
            progress(i, outcomes[i]);
    }, opt.jobs);

    return outcomes;
}

std::vector<size_t>
SweepSupervisor::dispatchOrder(const std::vector<std::string> &keys,
                               unsigned workers)
{
    struct Slot
    {
        size_t group, rank, index;
    };
    std::map<std::string, size_t> groupOf;
    std::vector<size_t> groupSize;
    std::vector<Slot> slots;
    for (size_t k = 0; k < keys.size(); ++k) {
        size_t g = groupSize.size();
        if (!keys[k].empty())
            g = groupOf.emplace(keys[k], g).first->second;
        if (g == groupSize.size())
            groupSize.push_back(0);
        slots.push_back({ g, groupSize[g]++, k });
    }
    size_t w = std::max(1u, workers);
    std::stable_sort(slots.begin(), slots.end(),
                     [w](const Slot &a, const Slot &b) {
        return std::make_tuple(a.group / w, a.rank, a.group) <
            std::make_tuple(b.group / w, b.rank, b.group);
    });
    std::vector<size_t> order;
    for (const Slot &s : slots)
        order.push_back(s.index);
    return order;
}

size_t
SweepSupervisor::failures(const std::vector<JobOutcome> &outcomes)
{
    size_t n = 0;
    for (const auto &oc : outcomes)
        n += !oc.ok();
    return n;
}

std::string
SweepSupervisor::failureSummary(
    const std::vector<JobOutcome> &outcomes)
{
    size_t bad = failures(outcomes);
    if (bad == 0)
        return "";
    std::string out = csprintf(
        "%zu of %zu sweep jobs quarantined:\n", bad,
        outcomes.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const JobOutcome &oc = outcomes[i];
        if (oc.ok())
            continue;
        std::string why;
        if (oc.timedOut)
            why = "watchdog timeout";
        else if (oc.termSignal)
            why = csprintf("signal %d", oc.termSignal);
        else
            why = csprintf("exit code %d", oc.exitCode);
        out += csprintf("  job %zu: %s after %u attempt%s%s\n", i,
                        why.c_str(), oc.attempts,
                        oc.attempts == 1 ? "" : "s",
                        oc.fromJournal ? " (journaled)" : "");
        if (!oc.stderrTail.empty()) {
            // Last stderr line only; the full tail is in the
            // journal record.
            std::string tail = oc.stderrTail;
            while (!tail.empty() && tail.back() == '\n')
                tail.pop_back();
            size_t nl = tail.rfind('\n');
            out += csprintf("    stderr: %s\n",
                            tail.substr(nl == std::string::npos
                                            ? 0 : nl + 1).c_str());
        }
        if (!oc.repro.empty())
            out += csprintf("    repro: %s\n", oc.repro.c_str());
        if (!oc.dumpFile.empty())
            out += csprintf("    dump: %s\n", oc.dumpFile.c_str());
    }
    return out;
}

bool
tryRunSweepJob(const validate::SweepJobSpec &spec,
               SystemResult &res, std::string &err, WarmMemo *memo)
{
    if (spec.fault == "crash") {
        std::raise(SIGSEGV);
    } else if (spec.fault == "hang") {
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    } else if (spec.fault == "exit") {
        std::exit(3);
    } else if (spec.fault == "stop") {
        // SIGSTOP, not a crash: the worker is alive but frozen, so
        // only the supervisor's wall-clock watchdog — never an exit
        // status — can notice. Exercises the "wedged, not dead"
        // recovery path.
        std::raise(SIGSTOP);
        // If something SIGCONTs us (an interactive debugger), fall
        // through and run normally.
    } else if (!spec.fault.empty() && spec.fault != "wedge") {
        fatal("unknown fault kind '%s'", spec.fault.c_str());
    }

    CoreParams core = spec.core;
    core.validate();
    SimControls ctl = controlsOf(spec);
    if (spec.fault == "wedge") {
        // Stall retirement partway into warmup and clamp the
        // forward-progress watchdog so it is guaranteed to fire
        // (and write its crash dump) well inside the simulation's
        // own cycle budget -- otherwise the run would just finish
        // "successfully" with zero retired instructions.
        ctl.wedgeAtCycle =
            std::max<Cycle>(1, ctl.warmupCycles / 2);
        Cycle budget = ctl.warmupCycles + ctl.measureCycles;
        Cycle room = budget > ctl.wedgeAtCycle
            ? (budget - ctl.wedgeAtCycle) / 2 : 0;
        unsigned clamp =
            static_cast<unsigned>(std::max<Cycle>(8, room));
        if (core.watchdogCycles == 0 || core.watchdogCycles > clamp)
            core.watchdogCycles = clamp;
    }

    if (spec.tracePaths.empty()) {
        ctl.warmMemo = memo;
        res = runMix(core, mixOf(spec), ctl);
        return true;
    }

    // Trace-backed job: the traces are untrusted external input, so
    // every failure here returns an error instead of crashing —
    // fail-precise, since a corrupted file errors identically on
    // every node and retrying would just waste attempts.
    SystemConfig cfg;
    cfg.core = core;
    cfg.seed = ctl.seed;
    cfg.warmupCycles = ctl.warmupCycles;
    cfg.measureCycles = ctl.measureCycles;
    cfg.numCores = ctl.numCores;
    cfg.allocation = ctl.allocation;
    for (size_t i = 0; i < spec.tracePaths.size(); ++i) {
        const std::string &path = spec.tracePaths[i];
        if (i < spec.traceHashes.size()) {
            // The canonical key promised this content; a mismatch
            // means the file changed (or never was) what the job
            // was keyed on, and running it would poison the cache.
            std::string hash, herr;
            if (!tryTraceFileHash(path, hash, herr)) {
                err = csprintf("trace '%s': %s", path.c_str(),
                               herr.c_str());
                return false;
            }
            if (hash != spec.traceHashes[i]) {
                err = csprintf(
                    "trace '%s': content hash mismatch (job "
                    "expects %s, file is %s)", path.c_str(),
                    spec.traceHashes[i].c_str(), hash.c_str());
                return false;
            }
        }
        Trace tr;
        TraceError te;
        std::string detail;
        if (!tryReadTraceFile(path, tr, TraceReadOptions{}, &te,
                              &detail)) {
            err = csprintf("trace '%s': TraceError %s: %s",
                           path.c_str(), traceErrorName(te),
                           detail.c_str());
            return false;
        }
        if (tr.empty()) {
            err = csprintf("trace '%s' contains no instructions",
                           path.c_str());
            return false;
        }
        size_t slash = path.find_last_of('/');
        cfg.benchmarks.push_back(
            slash == std::string::npos ? path
                                       : path.substr(slash + 1));
        cfg.externalTraces.push_back(std::move(tr));
    }
    System sys(cfg);
    if (ctl.wedgeAtCycle) {
        for (unsigned c = 0; c < sys.numCores(); ++c)
            if (sys.hasCore(c))
                sys.core(c).wedgeRetirementAt(ctl.wedgeAtCycle);
    }
    res = sys.run();
    return true;
}

SystemResult
runSweepJob(const validate::SweepJobSpec &spec)
{
    SystemResult res;
    std::string err;
    fatal_if(!tryRunSweepJob(spec, res, err), "%s", err.c_str());
    return res;
}

bool
maybeRunSweepWorker(int argc, char **argv, int *rc)
{
    if (argc != 3 || std::string(argv[1]) != "--worker")
        return false;

    // Workers log through stderr unconditionally (the supervisor
    // captures it into the quarantine record), tagged with a short
    // stable hash of the job spec so interleaved retries remain
    // attributable.
    setAlwaysWarn(true);
    setLogTag(csprintf("worker:%016llx",
                       static_cast<unsigned long long>(
                           fnv1a64(argv[2]))));
    // Every worker is a fresh process, so per-process "one-shot"
    // warnings would re-fire for every job of a sweep and flood the
    // captured stderr tails; the CLI front end already warned once.
    suppressTraceDeprecationWarning();

    if (const char *dir = std::getenv("SHELFSIM_DUMP_DIR")) {
        diag::setRepro(csprintf("%s --worker '%s'", argv[0],
                                argv[2]));
        diag::enableCrashDumps(dir);
        diag::installCrashSignalHandlers();
    }

    SystemResult res;
    {
        validate::SweepJobSpec spec =
            validate::SweepJobSpec::fromJson(argv[2]);
        std::string jerr;
        if (!tryRunSweepJob(spec, res, jerr)) {
            // Bad job input (e.g. corrupt trace): report precisely
            // on stderr (the supervisor captures the tail into the
            // quarantine record) and exit with the input-error
            // code, without taking the crash-dump path.
            fprintf(stderr, "%s\n", jerr.c_str());
            fflush(stderr);
            *rc = kJobInputErrorExit;
            return true;
        }
    }
    // Full precision: the parent reconstructs bit-identical doubles
    // from this line, keeping isolated sweeps byte-identical to
    // in-process ones.
    printf("%s%s\n", kWorkerResultMarker,
           res.toJson(JsonWriter::kFullPrecision).c_str());
    fflush(stdout);
    *rc = 0;
    return true;
}

} // namespace shelf
