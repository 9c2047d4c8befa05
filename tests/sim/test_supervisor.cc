/**
 * @file
 * Supervised sweep executor tests: retry/backoff policy, journal
 * write + resume, and — because this binary installs the worker
 * guard in its own main() — real sandboxed workers, including
 * crashing, hanging, and exiting ones driven by the self-faulting
 * hook in SweepJobSpec.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>

#include "base/json.hh"
#include "base/strutil.hh"
#include "sim/experiment.hh"
#include "sim/supervisor.hh"
#include "workload/spec2006.hh"
#include "workload/trace_io.hh"

using namespace shelf;

namespace
{

/** A tiny two-thread job that simulates in a few milliseconds. */
validate::SweepJobSpec
tinySpec(uint64_t seed = 1, const std::string &fault = "")
{
    validate::SweepJobSpec spec;
    spec.core = baseCore64(2);
    spec.mixBenchmarks = { 0, 1 };
    spec.warmupCycles = 100;
    spec.measureCycles = 400;
    spec.seed = seed;
    spec.fault = fault;
    return spec;
}

/** Unique-per-test journal path, removed on destruction. */
class TempJournal
{
  public:
    explicit TempJournal(const char *tag)
        : path_(csprintf("/tmp/shelfsim_test_%s_%d.jsonl", tag,
                         static_cast<int>(getpid())))
    {
        remove(path_.c_str());
    }

    ~TempJournal() { remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
fullJson(const SystemResult &res)
{
    return res.toJson(JsonWriter::kFullPrecision);
}

} // namespace

TEST(Backoff, PolicyDoublesAndCaps)
{
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffDelay(0, 0.25), 0.0);
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffDelay(1, 0.25), 0.25);
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffDelay(2, 0.25), 0.5);
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffDelay(3, 0.25), 1.0);
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffDelay(5, 0.25), 4.0);
    // Capped at 5 s no matter how many attempts.
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffDelay(6, 0.25), 5.0);
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffDelay(30, 0.25), 5.0);
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffDelay(3, 0.0), 0.0);
}

TEST(Backoff, JitteredDelayStaysWithinBounds)
{
    // The jittered policy spreads each delay over [d, 1.25d),
    // deterministically keyed by (attempt, seed): fabric nodes
    // retrying the same dead peer desynchronize, yet every rerun
    // reproduces the exact same schedule.
    for (unsigned attempt = 1; attempt <= 8; ++attempt) {
        double d = SweepSupervisor::backoffDelay(attempt, 0.25);
        for (uint64_t seed : { uint64_t(1), uint64_t(42),
                               uint64_t(0xdeadbeef) }) {
            double j = SweepSupervisor::backoffDelayJittered(
                attempt, 0.25, seed);
            EXPECT_GE(j, d) << "attempt " << attempt;
            EXPECT_LT(j, d * 1.25) << "attempt " << attempt;
            EXPECT_DOUBLE_EQ(
                j, SweepSupervisor::backoffDelayJittered(attempt,
                                                         0.25, seed));
        }
    }
    // Attempt 0 has no delay to jitter...
    EXPECT_DOUBLE_EQ(
        SweepSupervisor::backoffDelayJittered(0, 0.25, 7), 0.0);
    // ...and different seeds genuinely spread out.
    EXPECT_NE(SweepSupervisor::backoffDelayJittered(1, 0.25, 1),
              SweepSupervisor::backoffDelayJittered(1, 0.25, 2));
}

TEST(Supervisor, InProcessMatchesRunMix)
{
    validate::SweepJobSpec spec = tinySpec();
    SweepSupervisor sup(SupervisorOptions{});
    auto outcomes = sup.run({ spec });
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_FALSE(outcomes[0].fromJournal);
    EXPECT_EQ(fullJson(outcomes[0].result),
              fullJson(runSweepJob(spec)));
}

TEST(Supervisor, SharedWarmupMatchesAcrossJobCounts)
{
    // Mix-major Figure-10 style list: the four configs of a mix
    // share one warm key, so all but one of them copy warm state in.
    std::vector<validate::SweepJobSpec> specs;
    std::vector<WorkloadMix> mixes = standardMixes(4);
    for (size_t m : { 0, 5, 11 }) {
        for (const CoreParams &c : { baseCore64(4), shelfCore(4, false),
                                     shelfCore(4, true),
                                     baseCore128(4) }) {
            validate::SweepJobSpec spec;
            spec.core = c;
            spec.mixBenchmarks = mixes[m].benchmarks;
            spec.warmupCycles = 1000;
            spec.measureCycles = 3000;
            specs.push_back(spec);
        }
    }
    // A job with a key of its own in the middle of the list.
    specs.insert(specs.begin() + 6, tinySpec(3));

    std::vector<std::vector<JobOutcome>> runs;
    for (unsigned jobs : { 1u, 4u }) {
        SupervisorOptions so;
        so.jobs = jobs;
        SweepSupervisor sup(so);
        runs.push_back(sup.run(specs));
        EXPECT_EQ(sup.warmMemoEntries(), 0u) << jobs << " jobs";
    }
    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(runs[0][i].ok() && runs[1][i].ok()) << i;
        std::string alone = fullJson(runSweepJob(specs[i]));
        EXPECT_EQ(fullJson(runs[0][i].result), alone) << i;
        EXPECT_EQ(fullJson(runs[1][i].result), alone) << i;
    }
}

TEST(Supervisor, DispatchOrderStartsOneGroupPerWorker)
{
    // Three groups of three, mix-major, with a keyless job (its own
    // group) between the first two.
    std::vector<std::string> keys = { "a", "a", "a", "", "b", "b",
                                      "b", "c", "c", "c" };
    std::vector<size_t> identity(keys.size());
    for (size_t i = 0; i < identity.size(); ++i)
        identity[i] = i;
    EXPECT_EQ(SweepSupervisor::dispatchOrder(keys, 1), identity);
    // Groups: a=0, keyless=1, b=2, c=3. Two workers: block {a, -}
    // then block {b, c}, each by rank first.
    EXPECT_EQ(SweepSupervisor::dispatchOrder(keys, 2),
              (std::vector<size_t>{ 0, 3, 1, 2, 4, 7, 5, 8, 6, 9 }));
    EXPECT_EQ(SweepSupervisor::dispatchOrder(keys, 4),
              (std::vector<size_t>{ 0, 3, 4, 7, 1, 5, 8, 2, 6, 9 }));
    // An interleaved list regroups even with one worker.
    EXPECT_EQ(SweepSupervisor::dispatchOrder({ "a", "b", "a", "b" }, 1),
              (std::vector<size_t>{ 0, 2, 1, 3 }));
}

TEST(Supervisor, IsolatedMatchesInProcess)
{
    validate::SweepJobSpec spec = tinySpec();
    SupervisorOptions opt;
    opt.isolate = true;
    opt.timeoutSeconds = 120;
    SweepSupervisor sup(opt);
    auto outcomes = sup.run({ spec });
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].stderrTail;
    // The result crossed a process boundary as JSON and must come
    // back bit-identical.
    EXPECT_EQ(fullJson(outcomes[0].result),
              fullJson(runSweepJob(spec)));
}

TEST(Supervisor, InProcessFaultIsSyntheticallyQuarantined)
{
    SupervisorOptions opt;
    opt.retries = 2;
    opt.backoffSeconds = 0; // keep the test fast
    SweepSupervisor sup(opt);
    auto outcomes = sup.run({ tinySpec(1, "crash"), tinySpec(2) });
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].attempts, 3u); // retries + 1
    EXPECT_EQ(outcomes[0].exitCode, 3);
    EXPECT_NE(outcomes[0].repro.find("--worker"), std::string::npos);
    EXPECT_TRUE(outcomes[1].ok()); // healthy neighbor unaffected
    EXPECT_EQ(SweepSupervisor::failures(outcomes), 1u);
    std::string summary = SweepSupervisor::failureSummary(outcomes);
    EXPECT_NE(summary.find("job 0"), std::string::npos);
    EXPECT_NE(summary.find("repro:"), std::string::npos);
}

TEST(Supervisor, IsolatedCrashRetriesThenQuarantines)
{
    SupervisorOptions opt;
    opt.isolate = true;
    opt.retries = 1;
    opt.backoffSeconds = 0;
    opt.timeoutSeconds = 120;
    SweepSupervisor sup(opt);
    auto outcomes = sup.run({ tinySpec(1, "crash"), tinySpec(2) });
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].attempts, 2u);
    // Plain builds die by SIGSEGV; sanitizer runtimes intercept the
    // fault and turn it into SIGABRT or a nonzero exit. Any of those
    // must land in quarantine as a non-timeout failure.
    EXPECT_TRUE(outcomes[0].termSignal != 0 ||
                outcomes[0].exitCode != 0)
        << "sig " << outcomes[0].termSignal << " exit "
        << outcomes[0].exitCode;
    EXPECT_FALSE(outcomes[0].timedOut);
    EXPECT_NE(outcomes[0].repro.find("--worker"), std::string::npos);
    // The crash stayed in its sandbox: this job still ran fine.
    ASSERT_TRUE(outcomes[1].ok());
    EXPECT_EQ(fullJson(outcomes[1].result),
              fullJson(runSweepJob(tinySpec(2))));
}

TEST(Supervisor, IsolatedExitNonzeroReportsExitCode)
{
    SupervisorOptions opt;
    opt.isolate = true;
    opt.retries = 0;
    opt.timeoutSeconds = 120;
    SweepSupervisor sup(opt);
    auto outcomes = sup.run({ tinySpec(1, "exit") });
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_EQ(outcomes[0].exitCode, 3);
    EXPECT_EQ(outcomes[0].termSignal, 0);
}

TEST(Supervisor, WatchdogKillsHungWorker)
{
    SupervisorOptions opt;
    opt.isolate = true;
    opt.retries = 0;
    opt.timeoutSeconds = 0.5;
    SweepSupervisor sup(opt);
    auto outcomes = sup.run({ tinySpec(1, "hang") });
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_TRUE(outcomes[0].timedOut);
    EXPECT_EQ(outcomes[0].termSignal, SIGKILL);
}

TEST(Supervisor, WatchdogKillsStoppedWorker)
{
    // A SIGSTOP'd worker is alive but frozen: it holds its pipes
    // open, consumes no CPU, and never exits on its own — the
    // failure mode of a node wedged in D-state or paused by the
    // scheduler. Only the wall-clock watchdog can reclaim it
    // (SIGKILL reaps even stopped processes).
    SupervisorOptions opt;
    opt.isolate = true;
    opt.retries = 0;
    opt.timeoutSeconds = 0.5;
    SweepSupervisor sup(opt);
    auto outcomes = sup.run({ tinySpec(1, "stop") });
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_TRUE(outcomes[0].timedOut);
    EXPECT_EQ(outcomes[0].termSignal, SIGKILL);
}

TEST(Supervisor, HungWorkerDoesNotStallSiblings)
{
    // Workers spawned side by side must not inherit each other's
    // pipes. If the hung worker holds a copy of a fast sibling's
    // stdout write end, the sibling's supervisor thread sees EOF
    // only when the hang is killed, so the fast job overruns its
    // own watchdog and is wrongly reported as timed out.
    SupervisorOptions opt;
    opt.isolate = true;
    opt.retries = 0;
    opt.timeoutSeconds = 2;
    opt.jobs = 12;
    SweepSupervisor sup(opt);
    std::vector<validate::SweepJobSpec> specs;
    for (uint64_t s = 1; s <= 11; ++s) {
        specs.push_back(tinySpec(s));
        if (s == 6)
            specs.push_back(tinySpec(s, "hang"));
    }
    auto outcomes = sup.run(specs);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].fault == "hang") {
            EXPECT_TRUE(outcomes[i].timedOut) << "job " << i;
            continue;
        }
        EXPECT_TRUE(outcomes[i].ok())
            << "fast job " << i << " stalled behind the hung worker";
        EXPECT_FALSE(outcomes[i].timedOut) << "job " << i;
    }
}

TEST(Supervisor, JournalResumeReplaysByteIdentically)
{
    TempJournal journal("resume");
    std::vector<validate::SweepJobSpec> specs = { tinySpec(1),
                                                  tinySpec(2) };

    SupervisorOptions opt;
    opt.journalPath = journal.path();
    auto first = SweepSupervisor(opt).run(specs);
    ASSERT_TRUE(first[0].ok() && first[1].ok());

    opt.resume = true;
    auto second = SweepSupervisor(opt).run(specs);
    ASSERT_EQ(second.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(second[i].ok());
        EXPECT_TRUE(second[i].fromJournal);
        EXPECT_EQ(fullJson(second[i].result),
                  fullJson(first[i].result));
    }
}

TEST(Supervisor, PartialResumeRunsOnlyMissingJobs)
{
    TempJournal journal("partial");
    SupervisorOptions opt;
    opt.journalPath = journal.path();
    auto first =
        SweepSupervisor(opt).run({ tinySpec(1), tinySpec(2) });
    ASSERT_TRUE(first[0].ok() && first[1].ok());

    // Resume a superset: jobs 1 and 2 replay, job 3 runs fresh.
    opt.resume = true;
    auto second = SweepSupervisor(opt).run(
        { tinySpec(1), tinySpec(2), tinySpec(3) });
    ASSERT_EQ(second.size(), 3u);
    EXPECT_TRUE(second[0].fromJournal);
    EXPECT_TRUE(second[1].fromJournal);
    EXPECT_FALSE(second[2].fromJournal);
    for (const auto &oc : second)
        EXPECT_TRUE(oc.ok());
}

TEST(Supervisor, QuarantinedOutcomeReplaysFromJournal)
{
    TempJournal journal("quarantine");
    SupervisorOptions opt;
    opt.journalPath = journal.path();
    opt.retries = 0;
    opt.backoffSeconds = 0;
    auto first = SweepSupervisor(opt).run({ tinySpec(1, "exit") });
    ASSERT_FALSE(first[0].ok());

    opt.resume = true;
    auto second = SweepSupervisor(opt).run({ tinySpec(1, "exit") });
    ASSERT_EQ(second.size(), 1u);
    EXPECT_FALSE(second[0].ok());
    EXPECT_TRUE(second[0].fromJournal);
    EXPECT_EQ(second[0].exitCode, first[0].exitCode);
    EXPECT_EQ(second[0].repro, first[0].repro);
}

TEST(Supervisor, TornJournalLineIsSkipped)
{
    TempJournal journal("torn");
    SupervisorOptions opt;
    opt.journalPath = journal.path();
    auto first = SweepSupervisor(opt).run({ tinySpec(1) });
    ASSERT_TRUE(first[0].ok());

    // Simulate a SIGKILL mid-append: a truncated trailing record.
    FILE *f = fopen(journal.path().c_str(), "a");
    ASSERT_NE(f, nullptr);
    fputs("{\"key\":\"half-written", f);
    fclose(f);

    opt.resume = true;
    auto second = SweepSupervisor(opt).run({ tinySpec(1) });
    ASSERT_TRUE(second[0].ok());
    EXPECT_TRUE(second[0].fromJournal);
    EXPECT_EQ(fullJson(second[0].result), fullJson(first[0].result));
}

TEST(Supervisor, WedgedWorkerLeavesLinkedCrashDump)
{
    // End-to-end crash-diagnostics path: a wedge fault stalls the
    // worker's retirement, the in-simulator watchdog panics well
    // before any wall-clock timeout, the panic hook writes a dump
    // JSON into dumpDir, and the quarantine artifact links it.
    std::string dir = csprintf("/tmp/shelfsim_test_dumps_%d",
                               static_cast<int>(getpid()));
    mkdir(dir.c_str(), 0755);
    TempJournal journal("wedge");

    SupervisorOptions opt;
    opt.isolate = true;
    opt.retries = 0;
    opt.timeoutSeconds = 120;
    opt.dumpDir = dir;
    opt.journalPath = journal.path();
    SweepSupervisor sup(opt);
    auto outcomes = sup.run({ tinySpec(1, "wedge") });
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_FALSE(outcomes[0].ok());
    // The watchdog fired inside the simulator (panic -> abort), not
    // the supervisor's wall-clock watchdog.
    EXPECT_FALSE(outcomes[0].timedOut);
    EXPECT_NE(outcomes[0].stderrTail.find("watchdog"),
              std::string::npos);

    // The quarantine record links the worker's dump file...
    ASSERT_FALSE(outcomes[0].dumpFile.empty());
    EXPECT_EQ(outcomes[0].dumpFile.rfind(dir + "/", 0), 0u);
    std::string summary = SweepSupervisor::failureSummary(outcomes);
    EXPECT_NE(summary.find(outcomes[0].dumpFile),
              std::string::npos);

    // ...which exists, parses, and names the stuck structure with a
    // non-empty flight-recorder section.
    FILE *f = fopen(outcomes[0].dumpFile.c_str(), "r");
    ASSERT_NE(f, nullptr) << outcomes[0].dumpFile;
    std::string json;
    char buf[4096];
    size_t got;
    while ((got = fread(buf, 1, sizeof(buf), f)) > 0)
        json.append(buf, got);
    fclose(f);
    JsonValue doc = parseJson(json);
    EXPECT_NE(doc.find("reason")->raw.find("watchdog"),
              std::string::npos);
    ASSERT_NE(doc.find("threads"), nullptr);
    EXPECT_EQ(doc.find("threads")->items[0].find("structure")->raw,
              "retire-wedged");
    EXPECT_FALSE(doc.find("flight_recorder")->items.empty());
    // The dump carries the worker's own repro line.
    EXPECT_NE(doc.find("repro")->raw.find("--worker"),
              std::string::npos);

    // The journal's quarantine record carries the link too.
    opt.resume = true;
    auto replay = SweepSupervisor(opt).run({ tinySpec(1, "wedge") });
    ASSERT_FALSE(replay[0].ok());
    EXPECT_TRUE(replay[0].fromJournal);
    EXPECT_EQ(replay[0].dumpFile, outcomes[0].dumpFile);

    remove(outcomes[0].dumpFile.c_str());
    rmdir(dir.c_str());
}

TEST(Supervisor, ProgressCallbackSeesEveryJob)
{
    std::vector<validate::SweepJobSpec> specs = { tinySpec(1),
                                                  tinySpec(2),
                                                  tinySpec(3) };
    std::atomic<size_t> calls{0};
    SweepSupervisor sup(SupervisorOptions{});
    sup.setProgressCallback(
        [&](size_t, const JobOutcome &) { ++calls; });
    sup.run(specs);
    EXPECT_EQ(calls.load(), specs.size());
}

TEST(Supervisor, CorruptTraceQuarantinesWithoutRetries)
{
    // A job whose trace file is corrupt is a deterministic input
    // error: re-running cannot help, so the supervisor must
    // quarantine it on the first attempt with the dedicated exit
    // code and surface the TraceError diagnosis. The hash is
    // computed over the already-corrupted bytes so the failure is
    // the checksummed reader's, not the door's hash check.
    std::string path = csprintf("/tmp/shelfsim_corrupt_%d.shlftrc",
                                static_cast<int>(getpid()));
    {
        Trace t = TraceGenerator(spec2006Profile("mcf"), 3, 0)
            .generate(500);
        std::string werr;
        ASSERT_TRUE(writeTrace2File(t, path, {}, &werr)) << werr;
        FILE *f = fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        fseek(f, 60, SEEK_SET);
        fputc(0x5a, f);
        fclose(f);
    }
    validate::SweepJobSpec spec;
    spec.core = baseCore64(1);
    spec.warmupCycles = 100;
    spec.measureCycles = 400;
    spec.seed = 1;
    spec.tracePaths = { path };
    std::string ferr;
    ASSERT_TRUE(validate::fillTraceHashes(spec, ferr)) << ferr;

    SupervisorOptions opt;
    opt.retries = 2;
    opt.backoffSeconds = 0;
    SweepSupervisor sup(opt);
    auto outcomes = sup.run({ spec, tinySpec(2) });
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].status, JobOutcome::Status::Quarantined);
    EXPECT_EQ(outcomes[0].exitCode, kJobInputErrorExit);
    EXPECT_EQ(outcomes[0].attempts, 1u); // no pointless retries
    EXPECT_NE(outcomes[0].stderrTail.find("TraceError"),
              std::string::npos) << outcomes[0].stderrTail;
    EXPECT_TRUE(outcomes[1].ok()); // healthy neighbor unaffected
    remove(path.c_str());
}

int
main(int argc, char **argv)
{
    // This binary is its own sandboxed sweep worker: the isolation
    // tests re-exec it as `test_supervisor --worker '<spec>'`.
    if (int rc = 0; maybeRunSweepWorker(argc, argv, &rc))
        return rc;
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
