/**
 * @file
 * Tests for the validation subsystem itself (src/validate): the
 * golden functional model must agree with every core configuration
 * the differential suite covers, each named invariant check must
 * fire on deliberately broken state (via InvariantChecker::corrupt),
 * the golden commit-stream checker must reject tampered logs, and
 * the CoreParams JSON round trip must be lossless.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "core/core.hh"
#include "mem/hierarchy.hh"
#include "validate/config_json.hh"
#include "validate/golden.hh"
#include "validate/invariants.hh"
#include "workload/generator.hh"
#include "workload/spec2006.hh"

using namespace shelf;
using namespace shelf::validate;

namespace
{

constexpr Cycle kRunCycles = 5000;
constexpr size_t kTraceLen = 40000;

std::vector<Trace>
makeTraces(unsigned threads, uint64_t seed, MemHierarchy &mem)
{
    const char *names[4] = { "gcc", "mcf", "hmmer", "gobmk" };
    std::vector<Trace> traces;
    for (unsigned t = 0; t < threads; ++t) {
        TraceGenerator gen(spec2006Profile(names[t % 4]), seed + t,
                           static_cast<Addr>(t) << 30);
        traces.push_back(gen.generate(kTraceLen));
        for (const auto &inst : traces.back()) {
            mem.warmInst(inst.pc);
            if (inst.isMem())
                mem.warmData(inst.addr);
        }
    }
    return traces;
}

std::vector<const Trace *>
tracePtrs(const std::vector<Trace> &traces)
{
    std::vector<const Trace *> ptrs;
    for (const auto &tr : traces)
        ptrs.push_back(&tr);
    return ptrs;
}

struct GoldenParam
{
    std::string label;
    CoreParams params;
};

/** Print a parameter as its label: without this, gtest prints its
 * bytes (string heap pointers included) and the discovered test
 * names change from build to build. */
void
PrintTo(const GoldenParam &p, std::ostream *os)
{
    *os << p.label;
}

std::vector<GoldenParam>
allConfigs()
{
    std::vector<GoldenParam> v;
    v.push_back({ "baseline", baseCore64(4) });
    v.push_back({ "base128", baseCore128(4) });
    v.push_back({ "shelf_cons", shelfCore(4, false) });
    v.push_back({ "shelf_opt", shelfCore(4, true) });
    v.push_back({ "shelf_oracle",
                  shelfCore(4, true, SteerPolicyKind::Oracle) });
    v.push_back({ "always_shelf",
                  shelfCore(4, true, SteerPolicyKind::AlwaysShelf) });

    CoreParams single_ssr = shelfCore(4, true);
    single_ssr.ssrDesign = SsrDesign::Single;
    v.push_back({ "ssr_single", single_ssr });

    CoreParams per_run = shelfCore(4, true);
    per_run.ssrDesign = SsrDesign::PerRun;
    v.push_back({ "ssr_per_run", per_run });

    CoreParams release_wb = shelfCore(4, true);
    release_wb.shelfReleaseAtWriteback = true;
    v.push_back({ "release_at_writeback", release_wb });

    CoreParams rr = shelfCore(4, true);
    rr.fetchPolicy = CoreParams::FetchPolicy::RoundRobin;
    v.push_back({ "round_robin_fetch", rr });

    CoreParams tso = shelfCore(4, true);
    tso.memModel = CoreParams::MemModel::TSO;
    v.push_back({ "tso", tso });

    return v;
}

class GoldenAgreement
    : public ::testing::TestWithParam<GoldenParam>
{};

/**
 * The centerpiece: every configuration's observed commit stream must
 * satisfy the golden in-order execution's predictions (uniqueness,
 * bounded-gap contiguity, destination identity, WAW ordering), with
 * the per-cycle invariant checks enabled throughout.
 */
TEST_P(GoldenAgreement, CommitStreamMatchesGoldenModel)
{
    const GoldenParam &gp = GetParam();
    MemHierarchy mem;
    auto traces = makeTraces(gp.params.threads, 1, mem);
    Core core(gp.params, mem, tracePtrs(traces));
    core.setCheckInvariants(true);

    CommitLog log(gp.params.threads);
    core.setCommitObserver(log.observer());
    core.run(kRunCycles);

    uint64_t window = goldenTailWindow(gp.params);
    for (unsigned t = 0; t < gp.params.threads; ++t) {
        GoldenReport rep = checkCommitsAgainstGolden(
            traces[t], log.thread(static_cast<ThreadID>(t)), window);
        EXPECT_TRUE(rep.ok)
            << gp.label << " t" << t << ": " << rep.detail;
        EXPECT_GT(rep.commitsChecked, 0u) << gp.label << " t" << t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GoldenAgreement, ::testing::ValuesIn(allConfigs()),
    [](const ::testing::TestParamInfo<GoldenParam> &info) {
        return info.param.label;
    });

/**
 * Negative tests: for every named check, corrupt live core state via
 * the checker's own fault injector and verify the check fires. The
 * shelf + TSO configuration keeps every mechanism live so each check
 * eventually finds a corruption site.
 */
class InvariantNegative
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(InvariantNegative, CorruptedStateIsDetected)
{
    const std::string &check = GetParam();
    CoreParams params =
        shelfCore(4, true, SteerPolicyKind::Practical);
    params.memModel = CoreParams::MemModel::TSO;
    MemHierarchy mem;
    auto traces = makeTraces(params.threads, 7, mem);
    Core core(params, mem, tracePtrs(traces));

    // A healthy pipeline passes the check before corruption.
    for (Cycle c = 0; c < 200; ++c)
        core.tick();
    EXPECT_TRUE(InvariantChecker::run(core, check).empty())
        << check << " failed on healthy state";

    bool corrupted = false;
    for (Cycle c = 0; c < 5000 && !corrupted; ++c) {
        core.tick();
        corrupted = InvariantChecker::corrupt(core, check);
    }
    ASSERT_TRUE(corrupted)
        << "no corruption site for '" << check << "' in 5000 cycles";

    auto failures = InvariantChecker::run(core, check);
    ASSERT_FALSE(failures.empty())
        << check << " did not fire on corrupted state";
    EXPECT_EQ(failures.front().check, check);
    EXPECT_FALSE(failures.front().detail.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Checks, InvariantNegative,
    ::testing::ValuesIn(InvariantChecker::checkNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(Invariants, RunAllIsCleanOnHealthyCore)
{
    CoreParams params = shelfCore(4, true);
    MemHierarchy mem;
    auto traces = makeTraces(params.threads, 3, mem);
    Core core(params, mem, tracePtrs(traces));
    for (Cycle c = 0; c < 1000; ++c) {
        core.tick();
        auto failures = InvariantChecker::runAll(core);
        ASSERT_TRUE(failures.empty())
            << "cycle " << core.cycle() << ": "
            << failures.front().check << ": "
            << failures.front().detail;
    }
}

/** @name Golden-checker unit tests over synthetic commit logs @{ */

Trace
tinyTrace()
{
    // r1 = alu; r2 = alu(r1); r1 = alu(r2); r3 = alu(r1)
    Trace t;
    TraceInst a;
    a.op = OpClass::IntAlu;
    a.pc = 0x1000;
    a.dst = 1;
    t.push_back(a);
    a.pc = 0x1004;
    a.src1 = 1;
    a.dst = 2;
    t.push_back(a);
    a.pc = 0x1008;
    a.src1 = 2;
    a.dst = 1;
    t.push_back(a);
    a.pc = 0x100c;
    a.src1 = 1;
    a.dst = 3;
    t.push_back(a);
    return t;
}

CommitRecord
rec(uint64_t idx, RegId dst, Cycle complete, Cycle retire,
    bool to_shelf = false)
{
    CommitRecord r;
    r.traceIdx = idx;
    r.seq = idx;
    r.dst = dst;
    r.completeCycle = complete;
    r.retireCycle = retire;
    r.toShelf = to_shelf;
    return r;
}

TEST(GoldenChecker, AcceptsAHealthyLog)
{
    Trace t = tinyTrace();
    std::vector<CommitRecord> log = {
        rec(0, 1, 10, 11), rec(1, 2, 12, 13), rec(2, 1, 14, 15),
        rec(3, 3, 16, 17),
    };
    GoldenReport rep = checkCommitsAgainstGolden(t, log, 64);
    EXPECT_TRUE(rep.ok) << rep.detail;
    EXPECT_EQ(rep.commitsChecked, 4u);
}

TEST(GoldenChecker, EmptyLogIsVacuouslyOk)
{
    Trace t = tinyTrace();
    GoldenReport rep = checkCommitsAgainstGolden(t, {}, 64);
    EXPECT_TRUE(rep.ok);
}

TEST(GoldenChecker, RejectsDoubleCommit)
{
    Trace t = tinyTrace();
    std::vector<CommitRecord> log = {
        rec(0, 1, 10, 11), rec(1, 2, 12, 13), rec(1, 2, 12, 14),
    };
    GoldenReport rep = checkCommitsAgainstGolden(t, log, 64);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.detail.find("twice"), std::string::npos)
        << rep.detail;
}

TEST(GoldenChecker, RejectsGapBeyondTheTailWindow)
{
    Trace t = tinyTrace();
    // Index 1 never committed, and index 3 is more than window=1
    // beyond it: the gap cannot be in-flight skew.
    std::vector<CommitRecord> log = {
        rec(0, 1, 10, 11), rec(2, 1, 14, 15), rec(3, 3, 16, 17),
    };
    GoldenReport rep = checkCommitsAgainstGolden(t, log, 1);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.detail.find("never committed"), std::string::npos)
        << rep.detail;
}

TEST(GoldenChecker, TolerantOfGapsInsideTheTailWindow)
{
    Trace t = tinyTrace();
    std::vector<CommitRecord> log = {
        rec(0, 1, 10, 11), rec(2, 1, 14, 15), rec(3, 3, 16, 17),
    };
    GoldenReport rep = checkCommitsAgainstGolden(t, log, 64);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(GoldenChecker, RejectsWrongDestination)
{
    Trace t = tinyTrace();
    std::vector<CommitRecord> log = {
        rec(0, 1, 10, 11), rec(1, 7, 12, 13),
    };
    GoldenReport rep = checkCommitsAgainstGolden(t, log, 64);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.detail.find("dst"), std::string::npos)
        << rep.detail;
}

TEST(GoldenChecker, RejectsWawInversionOfAShelfWriter)
{
    Trace t = tinyTrace();
    // Index 2 redefines r1 on the shelf but "wrote back" before
    // index 0 (the previous r1 writer) completed: PRI reuse would
    // have clobbered the value consumers of index 0 still read.
    std::vector<CommitRecord> log = {
        rec(0, 1, 10, 11), rec(1, 2, 12, 13),
        rec(2, 1, 8, 14, true), rec(3, 3, 16, 17),
    };
    GoldenReport rep = checkCommitsAgainstGolden(t, log, 64);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.detail.find("WAW"), std::string::npos)
        << rep.detail;
}

TEST(GoldenChecker, RejectsRetireBeforeComplete)
{
    Trace t = tinyTrace();
    std::vector<CommitRecord> log = { rec(0, 1, 12, 11) };
    GoldenReport rep = checkCommitsAgainstGolden(t, log, 64);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.detail.find("before completing"),
              std::string::npos)
        << rep.detail;
}

TEST(GoldenChecker, RejectsOutOfOrderRetirementLog)
{
    Trace t = tinyTrace();
    std::vector<CommitRecord> log = {
        rec(1, 2, 12, 13), rec(0, 1, 10, 11),
    };
    GoldenReport rep = checkCommitsAgainstGolden(t, log, 64);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.detail.find("retirement order"),
              std::string::npos)
        << rep.detail;
}

TEST(GoldenModelTest, TracksPerRegisterWriterChains)
{
    Trace t = tinyTrace();
    GoldenModel g(t);
    auto s0 = g.step();
    EXPECT_EQ(s0.dst, 1);
    EXPECT_EQ(s0.prevWriter, GoldenModel::kNoWriter);
    auto s1 = g.step();
    EXPECT_EQ(s1.dst, 2);
    EXPECT_EQ(s1.prevWriter, GoldenModel::kNoWriter);
    auto s2 = g.step();
    EXPECT_EQ(s2.dst, 1);
    EXPECT_EQ(s2.prevWriter, 0u); // previous r1 writer: index 0
    auto s3 = g.step();
    EXPECT_EQ(s3.dst, 3);
    // The walk wraps like the core's fetch cursor.
    auto s4 = g.step();
    EXPECT_EQ(s4.dynIdx, 4u);
    EXPECT_EQ(s4.dst, 1);
    EXPECT_EQ(s4.prevWriter, 2u);
}

/** @} */

TEST(ConfigJson, RoundTripsEveryField)
{
    CoreParams p = shelfCore(8, true, SteerPolicyKind::Oracle);
    p.ssrDesign = SsrDesign::PerRun;
    p.memModel = CoreParams::MemModel::TSO;
    p.fetchPolicy = CoreParams::FetchPolicy::RoundRobin;
    p.shelfReleaseAtWriteback = true;
    p.adaptiveShelf = true;
    p.adaptiveEpochCycles = 999;
    p.interClusterDelay = 3;
    p.steerSlack = 4;
    p.rctBits = 7;
    p.pltColumns = 8;
    p.physRegs = 777;
    p.extTags = 1234;
    p.name = "round-trip";

    CoreParams q = coreParamsFromJson(coreParamsToJson(p));
    EXPECT_EQ(coreParamsToJson(q), coreParamsToJson(p));
    EXPECT_EQ(q.name, p.name);
    EXPECT_EQ(q.threads, p.threads);
    EXPECT_EQ(q.shelfEntries, p.shelfEntries);
    EXPECT_EQ(q.ssrDesign, p.ssrDesign);
    EXPECT_EQ(q.memModel, p.memModel);
    EXPECT_EQ(q.steering, p.steering);
    EXPECT_EQ(q.extTags, p.extTags);
}

TEST(ConfigJson, MissingFieldsKeepDefaults)
{
    CoreParams d;
    CoreParams p = coreParamsFromJson("{\"threads\": 2}");
    EXPECT_EQ(p.threads, 2u);
    EXPECT_EQ(p.robEntries, d.robEntries);
    EXPECT_EQ(p.ssrDesign, d.ssrDesign);
}

TEST(ConfigJson, UnknownKeyIsFatal)
{
    EXPECT_DEATH(coreParamsFromJson("{\"robEntrys\": 64}"),
                 "unknown key");
}

TEST(ConfigJson, MalformedDocumentIsFatal)
{
    EXPECT_DEATH(coreParamsFromJson("{\"threads\": 2"),
                 "unexpected end");
    EXPECT_DEATH(coreParamsFromJson("\"threads\""), "expected");
}

TEST(SweepJobSpec, RoundTripsCanonically)
{
    SweepJobSpec spec;
    spec.core = shelfCore(4, true);
    spec.mixBenchmarks = { 3, 1, 4, 1 };
    spec.warmupCycles = 123;
    spec.measureCycles = 456;
    spec.seed = 789;

    SweepJobSpec back = SweepJobSpec::fromJson(spec.toJson());
    // toJson is the journal identity key, so the round trip must be
    // byte-exact, not merely field-equal.
    EXPECT_EQ(back.toJson(), spec.toJson());
    EXPECT_EQ(back.mixBenchmarks, spec.mixBenchmarks);
    EXPECT_EQ(back.warmupCycles, 123u);
    EXPECT_EQ(back.measureCycles, 456u);
    EXPECT_EQ(back.seed, 789u);
    EXPECT_EQ(back.fault, "");
    EXPECT_EQ(coreParamsToJson(back.core),
              coreParamsToJson(spec.core));
}

TEST(SweepJobSpec, FaultFieldIsPreservedAndChangesKey)
{
    SweepJobSpec spec;
    spec.core = baseCore64(2);
    spec.mixBenchmarks = { 0, 1 };
    std::string clean = spec.toJson();
    spec.fault = "crash";
    std::string faulty = spec.toJson();
    EXPECT_NE(clean, faulty);
    EXPECT_EQ(SweepJobSpec::fromJson(faulty).fault, "crash");
}

TEST(SweepJobSpec, RejectsForeignAndInconsistentDocuments)
{
    // Not a sweep-job document at all.
    EXPECT_DEATH(SweepJobSpec::fromJson("{\"spec\":\"other\"}"),
                 "format marker");
    EXPECT_DEATH(SweepJobSpec::fromJson("[1,2]"), "");
    // Mix size must match the core's thread count.
    SweepJobSpec spec;
    spec.core = baseCore64(4);
    spec.mixBenchmarks = { 0, 1 }; // only 2 entries for 4 threads
    EXPECT_DEATH(SweepJobSpec::fromJson(spec.toJson()), "threads");
}

} // namespace
