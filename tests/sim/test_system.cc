/**
 * @file
 * End-to-end tests of the System driver and experiment helpers:
 * determinism, result sanity, STP methodology, and directional
 * checks of the paper's headline comparisons on small runs.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "base/json.hh"
#include "base/strutil.hh"
#include "metrics/throughput.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/spec2006.hh"

using namespace shelf;

namespace
{

SystemConfig
smallConfig(CoreParams core)
{
    SystemConfig cfg;
    cfg.core = core;
    cfg.benchmarks.assign(core.threads, "hmmer");
    if (core.threads >= 4)
        cfg.benchmarks = { "hmmer", "gcc", "milc", "povray" };
    cfg.warmupCycles = 1500;
    cfg.measureCycles = 6000;
    return cfg;
}

} // namespace

TEST(System, RunsAndProducesSaneResult)
{
    System sys(smallConfig(baseCore64(4)));
    SystemResult res = sys.run();
    EXPECT_EQ(res.cycles, 6000u);
    EXPECT_EQ(res.threads.size(), 4u);
    EXPECT_GT(res.totalIpc, 0.05);
    EXPECT_LE(res.totalIpc, 4.0);
    EXPECT_GE(res.inSeqFrac, 0.0);
    EXPECT_LE(res.inSeqFrac, 1.0);
    EXPECT_GT(res.energy.totalPJ, 0.0);
    EXPECT_GT(res.energy.edp, 0.0);
    for (const auto &t : res.threads)
        EXPECT_GT(t.instructions, 0u);
}

TEST(System, Deterministic)
{
    SystemResult a = System(smallConfig(baseCore64(4))).run();
    SystemResult b = System(smallConfig(baseCore64(4))).run();
    EXPECT_EQ(a.totalIpc, b.totalIpc);
    EXPECT_EQ(a.squashes, b.squashes);
    EXPECT_EQ(a.inSeqFrac, b.inSeqFrac);
    for (size_t t = 0; t < a.threads.size(); ++t)
        EXPECT_EQ(a.threads[t].instructions,
                  b.threads[t].instructions);
}

TEST(System, SeedChangesOutcome)
{
    SystemConfig cfg = smallConfig(baseCore64(4));
    SystemResult a = System(cfg).run();
    cfg.seed = 77;
    SystemResult b = System(cfg).run();
    EXPECT_NE(a.threads[0].instructions, b.threads[0].instructions);
}

TEST(System, MismatchedBenchmarksDie)
{
    SystemConfig cfg = smallConfig(baseCore64(4));
    cfg.benchmarks.pop_back();
    EXPECT_DEATH(System sys(cfg), "benchmarks");
}

TEST(System, ShelfConfigUsesShelf)
{
    SystemConfig cfg = smallConfig(shelfCore(4, true));
    SystemResult res = System(cfg).run();
    EXPECT_GT(res.shelfSteerFrac, 0.15);
    EXPECT_LT(res.shelfSteerFrac, 0.95);
}

TEST(System, MoreThreadsMoreInSequence)
{
    // Paper Figure 1 directional check at small scale.
    SystemConfig c1 = smallConfig(baseCore64(1));
    c1.benchmarks = { "gcc" };
    SystemConfig c4 = smallConfig(baseCore64(4));
    double f1 = System(c1).run().inSeqFrac;
    double f4 = System(c4).run().inSeqFrac;
    EXPECT_GT(f4, f1);
}

TEST(System, Base128BeatsBase64Throughput)
{
    SystemResult b64 = System(smallConfig(baseCore64(4))).run();
    SystemResult b128 = System(smallConfig(baseCore128(4))).run();
    EXPECT_GE(b128.totalIpc, b64.totalIpc * 0.98);
}

TEST(Experiment, StandardMixesShapedLikeThePaper)
{
    auto mixes = standardMixes(4);
    EXPECT_EQ(mixes.size(), 28u);
    for (const auto &m : mixes)
        EXPECT_EQ(m.benchmarks.size(), 4u);
}

TEST(Experiment, SimControlsScaleFromEnv)
{
    setenv("SHELFSIM_SCALE", "0.5", 1);
    SimControls ctl = SimControls::fromEnv();
    unsetenv("SHELFSIM_SCALE");
    SimControls def;
    EXPECT_EQ(ctl.measureCycles, def.measureCycles / 2);
}

TEST(Experiment, StReferenceCachesAndIsPositive)
{
    SimControls ctl;
    ctl.warmupCycles = 1000;
    ctl.measureCycles = 3000;
    STReference ref(ctl);
    double ipc1 = ref.ipc(spec2006Index("hmmer"));
    double ipc2 = ref.ipc(spec2006Index("hmmer"));
    EXPECT_GT(ipc1, 0.0);
    EXPECT_EQ(ipc1, ipc2);
}

TEST(Experiment, StpOfMixIsReasonable)
{
    SimControls ctl;
    ctl.warmupCycles = 1000;
    ctl.measureCycles = 4000;
    STReference ref(ctl);
    auto mixes = standardMixes(4);
    SystemResult res = runMix(baseCore64(4), mixes[0], ctl);
    double s = stpOf(res, mixes[0], ref);
    // 4 threads: STP within (0, 4].
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 4.0);
}

TEST(System, ExternalTracesUsedVerbatim)
{
    // Hand a tiny custom trace to the system; the committed work
    // must come from it (a pure serial ALU chain caps IPC near 1).
    SystemConfig cfg;
    cfg.core = baseCore64(1);
    cfg.benchmarks = { "custom" }; // label only
    cfg.warmupCycles = 200;
    cfg.measureCycles = 2000;
    Trace t;
    for (int i = 0; i < 12000; ++i) {
        TraceInst in;
        in.op = OpClass::IntAlu;
        in.dst = 0;
        in.src1 = 0;
        in.pc = 0x1000 + 4 * (i % 256);
        t.push_back(in);
    }
    cfg.externalTraces.push_back(std::move(t));
    SystemResult res = System(cfg).run();
    EXPECT_GT(res.totalIpc, 0.8);
    EXPECT_LE(res.totalIpc, 1.02);
}

TEST(System, ExternalTraceCountMismatchDies)
{
    SystemConfig cfg;
    cfg.core = baseCore64(2);
    cfg.benchmarks = { "gcc", "mcf" };
    cfg.externalTraces.resize(1);
    cfg.externalTraces[0].resize(10);
    EXPECT_DEATH(System sys(cfg), "external traces");
}

TEST(System, JsonExportWellFormedBasics)
{
    SystemResult res = System(smallConfig(baseCore64(4))).run();
    std::string json = res.toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"total_ipc\""), std::string::npos);
    EXPECT_NE(json.find("\"threads\":["), std::string::npos);
    EXPECT_NE(json.find("\"energy\""), std::string::npos);
}

TEST(System, StatsReportCoversKeyLines)
{
    System sys(smallConfig(shelfCore(4, true)));
    sys.run();
    std::string report = sys.statsReport();
    for (const char *key :
         { "sim.ipc", "classify.in_seq_frac", "stall.rob_full",
           "occ.shelf", "branch.mispredict_rate", "l1d.miss_rate",
           "energy.edp", "area.core" }) {
        EXPECT_NE(report.find(key), std::string::npos) << key;
    }
}

TEST(Metrics, StpAndAntt)
{
    std::vector<double> mt = { 0.5, 1.0 };
    std::vector<double> st = { 1.0, 2.0 };
    EXPECT_DOUBLE_EQ(stp(mt, st), 1.0);
    EXPECT_DOUBLE_EQ(antt(mt, st), 2.0);
}

TEST(Metrics, GeomeanAndMean)
{
    EXPECT_DOUBLE_EQ(geomean({ 1.0, 4.0 }), 2.0);
    EXPECT_DOUBLE_EQ(mean({ 1.0, 3.0 }), 2.0);
    EXPECT_DEATH(geomean({}), "empty");
    EXPECT_DEATH(geomean({ 1.0, -1.0 }), "non-positive");
}

TEST(System, ResultJsonRoundTripsAtFullPrecision)
{
    SystemResult res = System(smallConfig(baseCore64(2))).run();
    std::string json = res.toJson(JsonWriter::kFullPrecision);
    SystemResult back = SystemResult::fromJson(json);
    // Re-serializing the reconstruction must be byte-identical:
    // this is what lets isolated sweep workers and journal replays
    // produce the same bytes as in-process runs.
    EXPECT_EQ(back.toJson(JsonWriter::kFullPrecision), json);
    // Spot-check a few reconstructed fields directly.
    EXPECT_EQ(back.cycles, res.cycles);
    EXPECT_EQ(back.totalIpc, res.totalIpc);
    ASSERT_EQ(back.threads.size(), res.threads.size());
    EXPECT_EQ(back.threads[0].benchmark, res.threads[0].benchmark);
    EXPECT_EQ(back.threads[0].instructions,
              res.threads[0].instructions);
    EXPECT_EQ(back.energy.edp, res.energy.edp);
    EXPECT_EQ(back.events.fetchedInsts, res.events.fetchedInsts);
}

TEST(System, ResultFromJsonRejectsGarbage)
{
    EXPECT_DEATH(SystemResult::fromJson("not json"), "");
    EXPECT_DEATH(SystemResult::fromJson("{\"bogus_key\":1}"),
                 "unknown");
}

TEST(SimControlsEnv, ScaleRejectsGarbage)
{
    for (const char *bad : { "nan", "0", "-1", "0.5x", "", "inf" }) {
        setenv("SHELFSIM_SCALE", bad, 1);
        EXPECT_DEATH(SimControls::fromEnv(), "SHELFSIM_SCALE");
    }
    unsetenv("SHELFSIM_SCALE");
}

TEST(SimControlsEnv, ScaleScalesAndClampsTinyValues)
{
    setenv("SHELFSIM_SCALE", "0.5", 1);
    SimControls half = SimControls::fromEnv();
    EXPECT_EQ(half.warmupCycles, 2000u);
    EXPECT_EQ(half.measureCycles, 8000u);
    // A scale that rounds measured cycles to zero clamps to 1
    // instead of producing an instant no-op "simulation".
    setenv("SHELFSIM_SCALE", "1e-9", 1);
    SimControls tiny = SimControls::fromEnv();
    EXPECT_EQ(tiny.measureCycles, 1u);
    unsetenv("SHELFSIM_SCALE");
}

namespace
{

/**
 * Run the four Figure-10 configurations of standard mix @p m on
 * default windows, once sharing one WarmMemo and once without, and
 * require byte-identical results and stats reports. The first config
 * walks the functional warmup; the other three copy its state in, so
 * they materialise only what their timed run reads.
 */
void
expectSharedWarmupIdentical(uint64_t seed, size_t m)
{
    WorkloadMix mix = standardMixes(4)[m];
    std::vector<CoreParams> configs = { baseCore64(4), shelfCore(4, false),
                                        shelfCore(4, true),
                                        baseCore128(4) };
    SimControls shared, plain;
    shared.seed = plain.seed = seed;
    WarmMemo memo;
    shared.warmMemo = &memo;
    std::string key = System::warmKey(mixConfig(configs[0], mix, shared));
    ASSERT_FALSE(key.empty());
    for (const CoreParams &c : configs) {
        ASSERT_EQ(System::warmKey(mixConfig(c, mix, shared)), key);
        memo.expect(key);
    }

    for (size_t c = 0; c < configs.size(); ++c) {
        std::string label = csprintf("seed %llu mix %zu config %s",
                                     (unsigned long long)seed, m,
                                     configs[c].name.c_str());
        System with(mixConfig(configs[c], mix, shared));
        System without(mixConfig(configs[c], mix, plain));
        EXPECT_EQ(with.run().toJson(JsonWriter::kFullPrecision),
                  without.run().toJson(JsonWriter::kFullPrecision))
            << label;
        EXPECT_EQ(with.statsReport(), without.statsReport()) << label;

        for (unsigned t = 0; t < 4; ++t) {
            size_t read = with.core().fetchCursor(
                static_cast<ThreadID>(t));
            size_t got = with.source(t).materialised();
            EXPECT_GE(got, read) << label;
            if (c == 0) {
                size_t readChunks =
                    (read + InstSource::kChunkSize - 1) /
                    InstSource::kChunkSize * InstSource::kChunkSize;
                EXPECT_LE(got, std::max(System::kWarmupWalk, readChunks))
                    << label;
                EXPECT_GE(got, System::kWarmupWalk) << label;
            } else {
                EXPECT_LE(got, 16384u) << label;
            }
        }
    }
    EXPECT_EQ(memo.size(), 0u);
}

} // namespace

TEST(WarmMemo, SharedWarmupIsByteIdenticalSeed1)
{
    for (size_t m : { 0, 9, 18 })
        expectSharedWarmupIdentical(1, m);
}

TEST(WarmMemo, SharedWarmupIsByteIdenticalSeed2)
{
    for (size_t m : { 3, 14, 27 })
        expectSharedWarmupIdentical(2, m);
}

TEST(WarmMemo, DropsAnEntryAfterItsLastExpectedUser)
{
    HierarchyParams hp;
    MemHierarchy walked(hp), fresh(hp);
    GsharePredictor bpWalked(13, 4, 2), bpFresh(13, 4, 2);
    walked.warmData(0x1000);
    walked.warmInst(0x40000000);
    bpWalked.update(0, 0x40000000, true);

    WarmMemo memo;
    EXPECT_FALSE(memo.copyInto("k", fresh, bpFresh));
    // A key nobody expects is never stored.
    memo.publish("k", walked, bpWalked);
    EXPECT_EQ(memo.size(), 0u);

    memo.expect("k");
    memo.expect("k");
    memo.expect("k");
    EXPECT_FALSE(memo.copyInto("k", fresh, bpFresh));
    memo.publish("k", walked, bpWalked);
    EXPECT_EQ(memo.size(), 1u);
    EXPECT_TRUE(memo.copyInto("k", fresh, bpFresh));
    EXPECT_EQ(fresh.l1d().residentReadyAt(0x1000), 0u);
    EXPECT_EQ(fresh.l2().residentReadyAt(0x40000000), 0u);
    EXPECT_EQ(bpFresh.lookups.value(), bpWalked.lookups.value());
    EXPECT_EQ(memo.size(), 1u);
    MemHierarchy last(hp);
    GsharePredictor bpLast(13, 4, 2);
    EXPECT_TRUE(memo.copyInto("k", last, bpLast));
    EXPECT_EQ(memo.size(), 0u);
    EXPECT_FALSE(memo.copyInto("k", last, bpLast));
}

TEST(WarmMemo, KeyCoversWhatTheWalkReads)
{
    SystemConfig a = smallConfig(baseCore64(4));
    std::string key = System::warmKey(a);
    EXPECT_FALSE(key.empty());
    // Window structures do not enter the key...
    SystemConfig b = a;
    b.core = shelfCore(4, true);
    EXPECT_EQ(System::warmKey(b), key);
    // ...but every input of the walk does.
    SystemConfig seed = a;
    seed.seed = 2;
    SystemConfig bench = a;
    bench.benchmarks[3] = "mcf";
    SystemConfig len = a;
    len.traceLength = 1000;
    SystemConfig mem = a;
    mem.mem.l2.sizeKB = 1024;
    for (const SystemConfig *c : { &seed, &bench, &len, &mem })
        EXPECT_NE(System::warmKey(*c), key);
    // Systems that cannot share warm state have no key.
    SystemConfig cmp = a;
    cmp.numCores = 2;
    EXPECT_TRUE(System::warmKey(cmp).empty());
    SystemConfig traced = a;
    traced.externalTraces.assign(4, Trace());
    EXPECT_TRUE(System::warmKey(traced).empty());
}
