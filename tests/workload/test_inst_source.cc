/**
 * @file
 * Tests for the lazily generated instruction source: it must read
 * exactly what TraceGenerator::generate(len) produces, wrap at len,
 * keep references stable while it grows, and materialise only what
 * has been read. Also pins the hoisted-log geometric sampler to the
 * plain one.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "base/random.hh"
#include "workload/generator.hh"
#include "workload/inst_source.hh"
#include "workload/spec2006.hh"

using namespace shelf;

namespace
{

bool
sameInst(const TraceInst &a, const TraceInst &b)
{
    return a.pc == b.pc && a.op == b.op && a.src1 == b.src1 &&
        a.src2 == b.src2 && a.dst == b.dst && a.latency == b.latency &&
        a.addr == b.addr && a.size == b.size && a.taken == b.taken;
}

} // namespace

TEST(InstSource, MatchesGenerateIncludingTheWrap)
{
    // A length that ends mid-chunk exercises the short last chunk.
    const size_t len = 2 * InstSource::kChunkSize + 1234;
    for (const char *name : { "gcc", "mcf", "lbm" }) {
        const BenchmarkProfile &prof = spec2006Profile(name);
        Trace ref = TraceGenerator(prof, 7 * 1000003ULL + 2,
                                   Addr(2) << 30).generate(len);
        InstSource src(prof, 7 * 1000003ULL + 2, Addr(2) << 30, len);
        EXPECT_EQ(src.length(), len);
        for (uint64_t i = 0; i < 2 * len; ++i) {
            ASSERT_TRUE(sameInst(src.at(i), ref[i % len]))
                << name << " index " << i;
        }
        EXPECT_EQ(src.materialised(), len);
    }
}

TEST(InstSource, ReferencesSurviveExtension)
{
    const BenchmarkProfile &prof = spec2006Profile("hmmer");
    const size_t len = 100000;
    Trace ref = TraceGenerator(prof, 11, 0).generate(len);
    InstSource src(prof, 11, 0, len);

    const TraceInst &held = src.at(10);
    const TraceInst *addr = &held;
    TraceInst copy = held;
    EXPECT_EQ(src.materialised(), InstSource::kChunkSize);

    // Grow the stream by many chunks, then read back out of order.
    EXPECT_TRUE(sameInst(src.at(9 * InstSource::kChunkSize + 5),
                         ref[9 * InstSource::kChunkSize + 5]));
    EXPECT_EQ(src.materialised(), 10 * InstSource::kChunkSize);
    EXPECT_EQ(&src.at(10), addr);
    EXPECT_TRUE(sameInst(held, copy));
    EXPECT_TRUE(sameInst(held, ref[10]));
    EXPECT_TRUE(sameInst(src.at(3), ref[3]));
}

TEST(InstSource, MaterialisesOnlyWhatIsRead)
{
    InstSource src(spec2006Profile("milc"), 3, 0, 1000000);
    EXPECT_EQ(src.materialised(), 0u);
    src.at(0);
    EXPECT_EQ(src.materialised(), InstSource::kChunkSize);
    src.at(InstSource::kChunkSize);
    EXPECT_EQ(src.materialised(), 2 * InstSource::kChunkSize);
    // A cursor past the length reads its wrapped index.
    src.at(1000000 + 5);
    EXPECT_EQ(src.materialised(), 2 * InstSource::kChunkSize);
}

TEST(InstSource, ViewsAnExistingTraceInPlace)
{
    Trace tr = TraceGenerator(spec2006Profile("gobmk"), 5, 0)
                   .generate(InstSource::kChunkSize + 17);
    InstSource src(tr);
    EXPECT_EQ(src.length(), tr.size());
    EXPECT_EQ(src.materialised(), tr.size());
    for (uint64_t i = 0; i < 2 * tr.size(); ++i)
        ASSERT_EQ(&src.at(i), &tr[i % tr.size()]) << i;
}

TEST(InstSource, GenerateIntoContinuesTheStream)
{
    const BenchmarkProfile &prof = spec2006Profile("sjeng");
    Trace ref = TraceGenerator(prof, 21, 0).generate(3000);
    TraceGenerator gen(prof, 21, 0);
    Trace head = gen.generate(1000);
    Trace tail(2000);
    gen.generateInto(tail.data(), tail.size());
    for (size_t i = 0; i < 1000; ++i)
        ASSERT_TRUE(sameInst(head[i], ref[i])) << i;
    for (size_t i = 0; i < 2000; ++i)
        ASSERT_TRUE(sameInst(tail[i], ref[1000 + i])) << i;
}

TEST(Random, GeometricLogMatchesGeometric)
{
    for (double p : { 0.05, 0.35, 0.6, 0.999 }) {
        Random a(1234), b(1234);
        double lg = std::log1p(-p);
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(a.geometric(p), b.geometricLog(lg)) << p;
        EXPECT_EQ(a.next(), b.next());
    }
}
