#include "workload/generator.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace shelf
{

namespace
{
// Number of strided streams per thread.
constexpr size_t kNumStreams = 4;
// Integer destinations rotate over the first registers; the remainder
// act as long-lived values (stack pointer etc.) read occasionally.
constexpr unsigned kIntDstRegs = 12;
// FP destinations rotate over the first FP registers likewise.
constexpr unsigned kFpDstRegs = 24;
} // namespace

TraceGenerator::TraceGenerator(const BenchmarkProfile &profile,
                               uint64_t seed, Addr data_base)
    : prof(profile), rng(seed ^ 0xabcdef12345ULL), dataBase(data_base)
{
    prof.validate();
    if (prof.depGeoP < 1.0)
        depGeoLog = std::log1p(-prof.depGeoP);

    // Spread stream pointers across the working set; the extra odd
    // stagger keeps concurrent streams out of the same cache set.
    Addr ws_bytes = static_cast<Addr>(prof.workingSetKB) * 1024;
    for (size_t i = 0; i < kNumStreams; ++i) {
        Addr offset = ((ws_bytes / kNumStreams) * i + 2112 * i)
            % ws_bytes;
        streams.push_back(dataBase + offset);
    }

    // Code segment lives away from data. Branch PCs occupy the first
    // bytes of the region; sequential PCs cycle through the rest.
    codeBase = 0x40000000 + data_base;
    codeSize = 8 * 1024;
    pcCursor = codeBase + 4 * prof.staticBranches;

    // Static branches: biased (learnable) or data-dependent (random).
    for (unsigned i = 0; i < prof.staticBranches; ++i) {
        BranchCtx ctx;
        ctx.pc = codeBase + 4 * i;
        if (rng.chance(prof.branchRandomFrac))
            ctx.takenBias = -1.0;
        else
            ctx.takenBias = rng.chance(0.75) ? 0.96 : 0.04;
        branches.push_back(ctx);
    }
}

size_t
TraceGenerator::depDistance()
{
    if (prof.depGeoP >= 1.0)
        return 0;
    return rng.geometricLog(depGeoLog);
}

RegId
TraceGenerator::pickIntSource()
{
    // Long-lived values (base pointers, loop invariants) live in the
    // registers the destination rotation never touches; they are
    // always ready and break dependence chains.
    if (intWrites.empty() || rng.chance(prof.farFrac)) {
        return static_cast<RegId>(
            kIntDstRegs + rng.below(kNumIntRegs - kIntDstRegs));
    }
    size_t d = depDistance();
    if (d >= intWrites.size())
        d = intWrites.size() - 1;
    return intWrites[d];
}

RegId
TraceGenerator::pickFpSource()
{
    if (fpWrites.empty() || rng.chance(prof.farFrac)) {
        return static_cast<RegId>(
            kFirstFpReg + kFpDstRegs +
            rng.below(kNumFpRegs - kFpDstRegs));
    }
    size_t d = depDistance();
    if (d >= fpWrites.size())
        d = fpWrites.size() - 1;
    return fpWrites[d];
}

RegId
TraceGenerator::pickIntDest()
{
    // Rotate with a random skip to produce realistic WAW spacing.
    intDstCursor = (intDstCursor + 1 +
                    static_cast<unsigned>(rng.below(3))) % kIntDstRegs;
    RegId r = static_cast<RegId>(intDstCursor);
    intWrites.push(r);
    return r;
}

RegId
TraceGenerator::pickFpDest()
{
    fpDstCursor = (fpDstCursor + 1 +
                   static_cast<unsigned>(rng.below(5))) % kFpDstRegs;
    RegId r = static_cast<RegId>(kFirstFpReg + fpDstCursor);
    fpWrites.push(r);
    return r;
}

Addr
TraceGenerator::pickDataAddr(bool is_store)
{
    Addr ws_bytes = static_cast<Addr>(prof.workingSetKB) * 1024;
    if (rng.chance(prof.streamFrac)) {
        // Strided access on one of the streams.
        streamCursor = (streamCursor + 1) % streams.size();
        Addr a = streams[streamCursor];
        streams[streamCursor] += 8;
        if (streams[streamCursor] >= dataBase + ws_bytes)
            streams[streamCursor] = dataBase;
        return a & ~Addr(7);
    }
    // Random access within the footprint.
    return (dataBase + (rng.below(ws_bytes) & ~Addr(7)));
}

TraceInst
TraceGenerator::nextInst()
{
    TraceInst inst;

    // Sequential synthetic PC within the code footprint.
    pcCursor += 4;
    if (pcCursor >= codeBase + codeSize)
        pcCursor = codeBase + 4 * prof.staticBranches;
    inst.pc = pcCursor;

    double roll = rng.real();
    double acc = prof.loadFrac;

    if (roll < acc) {
        // ---- Load ----
        inst.op = OpClass::MemRead;
        inst.size = 8;
        bool chase = prof.pointerChaseFrac > 0 && lastLoadDst != kNoReg &&
            rng.chance(prof.pointerChaseFrac);
        if (chase) {
            // Address depends on the previous load's result; the access
            // itself lands randomly in the footprint (cache-hostile).
            inst.src1 = lastLoadDst;
            Addr ws_bytes = static_cast<Addr>(prof.workingSetKB) * 1024;
            inst.addr = dataBase + (rng.below(ws_bytes) & ~Addr(7));
        } else {
            inst.src1 = pickIntSource();
            inst.addr = pickDataAddr(false);
        }
        bool fp_dest = prof.fpFrac > 0 && rng.chance(prof.fpFrac);
        inst.dst = fp_dest ? pickFpDest() : pickIntDest();
        lastLoadDst = inst.dst;
        return inst;
    }

    acc += prof.storeFrac;
    if (roll < acc) {
        // ---- Store ----
        inst.op = OpClass::MemWrite;
        inst.size = 8;
        inst.src1 = pickIntSource(); // address register
        inst.src2 = (prof.fpFrac > 0 && rng.chance(prof.fpFrac))
            ? pickFpSource() : pickIntSource(); // value
        inst.addr = pickDataAddr(true);
        return inst;
    }

    acc += prof.branchFrac;
    if (roll < acc) {
        // ---- Conditional branch ----
        // Branches appear in loop-structured order: the next static
        // branch in sequence, with occasional control transfers to a
        // random point (function calls / data-dependent paths).
        inst.op = OpClass::Branch;
        if (rng.chance(0.08))
            branchCursor = static_cast<unsigned>(
                rng.below(branches.size()));
        const BranchCtx &ctx = branches[branchCursor];
        branchCursor = (branchCursor + 1) %
            static_cast<unsigned>(branches.size());
        inst.pc = ctx.pc;
        inst.src1 = pickIntSource();
        inst.taken = ctx.takenBias < 0 ? rng.chance(0.5)
                                       : rng.chance(ctx.takenBias);
        return inst;
    }

    acc += prof.mulFrac;
    if (roll < acc) {
        bool fp = prof.fpFrac > 0 && rng.chance(prof.fpFrac);
        inst.op = fp ? OpClass::FloatMult : OpClass::IntMult;
        inst.src1 = fp ? pickFpSource() : pickIntSource();
        if (!rng.chance(prof.immFrac))
            inst.src2 = fp ? pickFpSource() : pickIntSource();
        inst.dst = fp ? pickFpDest() : pickIntDest();
        return inst;
    }

    acc += prof.divFrac;
    if (roll < acc) {
        bool fp = prof.fpFrac > 0 && rng.chance(prof.fpFrac);
        inst.op = fp ? OpClass::FloatDiv : OpClass::IntDiv;
        inst.src1 = fp ? pickFpSource() : pickIntSource();
        inst.src2 = fp ? pickFpSource() : pickIntSource();
        inst.dst = fp ? pickFpDest() : pickIntDest();
        return inst;
    }

    // ---- Plain ALU work ----
    bool fp = prof.fpFrac > 0 && rng.chance(prof.fpFrac);
    inst.op = fp ? OpClass::FloatAdd : OpClass::IntAlu;
    // Serial expression chains: continue from the previous
    // instruction's destination with profile-controlled frequency.
    RegId chain_src = fp
        ? (fpWrites.empty() ? kNoReg : fpWrites.front())
        : (intWrites.empty() ? kNoReg : intWrites.front());
    if (chain_src != kNoReg && rng.chance(prof.serialChainFrac))
        inst.src1 = chain_src;
    else
        inst.src1 = fp ? pickFpSource() : pickIntSource();
    if (!rng.chance(prof.immFrac))
        inst.src2 = fp ? pickFpSource() : pickIntSource();
    inst.dst = fp ? pickFpDest() : pickIntDest();
    return inst;
}

Trace
TraceGenerator::generate(size_t n)
{
    Trace trace(n);
    generateInto(trace.data(), n);
    return trace;
}

void
TraceGenerator::generateInto(TraceInst *out, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = nextInst();
}

Trace
TraceGenerator::extractSubTrace(const BenchmarkProfile &profile,
                                uint64_t seed, Addr data_base,
                                size_t start, size_t len)
{
    TraceGenerator gen(profile, seed, data_base);
    Trace full = gen.generate(start + len);
    return Trace(full.begin() + static_cast<ptrdiff_t>(start),
                 full.end());
}

} // namespace shelf
