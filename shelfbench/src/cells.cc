#include "cells.hh"

#include <algorithm>
#include <memory>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "spans.hh"
#include "workload/generator.hh"
#include "workload/spec2006.hh"

namespace shelfbench
{

using namespace shelf;

namespace
{

SystemConfig
systemConfigOf(const Cell &cell)
{
    const validate::SweepJobSpec &spec = cell.spec;
    SystemConfig cfg;
    cfg.core = spec.core;
    cfg.seed = spec.seed;
    cfg.warmupCycles = spec.warmupCycles;
    cfg.measureCycles = spec.measureCycles;
    cfg.numCores = spec.numCores;
    cfg.allocation = spec.allocation;
    cfg.traceLength = cell.traceLength;
    for (size_t b : spec.mixBenchmarks)
        cfg.benchmarks.push_back(spec2006Profiles().at(b).name);
    return cfg;
}

} // namespace

CellOutcome
outcomeOf(const SystemResult &r)
{
    CellOutcome o;
    o.cycles = r.cycles;
    for (const ThreadResult &t : r.threads) {
        o.retired.push_back(t.instructions);
        o.ipc.push_back(t.ipc);
    }
    return o;
}

SystemResult
runSystem(const Cell &cell, int64_t cellId, double *runSeconds)
{
    std::unique_ptr<System> sys;
    {
        Span s("system.ctor", cellId);
        sys = std::make_unique<System>(systemConfigOf(cell));
    }
    Span s("system.run", cellId);
    auto t0 = Clock::now();
    SystemResult r = sys->run();
    if (runSeconds)
        *runSeconds = secondsSince(t0);
    return r;
}

CellOutcome
runDecomposed(const Cell &cell, int64_t cellId, LayerCounts &counts)
{
    // Mirrors System's single-core path step for step (same seeds,
    // address slices, trace length, warmup prefix and stat resets);
    // the benchmark checks that it retires exactly what
    // System::run retires for the same cell.
    SystemConfig cfg = systemConfigOf(cell);
    panic_if(cfg.numCores != 1, "decomposed cells are single-core");
    cfg.core.validate();
    size_t len = cfg.traceLength
        ? cfg.traceLength
        : static_cast<size_t>((cfg.warmupCycles + cfg.measureCycles) *
                              (cfg.core.issueWidth + 1));

    std::vector<Trace> traces;
    for (unsigned t = 0; t < cfg.benchmarks.size(); ++t) {
        Span s("workload.generate", cellId);
        TraceGenerator gen(spec2006Profile(cfg.benchmarks[t]),
                           cfg.seed * 1000003ULL + t,
                           static_cast<Addr>(t) << 30);
        traces.push_back(gen.generate(len));
        counts.generated += traces.back().size();
    }
    std::vector<const Trace *> ptrs;
    for (const Trace &tr : traces)
        ptrs.push_back(&tr);

    std::unique_ptr<MemHierarchy> mem;
    {
        Span s("mem.ctor", cellId);
        mem = std::make_unique<MemHierarchy>(cfg.mem);
    }
    std::unique_ptr<Core> core;
    {
        Span s("core.ctor", cellId);
        core = std::make_unique<Core>(cfg.core, *mem, ptrs);
    }
    {
        Span s("mem.warm", cellId);
        for (unsigned t = 0; t < traces.size(); ++t) {
            const Trace &tr = traces[t];
            size_t limit = std::min<size_t>(tr.size(), 65536);
            for (size_t i = 0; i < limit; ++i) {
                const TraceInst &inst = tr[i];
                mem->warmInst(inst.pc);
                if (inst.isMem())
                    mem->warmData(inst.addr);
                if (inst.isBranch())
                    core->branchPredictor().update(
                        static_cast<ThreadID>(t), inst.pc,
                        inst.taken);
            }
        }
        core->branchPredictor().lookups.reset();
        core->branchPredictor().mispredicts.reset();
    }
    auto t0 = Clock::now();
    {
        Span s("core.run", cellId);
        core->run(cfg.warmupCycles);
    }
    core->resetStats();
    mem->resetStats();
    {
        Span s("core.run", cellId);
        core->run(cfg.measureCycles);
    }
    counts.coreRunSeconds += secondsSince(t0);
    core->classify().finalize();

    const CoreStats &cs = core->coreStatistics();
    CellOutcome o;
    o.cycles = cs.cycles;
    for (unsigned t = 0; t < traces.size(); ++t) {
        o.retired.push_back(core->retired(static_cast<ThreadID>(t)));
        o.ipc.push_back(core->ipc(static_cast<ThreadID>(t)));
    }
    counts.retiredAll += cs.retiredAll;
    counts.coreCycles += core->cycle();
    counts.measuredCycles += cs.cycles;
    counts.quiesceSkipped += cs.quiesceSkippedCycles;
    counts.l1dAccesses += mem->l1d().accesses.value();
    counts.l1dMisses += mem->l1d().misses.value();
    counts.l2Accesses += mem->l2().accesses.value();
    counts.l2Misses += mem->l2().misses.value();
    counts.steeredShelf += core->steering().steeredToShelf.value();
    counts.steered += core->steering().steeredToShelf.value() +
        core->steering().steeredToIq.value();
    counts.robOccupancy += cs.robOccupancy.mean();
    return o;
}

std::string
fingerprintLine(const Cell &cell, const CellOutcome &o)
{
    std::string line = csprintf("%s|%llu|", cell.kind.c_str(),
                                (unsigned long long)o.cycles);
    for (uint64_t r : o.retired)
        line += csprintf("%llu,", (unsigned long long)r);
    return line + ";";
}

uint64_t
totalRetired(const CellOutcome &o)
{
    uint64_t sum = 0;
    for (uint64_t r : o.retired)
        sum += r;
    return sum;
}

} // namespace shelfbench
