#include "core/core.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "diag/crash_dump.hh"
#include "validate/invariants.hh"

namespace shelf
{

namespace
{

/**
 * Upper bound on how far into the future the core ever schedules an
 * event: a full L1->L2->memory round trip (plus the MSHR-merge case,
 * which never exceeds a fresh miss), the longest FU latency, and the
 * branch-resolution/redirect tail, with slack for generated-trace
 * latency overrides. External traces with larger custom latencies
 * fall back to the calendar queue's overflow path.
 */
Cycle
eventHorizon(const CoreParams &p, const MemHierarchy &mem)
{
    const HierarchyParams &h = mem.params();
    Cycle miss = h.l1d.hitLatency + h.l2.hitLatency + h.memLatency;
    Cycle tail = p.branchResolveExtra + p.redirectPenalty +
        p.interClusterDelay + p.loadResolveDelay;
    return miss + tail + 64;
}

} // namespace

Core::Sources
Core::viewTraces(const std::vector<const Trace *> &traces)
{
    Sources s;
    for (const Trace *tr : traces) {
        if (!tr || tr->empty()) {
            s.ptrs.push_back(nullptr);
            continue;
        }
        s.owned.push_back(std::make_unique<InstSource>(*tr));
        s.ptrs.push_back(s.owned.back().get());
    }
    return s;
}

Core::Core(const CoreParams &params, MemHierarchy &mem_,
           std::vector<const Trace *> traces)
    : Core(params, mem_, viewTraces(traces))
{}

Core::Core(const CoreParams &params, MemHierarchy &mem_,
           std::vector<InstSource *> sources)
    : Core(params, mem_, Sources{ std::move(sources), {} })
{}

Core::Core(const CoreParams &params, MemHierarchy &mem_,
           Sources sources)
    : coreParams(params), mem(mem_),
      gshare(13, 4, params.threads),
      eventQueue(eventHorizon(params, mem_)),
      classifier(params.threads),
      recorder(params.flightRecorderEvents)
{
    coreParams.validate();
    fatal_if(sources.ptrs.size() != coreParams.threads,
             "%zu traces for %u threads", sources.ptrs.size(),
             coreParams.threads);
    fetchBufCap = coreParams.fetchBufferCapacity();

    rename = std::make_unique<RenameUnit>(
        coreParams.threads, coreParams.numPhysRegs(),
        coreParams.numExtTags());
    rob = std::make_unique<ROB>(coreParams.threads,
                                coreParams.robPerThread());
    shelfQ = std::make_unique<Shelf>(
        coreParams.threads, coreParams.shelfPerThread(),
        coreParams.shelfReleaseAtWriteback);
    iq = std::make_unique<IssueQueue>(coreParams.iqEntries,
                                      coreParams.numTags());
    scoreboard = std::make_unique<Scoreboard>(coreParams.numTags());
    ssr = std::make_unique<SpecShiftRegisters>(coreParams.threads,
                                               coreParams.ssrDesign);
    lsq = std::make_unique<LSQ>(coreParams.threads,
                                coreParams.lqPerThread(),
                                coreParams.sqPerThread());
    fuPool = std::make_unique<FUPool>(coreParams);

    SteerContext ctx;
    ctx.mem = &mem;
    ctx.sb = scoreboard.get();
    ctx.rename = rename.get();
    ctx.dcacheHitLatency = mem.params().l1d.hitLatency;
    ctx.branchResolveExtra = coreParams.branchResolveExtra;
    ctx.loadResolveDelay = coreParams.loadResolveDelay;
    ctx.steerSlack = coreParams.steerSlack;
    ctx.retiredCounter = &coreStats.retiredAll;
    steerPolicy = makeSteeringPolicy(coreParams, ctx);

    threads.resize(coreParams.threads);
    for (unsigned t = 0; t < coreParams.threads; ++t) {
        fatal_if(!sources.ptrs[t], "empty trace for thread %u", t);
        threads[t].source = sources.ptrs[t];
    }
    traceViews = std::move(sources.owned);

    coreStats.retired.assign(coreParams.threads, 0);

    // Shelf head-readiness cache: one entry per thread, waiter masks
    // over the full extended tag space. The per-tag waiter word
    // packs one bit per thread.
    fatal_if(shelfQ->enabled() && coreParams.threads > 64,
             "shelf waiter masks support at most 64 threads");
    shelfHeadCache.assign(coreParams.threads, ShelfHeadCache());
    shelfTagWaiters.assign(coreParams.numTags(), 0);
    loadMinLat = 1 + mem.params().l1d.hitLatency;

    // Register with the per-thread diag registry so the watchdog's
    // panic path and worker signal handlers can find this core.
    diagPrevCore = diag::setCurrentCore(this);
}

Core::~Core()
{
    diag::setCurrentCore(diagPrevCore);
}

void
Core::tracePipe(const char *stage, const DynInst &inst) const
{
    if (!traceSink)
        return;
    traceSink(csprintf("%8llu: t%d #%-6llu %-14s %s",
                       (unsigned long long)now, inst.tid,
                       (unsigned long long)inst.seq, stage,
                       inst.si.toString().c_str()));
}

void
Core::scheduleEvent(Cycle when, int kind, const DynInstPtr &inst)
{
    panic_if(when <= now, "event scheduled in the past");
    eventQueue.schedule(when, Event{inst->gseq, kind, inst});
}

void
Core::tick()
{
    ++now;

    if (wedgeAtCycle && now >= wedgeAtCycle)
        wedged = true;

    rob->beginCycle();
    fuPool->beginCycle();
    ssr->tick();
    steerPolicy->tick(now);

    commitStage();
    processEvents();
    issueStage();
    dispatchStage();
    fetchStage();

    ++coreStats.cycles;
    coreStats.iqOccupancy.sample(static_cast<double>(iq->size()));
    if (shelfQ->enabled()) {
        size_t occ = 0;
        for (unsigned t = 0; t < coreParams.threads; ++t)
            occ += shelfQ->size(static_cast<ThreadID>(t));
        coreStats.shelfOccupancy.sample(static_cast<double>(occ));
    }
    size_t rob_occ = 0;
    for (unsigned t = 0; t < coreParams.threads; ++t)
        rob_occ += rob->size(static_cast<ThreadID>(t));
    coreStats.robOccupancy.sample(static_cast<double>(rob_occ));

    if (coreParams.watchdogCycles)
        diagTick();

    if (checkInvariants)
        verifyInvariants();
}

void
Core::run(Cycle cycles)
{
    Cycle end = now + cycles;
    while (now < end)
        stepWithSkip(end);
}

void
Core::stepWithSkip(Cycle end)
{
    uint64_t sig = activitySignature();
    tick();
    if (coreParams.skipQuiescentCycles && now < end &&
        activitySignature() == sig)
        skipQuiescentSpan(end);
}

Cycle
Core::runUntilRetired(uint64_t per_thread, Cycle max_cycles)
{
    Cycle start = now;
    Cycle limit = max_cycles >= kCycleNever - start
        ? kCycleNever : start + max_cycles;
    bool skip = coreParams.skipQuiescentCycles;
    while (now < limit) {
        bool done = true;
        for (unsigned t = 0; t < coreParams.threads; ++t)
            done &= coreStats.retired[t] >= per_thread;
        if (done)
            break;
        uint64_t sig = activitySignature();
        tick();
        // Skipped cycles retire nothing, so the done-check ordering
        // is preserved.
        if (skip && now < limit && activitySignature() == sig)
            skipQuiescentSpan(limit);
    }
    return now - start;
}

Cycle
Core::quiescentWake()
{
    const Cycle no_skip = now + 1;

    // IQ first — on busy cycles its ready list disqualifies skipping
    // on the first entry, keeping the common-case attempt cheap. An
    // entry ready-but-blocked (FU, store set, cluster delay) reads
    // as ready <= now and forbids skipping altogether.
    Cycle wake = kCycleNever;
    Cycle iq_ready = iq->nextReadyCycle(no_skip);
    if (iq_ready <= no_skip)
        return no_skip;
    if (iq_ready != kCycleNever)
        wake = iq_ready;

    skipStallCounters.clear();
    skipRenameStalls.clear();

    unsigned nthreads = coreParams.threads;

    for (unsigned t = 0; t < nthreads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        ThreadState &ts = threads[tid];

        // Commit: a completed, un-gated ROB head retires next cycle
        // (the shelf retire-pointer gate can open only through
        // writeback events, so a gated head stays gated all span).
        if (!wedged) {
            DynInstPtr head = rob->head(tid);
            if (head && head->completed &&
                !(shelfQ->enabled() &&
                  shelfQ->retirePointer(tid) < head->shelfSquashIdx)) {
                return no_skip;
            }
        }

        // Dispatch: the front instruction acts the cycle it becomes
        // decode-ready, unless a structural stall — whose inputs are
        // all frozen while no event fires — holds it; then it
        // charges one stall counter per cycle instead.
        if (!ts.frontend.empty()) {
            const DynInstPtr &front = ts.frontend.front();
            Cycle decode_at =
                front->fetchCycle + coreParams.fetchToDispatch;
            if (decode_at > now) {
                wake = std::min(wake, decode_at);
            } else {
                if (!front->steerDecided)
                    return no_skip; // steering is stateful
                stats::Scalar *ren = nullptr;
                uint64_t *ctr =
                    dispatchStallCounter(tid, *front, &ren);
                if (!ctr)
                    return no_skip;
                skipStallCounters.push_back(ctr);
                if (ren)
                    skipRenameStalls.push_back(ren);
            }
        }

        // Fetch: acts (cache access, at least) as soon as its stall
        // expires while the frontend buffer has room.
        if (ts.frontend.size() < fetchBufCap)
            wake = std::min(wake,
                            std::max(ts.fetchStallUntil, no_skip));

        // Shelf head: the readiness cache knows the earliest eligible
        // cycle; a head with pending operands (or out of order) wakes
        // only through writeback events / IQ issues, both span-enders.
        if (shelfQ->enabled()) {
            DynInstPtr head = shelfQ->head(tid);
            if (head) {
                const ShelfHeadCache &hc = shelfHeadCache[tid];
                if (hc.inst != head.get())
                    return no_skip; // cache not refreshed this cycle
                // The in-order frontier is frozen during a span (it
                // moves only on IQ issue), so both the optimistic and
                // the conservative design see today's issue head.
                if (rob->issueHead(tid) >= head->robTailAtDispatch) {
                    if (head->firstInRun && !head->ssrLoaded)
                        return no_skip; // SSR run latch still pending
                    if (!hc.pendingOps) {
                        Cycle w = hc.operandsReadyAt;
                        if (hc.ssrValid) {
                            w = std::max(w, hc.ssrEligibleAt);
                        } else {
                            unsigned v =
                                ssr->shelfValue(tid, head->runId);
                            if (v > hc.minLat)
                                w = std::max(w,
                                             now + (v - hc.minLat));
                        }
                        wake = std::min(wake, std::max(w, no_skip));
                    }
                }
            }
        }
    }

    // Never skip across the forward-progress watchdog boundary: the
    // panic and its deadlock report must fire on a real tick.
    if (coreParams.watchdogCycles) {
        Cycle panic_at =
            watchdogLastProgress + coreParams.watchdogCycles;
        wake = std::min(wake, std::max(panic_at, no_skip));
    }

    return wake;
}

uint64_t *
Core::dispatchStallCounter(ThreadID tid, const DynInst &inst,
                           stats::Scalar **rename_ctr)
{
    // Mirror of dispatchStage()'s structural checks, in order; keep
    // the two in sync.
    *rename_ctr = nullptr;
    auto &stalls = coreStats.dispatchStalls;
    bool tso = coreParams.memModel == CoreParams::MemModel::TSO;
    if (inst.toShelf) {
        if (!shelfQ->canDispatch(tid))
            return &stalls.shelfFull;
        if (tso && inst.isStore() && lsq->sqFull(tid))
            return &stalls.sqFull;
        if (!rename->canRename(inst)) {
            *rename_ctr = &rename->extStalls;
            return &stalls.extTags;
        }
    } else {
        if (iq->full())
            return &stalls.iqFull;
        if (rob->full(tid))
            return &stalls.robFull;
        if (inst.isLoad() && lsq->lqFull(tid))
            return &stalls.lqFull;
        if (inst.isStore() && lsq->sqFull(tid))
            return &stalls.sqFull;
        if (!rename->canRename(inst)) {
            *rename_ctr = &rename->physStalls;
            return &stalls.physRegs;
        }
    }
    return nullptr;
}

void
Core::skipQuiescentSpan(Cycle limit)
{
    bool tso = coreParams.memModel == CoreParams::MemModel::TSO;

    // A cycle is inert when every event due on it drains to nothing:
    // squashed (dropped silently) or a shelf retirement that stays
    // blocked and re-arms. Inertness is stable across a span: elder
    // loads complete only through events, which end the span first,
    // and the wedge only ever turns on.
    auto inertAt = [&](Cycle c) {
        bool c_wedged = wedged ||
            (wedgeAtCycle && c >= wedgeAtCycle);
        for (const Event &ev : eventQueue.peekAt(c)) {
            if (ev.inst->squashed)
                continue;
            if (ev.kind == kShelfRetire &&
                (c_wedged ||
                 (tso && elderIncompleteLoad(*ev.inst)))) {
                continue;
            }
            return false;
        }
        return true;
    };

    // The dominant reason a dead cycle can't start a span is an
    // event (usually a writeback) due on the very next one; test
    // that bucket before paying for the full wake scan.
    if (eventQueue.overflowDueBy(now + 1) || !inertAt(now + 1))
        return;

    Cycle wake = quiescentWake();
    if (wake <= now + 1)
        return;

    // Phase 1: find the span end — the last cycle before `wake`
    // (bounded by the run limit and the event ring's unambiguous
    // window) all of whose due events are inert.
    Cycle last = std::min(wake - 1, limit);
    last = std::min(last, now + eventQueue.window());
    Cycle end = now + 1; // proven inert above
    while (end < last) {
        Cycle c = end + 1;
        if (eventQueue.overflowDueBy(c) || !inertAt(c))
            break;
        end = c;
    }

    Cycle first = now + 1;
    uint64_t skipped = end - now;

    // Phase 2: reproduce, in batch, exactly the state real ticks
    // would leave behind on cycles where no stage acts.

    // Event queue: advance the cursor over the span in one step. A
    // blocked shelf retirement re-arms cycle by cycle in a real run
    // and ends the span scheduled one cycle past its end, so one
    // re-arm at end+1 leaves the identical queue. (processEvents
    // sorts by unique gseq, so bucket insertion order is
    // immaterial.)
    dueEvents.clear();
    eventQueue.skipTo(end, dueEvents);
    now = end;
    for (const Event &ev : dueEvents) {
        if (ev.inst->squashed)
            continue;
        scheduleEvent(now + 1, kShelfRetire, ev.inst);
    }

    // SSR decay and steering-counter decay have coupled per-cycle
    // dynamics (freeze bits depend on counters crossing zero); run
    // them cycle by cycle — cheap after the SoA rewrites.
    for (Cycle c = first; c <= end; ++c) {
        ssr->tick();
        steerPolicy->tick(c);
    }

    // Wedge arming and the commit round-robin cursor: commitStage
    // scans every thread on a cycle where nothing retires, and is
    // skipped entirely from the arming cycle on. (Batched cursor
    // addition wraps identically to per-cycle increments.)
    uint64_t unwedged_cycles = skipped;
    if (wedged) {
        unwedged_cycles = 0;
    } else if (wedgeAtCycle && end >= wedgeAtCycle) {
        unwedged_cycles = std::max(first, wedgeAtCycle) - first;
        wedged = true;
    }
    commitRR += static_cast<unsigned>(
        unwedged_cycles * coreParams.threads);
    dispatchRR += static_cast<unsigned>(skipped);

    // Structurally-blocked decode-ready front instructions charge
    // their stall counter every cycle (integer-exact batching).
    for (uint64_t *ctr : skipStallCounters)
        *ctr += skipped;
    for (stats::Scalar *ctr : skipRenameStalls)
        *ctr += static_cast<double>(skipped);

    // Per-cycle stats: the sampled values are frozen across the
    // span, and sampleN() is bit-identical for these integer values.
    coreStats.cycles += skipped;
    coreStats.iqOccupancy.sampleN(
        static_cast<double>(iq->size()), skipped);
    if (shelfQ->enabled()) {
        size_t occ = 0;
        for (unsigned t = 0; t < coreParams.threads; ++t)
            occ += shelfQ->size(static_cast<ThreadID>(t));
        coreStats.shelfOccupancy.sampleN(
            static_cast<double>(occ), skipped);
    }
    size_t rob_occ = 0;
    for (unsigned t = 0; t < coreParams.threads; ++t)
        rob_occ += rob->size(static_cast<ThreadID>(t));
    coreStats.robOccupancy.sampleN(
        static_cast<double>(rob_occ), skipped);

    coreStats.quiesceSkippedCycles += skipped;
    ++coreStats.quiesceSpans;
    recorder.record(first, diag::PipeEvent::QuiesceSkip, 0,
                    static_cast<SeqNum>(skipped), false);
}

void
Core::resetStats()
{
    coreStats.cycles = 0;
    std::fill(coreStats.retired.begin(), coreStats.retired.end(), 0);
    coreStats.squashes = 0;
    coreStats.branchSquashes = 0;
    coreStats.memOrderSquashes = 0;
    coreStats.dispatchStalls.reset();
    coreStats.iqOccupancy.reset();
    coreStats.shelfOccupancy.reset();
    coreStats.robOccupancy.reset();
    coreStats.quiesceSkippedCycles = 0;
    coreStats.quiesceSpans = 0;
    classifier.reset();
    events.reset();
    lsq->lqSearches.reset();
    lsq->sqSearches.reset();
    lsq->forwards.reset();
    lsq->coalesces.reset();
    lsq->violations.reset();
    steerPolicy->steeredToShelf.reset();
    steerPolicy->steeredToIq.reset();
    gshare.lookups.reset();
    gshare.mispredicts.reset();
    storeSets.violations.reset();
}

double
Core::ipc(ThreadID tid) const
{
    return coreStats.cycles
        ? static_cast<double>(coreStats.retired[tid]) /
          static_cast<double>(coreStats.cycles)
        : 0.0;
}

double
Core::totalIpc() const
{
    return coreStats.cycles
        ? static_cast<double>(coreStats.totalRetired()) /
          static_cast<double>(coreStats.cycles)
        : 0.0;
}

void
Core::commitStage()
{
    if (wedged)
        return; // injected fault: retirement is stalled
    unsigned budget = coreParams.commitWidth;
    unsigned tried = 0;
    unsigned nthreads = coreParams.threads;
    while (budget > 0 && tried < nthreads) {
        ThreadID tid = static_cast<ThreadID>(commitRR % nthreads);
        DynInstPtr head = rob->head(tid);
        bool progressed = false;
        while (budget > 0 && head) {
            if (!head->completed)
                break;
            if (shelfQ->enabled() &&
                shelfQ->retirePointer(tid) < head->shelfSquashIdx) {
                // ROB may not retire past unretired elder shelf
                // instructions (paper section III-B).
                break;
            }
            rob->retireHead(tid);
            if (head->isLoad()) {
                lsq->retireLoad(tid, head);
                threads[tid].incompleteLoads.erase(head->seq);
            }
            if (head->isStore()) {
                storesByGseq.erase(head->gseq);
                // Drain via the store buffer into the cache.
                mem.accessData(head->si.addr, true, now);
            }
            rename->retire(*head);
            head->retired = true;
            head->retireCycle = now;
            tracePipe("retire", *head);
            recorder.record(now, diag::PipeEvent::Retire, tid,
                            head->seq, false);
            classifier.recordRetire(*head);
            logRetire(*head);
            if (head->isStore())
                lsq->drainRetiredStores(tid);
            ++coreStats.retired[tid];
            ++coreStats.retiredAll;
            ++events.robRetires;
            --budget;
            progressed = true;
            head = rob->head(tid);
        }
        cleanupInflight(threads[tid]);
        ++tried;
        ++commitRR;
        if (progressed)
            tried = 0;
    }
}

void
Core::processEvents()
{
    dueEvents.clear();
    eventQueue.drain(now, dueEvents);
    if (dueEvents.empty())
        return;
    // Program/fetch order within a cycle: elder instructions act
    // first, so a store's violation check precedes the writeback of
    // any younger shelf instruction (the squash filter of III-B).
    std::stable_sort(dueEvents.begin(), dueEvents.end(),
                     [](const Event &a, const Event &b) {
                         return a.gseq < b.gseq;
                     });
    for (const Event &ev : dueEvents) {
        if (ev.inst->squashed)
            continue;
        if (ev.kind == kExecuteMem)
            executeMemEvent(ev.inst);
        else if (ev.kind == kShelfRetire)
            tryShelfRetire(ev.inst);
        else
            completeEvent(ev.inst);
    }
}

void
Core::completeEvent(const DynInstPtr &inst)
{
    inst->completed = true;
    inst->completeCycle = now;
    tracePipe("complete", *inst);
    recorder.record(now, diag::PipeEvent::Writeback, inst->tid,
                    inst->seq, inst->toShelf);

    if (inst->isLoad())
        threads[inst->tid].incompleteLoads.erase(inst->seq);

    if (inst->hasDst())
        ++events.prfWrites;

    // Wakeup broadcast energy: one CAM compare per occupied IQ entry.
    events.iqWakeupCompares += iq->size();

    if (inst->isLoad())
        steerPolicy->loadCompleted(*inst);

    if (inst->isBranch() && inst->mispredictedBranch) {
        // Resolution: squash younger instructions and redirect.
        ++coreStats.branchSquashes;
        squashThread(inst->tid, inst->seq, inst->traceIdx + 1,
                     now + coreParams.branchResolveExtra +
                         coreParams.redirectPenalty);
    }

    if (inst->toShelf)
        tryShelfRetire(inst);
}

bool
Core::elderIncompleteLoad(const DynInst &inst) const
{
    const auto &loads = threads[inst.tid].incompleteLoads;
    return !loads.empty() && *loads.begin() < inst.seq;
}

void
Core::tryShelfRetire(const DynInstPtr &inst)
{
    // Under TSO every instruction is speculative while an elder load
    // has not completed; a shelf instruction may not write back (and
    // destroy the previous register value) until then (section
    // III-D). The relaxed model retires immediately.
    if (wedged ||
        (coreParams.memModel == CoreParams::MemModel::TSO &&
         elderIncompleteLoad(*inst))) {
        scheduleEvent(now + 1, kShelfRetire, inst);
        return;
    }
    retireShelfInst(inst);
}

void
Core::retireShelfInst(const DynInstPtr &inst)
{
    // Shelf instructions retire at writeback, out of program order
    // with respect to the ROB (paper section III-B).
    panic_if(inst->squashed, "retiring squashed shelf instruction");
    shelfQ->markRetired(inst->tid, inst->shelfIdx);
    rename->retire(*inst);
    inst->retired = true;
    inst->retireCycle = now;
    tracePipe("retire(shelf)", *inst);
    recorder.record(now, diag::PipeEvent::Retire, inst->tid,
                    inst->seq, true);
    classifier.recordRetire(*inst);
    logRetire(*inst);
    if (inst->isStore()) {
        storesByGseq.erase(inst->gseq);
        if (coreParams.memModel == CoreParams::MemModel::TSO)
            lsq->drainRetiredStores(inst->tid);
    }
    ++coreStats.retired[inst->tid];
    ++coreStats.retiredAll;
    cleanupInflight(threads[inst->tid]);
}

void
Core::cleanupInflight(ThreadState &ts)
{
    while (!ts.inflight.empty() &&
           (ts.inflight.front()->retired ||
            ts.inflight.front()->squashed)) {
        ts.inflight.pop_front();
    }
}

bool
Core::eldestUnissued(const ThreadState &ts,
                     const DynInstPtr &inst) const
{
    for (const auto &elder : ts.inflight) {
        if (elder->squashed || elder->issued)
            continue;
        return elder == inst;
    }
    return false;
}

void
Core::verifyInvariants() const
{
    // The named checks live in validate/invariants.cc; this wrapper
    // keeps setCheckInvariants() a hard assertion for tests.
    auto failures = validate::InvariantChecker::runAll(*this);
    if (!failures.empty()) {
        panic("invariant '%s' violated at cycle %llu: %s",
              failures.front().check.c_str(),
              (unsigned long long)now,
              failures.front().detail.c_str());
    }
}

} // namespace shelf
