/**
 * @file
 * The SMT out-of-order core model with the hybrid shelf/IQ
 * instruction window.
 *
 * Pipeline: fetch (ICOUNT) -> decode/steer -> rename (dual RAT) ->
 * dispatch (ROB/IQ/LSQ or shelf) -> issue (IQ select + in-order shelf
 * heads) -> execute (FUs, LSQ, caches) -> writeback -> commit.
 *
 * The model is execution-driven over deterministic synthetic traces;
 * squash recovery re-fetches from the trace. Mispredicted branches
 * squash younger in-flight instructions at resolution; memory-order
 * violations flush and restart at the offending load (paper section
 * III-D). Every mechanism of the paper's hybrid window is modelled:
 * issue-tracking bitvector, two SSRs per thread, shelf squash index
 * and retire pointer with doubled index space, extended tag space,
 * and LQ/SQ-less shelf memory operations.
 */

#ifndef SHELFSIM_CORE_CORE_HH
#define SHELFSIM_CORE_CORE_HH

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "base/stats.hh"
#include "branch/gshare.hh"
#include "branch/store_sets.hh"
#include "core/classify.hh"
#include "core/dyn_inst.hh"
#include "core/event_queue.hh"
#include "core/fu_pool.hh"
#include "core/iq.hh"
#include "core/lsq.hh"
#include "core/params.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "core/scoreboard.hh"
#include "core/shelf.hh"
#include "core/ssr.hh"
#include "core/steer/steering.hh"
#include "diag/flight_recorder.hh"
#include "mem/hierarchy.hh"
#include "workload/generator.hh"
#include "workload/inst_source.hh"

namespace shelf
{

class JsonWriter;

namespace validate
{
class InvariantChecker;
} // namespace validate

/**
 * Microarchitectural event counts consumed by the energy model.
 * Counters cover the access types whose dynamic energy McPAT-style
 * models charge.
 */
struct EventCounts
{
    uint64_t fetchedInsts = 0;
    uint64_t decodedInsts = 0;
    uint64_t renameOps = 0;
    uint64_t iqWrites = 0;
    uint64_t iqWakeupCompares = 0; ///< broadcasts x IQ occupancy
    uint64_t iqIssues = 0;
    uint64_t shelfWrites = 0;
    uint64_t shelfIssues = 0;
    uint64_t robWrites = 0;
    uint64_t robRetires = 0;
    uint64_t prfReads = 0;
    uint64_t prfWrites = 0;
    uint64_t lqWrites = 0;
    uint64_t sqWrites = 0;
    uint64_t lsqSearches = 0;
    uint64_t fuOps = 0;
    uint64_t ssrUpdates = 0;
    uint64_t steerEvals = 0;
    uint64_t squashedInsts = 0;

    void reset() { *this = EventCounts(); }
};

/** Dispatch-stall attribution (cycles x threads blocked, by the
 * first structural reason encountered). */
struct DispatchStalls
{
    uint64_t iqFull = 0;
    uint64_t robFull = 0;
    uint64_t lqFull = 0;
    uint64_t sqFull = 0;
    uint64_t shelfFull = 0;
    uint64_t physRegs = 0;
    uint64_t extTags = 0;

    void reset() { *this = DispatchStalls(); }
};

/** Aggregate performance statistics. */
struct CoreStats
{
    Cycle cycles = 0;
    std::vector<uint64_t> retired;   ///< per thread
    /** Monotonic total (NOT reset with statistics; feeds the
     * adaptive steering controller). */
    uint64_t retiredAll = 0;
    uint64_t squashes = 0;
    uint64_t branchSquashes = 0;
    uint64_t memOrderSquashes = 0;
    DispatchStalls dispatchStalls;
    stats::Average iqOccupancy;
    stats::Average shelfOccupancy;
    stats::Average robOccupancy;
    /** Quiescent cycles fast-forwarded instead of ticked, and the
     * number of contiguous spans (simulator diagnostics; the skipped
     * cycles are still counted in `cycles` and every stat). */
    uint64_t quiesceSkippedCycles = 0;
    uint64_t quiesceSpans = 0;

    uint64_t
    totalRetired() const
    {
        uint64_t sum = 0;
        for (uint64_t r : retired)
            sum += r;
        return sum;
    }
};

class Core
{
  public:
    /**
     * @param params core configuration
     * @param mem shared cache hierarchy (externally owned)
     * @param traces one trace per hardware thread (externally owned;
     *        threads wrap around at the end of their trace)
     */
    Core(const CoreParams &params, MemHierarchy &mem,
         std::vector<const Trace *> traces);

    /**
     * @param sources one instruction source per hardware thread
     *        (externally owned; the core extends them as it fetches)
     */
    Core(const CoreParams &params, MemHierarchy &mem,
         std::vector<InstSource *> sources);
    ~Core();

    /** Advance one cycle. */
    void tick();

    /** Run for @p cycles cycles. */
    void run(Cycle cycles);

    /**
     * Advance exactly one tick toward @p end, then fast-forward any
     * quiescent span the tick exposes (never past @p end). This is
     * the body of run()'s loop; the multi-core system loop calls it
     * directly so cores interleave at cycle granularity while each
     * keeps its own quiescent-skip semantics — a quiescent core
     * touches no shared memory-hierarchy state during its span, so
     * skipping it locally cannot reorder cross-core interactions.
     */
    void stepWithSkip(Cycle end);

    /**
     * Run until every thread has retired @p per_thread instructions
     * or @p max_cycles elapse; returns the cycle count executed.
     */
    Cycle runUntilRetired(uint64_t per_thread, Cycle max_cycles);

    /** Zero all statistics (end of warmup). */
    void resetStats();

    Cycle cycle() const { return now; }
    const CoreParams &params() const { return coreParams; }

    uint64_t retired(ThreadID tid) const
    {
        return coreStats.retired[tid];
    }
    double ipc(ThreadID tid) const;
    double totalIpc() const;

    CoreStats &statsRef() { return coreStats; }
    const CoreStats &coreStatistics() const { return coreStats; }
    EventCounts &eventCounts() { return events; }
    Classifier &classify() { return classifier; }
    SteeringPolicy &steering() { return *steerPolicy; }
    GsharePredictor &branchPredictor() { return gshare; }
    const RenameUnit &renameUnit() const { return *rename; }
    const LSQ &lsqUnit() const { return *lsq; }
    const Shelf &shelfUnit() const { return *shelfQ; }
    const IssueQueue &iqUnit() const { return *iq; }

    /** Enable expensive per-cycle invariant checking (tests). */
    void setCheckInvariants(bool on) { checkInvariants = on; }

    /**
     * Observer invoked for every retiring instruction, in retirement
     * order (ROB and shelf retirement interleave). Drives the golden
     * functional model's commit-stream comparison (src/validate);
     * pass an empty function to disable. The observer must outlive
     * the core. Unset, this costs one branch per retire.
     */
    using CommitObserver = std::function<void(const DynInst &)>;
    void
    setCommitObserver(CommitObserver obs)
    {
        commitObserver = std::move(obs);
    }

    /**
     * Second, independent retire-stream tap. The golden model owns
     * the commit observer slot, so trace self-capture
     * (workload/trace_capture) gets its own — both may be armed at
     * once. Same ordering and lifetime rules as the observer.
     */
    void setRetireTap(CommitObserver tap) { retireTap = std::move(tap); }

    /**
     * Record the first @p n retired (thread, trace-index) pairs per
     * thread. Used by differential tests: any configuration must
     * retire exactly the same per-thread instruction sequence.
     */
    void
    setRetireLog(size_t n)
    {
        retireLogLimit = n;
        retireLog.assign(coreParams.threads, {});
    }

    const std::vector<uint64_t> &
    retiredTraceIndices(ThreadID tid) const
    {
        return retireLog[tid];
    }

    /**
     * Pipeline event tracing (like gem5's Exec debug flag): when a
     * sink is installed, every stage transition of every instruction
     * emits one line "<cycle>: t<tid> #<seq> <stage> <disasm>".
     * Pass nullptr to disable. The sink must outlive the core.
     */
    using TraceSink = std::function<void(const std::string &)>;
    void setTraceSink(TraceSink sink) { traceSink = std::move(sink); }

    /** In-flight instructions of a thread, program order (tests). */
    const std::deque<DynInstPtr> &
    inflightInsts(ThreadID tid) const
    {
        return threads[tid].inflight;
    }

    /** Scoreboard ready cycle of a tag (tests / debugging). */
    Cycle tagReadyAt(Tag t) const { return scoreboard->readyAt(t); }

    /** @name Shelf head-readiness cache introspection (tests) @{ */
    /** Pending-operand bits of a thread's cached shelf head
     * (bit 0/1 = source operands, bit 2 = WAW previous writer). */
    unsigned
    shelfHeadPendingOps(ThreadID tid) const
    {
        return shelfHeadCache[tid].pendingOps;
    }
    /** Cached cycle at which all known operands are ready. */
    Cycle
    shelfHeadOperandsReadyAt(ThreadID tid) const
    {
        return shelfHeadCache[tid].operandsReadyAt;
    }
    /** Is the cached SSR earliest-eligible cycle valid? */
    bool
    shelfHeadSsrValid(ThreadID tid) const
    {
        return shelfHeadCache[tid].ssrValid;
    }
    /** Cached SSR earliest-eligible cycle (valid only when
     * shelfHeadSsrValid()). */
    Cycle
    shelfHeadSsrEligibleAt(ThreadID tid) const
    {
        return shelfHeadCache[tid].ssrEligibleAt;
    }
    /** Bitmask of threads whose shelf head waits on @p tag. */
    uint64_t
    shelfTagWaiterMask(Tag t) const
    {
        return shelfTagWaiters[t];
    }
    /** Instruction identity of the cached shelf head (null when the
     * cache is empty). */
    const DynInst *
    shelfHeadCached(ThreadID tid) const
    {
        return shelfHeadCache[tid].inst;
    }
    /** @} */

    /** Frontend-buffer occupancy of a thread (tests / debugging). */
    size_t
    frontendSize(ThreadID tid) const
    {
        return threads[tid].frontend.size();
    }

    /** Cycle until which a thread's fetch is stalled. */
    Cycle
    fetchStallUntil(ThreadID tid) const
    {
        return threads[tid].fetchStallUntil;
    }

    /** Trace cursor of a thread (tests / debugging). */
    uint64_t fetchCursor(ThreadID tid) const
    {
        return threads[tid].cursor;
    }

    /** Oldest not-yet-dispatched instruction (tests / debugging). */
    DynInstPtr
    frontendHead(ThreadID tid) const
    {
        return threads[tid].frontend.empty()
            ? nullptr : threads[tid].frontend.front();
    }

    /** @name Crash diagnostics (core_diag.cc) @{ */
    /**
     * Serialize the complete core state — per-thread wait reasons,
     * the flight recorder, every pipeline structure, and the
     * validate invariant verdicts — as fields into the writer's
     * currently-open JSON object. Side-effect free.
     */
    void dumpState(JsonWriter &w) const;

    /**
     * Why @p tid is not retiring right now: the name of the
     * blocking structure ("rob", "shelf-operand", "dispatch:iq-full",
     * ...) plus a human-readable detail line. Mirrors the dispatch/
     * issue eligibility checks without their side effects.
     */
    struct WaitReason
    {
        std::string structure;
        std::string detail;
    };
    WaitReason waitReason(ThreadID tid) const;

    /**
     * Fault injection: from cycle @p when on, the commit stage
     * retires nothing, wedging every thread — the forward-progress
     * watchdog's end-to-end test vehicle. 0 disarms.
     */
    void wedgeRetirementAt(Cycle when) { wedgeAtCycle = when; }

    const diag::FlightRecorder &flightRecorder() const
    {
        return recorder;
    }
    /** @} */

  private:
    /** The validation subsystem reads (and, for fault-injection
     * tests, corrupts) private pipeline state. */
    friend class validate::InvariantChecker;

    struct ThreadState
    {
        InstSource *source = nullptr;
        uint64_t cursor = 0;      ///< monotonic; index = cursor % size
        Cycle fetchStallUntil = 0;
        SeqNum nextSeq = 0;
        std::deque<DynInstPtr> frontend; ///< fetched, pre-dispatch
        std::deque<DynInstPtr> inflight; ///< dispatched, live
        bool lastDispatchWasShelf = false;
        uint64_t dispatchedNotIssued = 0;
        /** Current run id (a run = IQ series then shelf series). */
        uint64_t runId = 0;
        /** In-flight loads that have not yet obtained their data
         * (TSO: everything younger is speculative until they do). */
        std::set<SeqNum> incompleteLoads;
        /** Fill forwarding: instruction block whose miss this thread
         * is stalled on; consumed directly when the fill arrives
         * (a later eviction cannot strand the thread). */
        Addr pendingFillBlock = ~Addr(0);
        Cycle pendingFillAt = 0;
    };

    struct Event
    {
        SeqNum gseq;      ///< processing order within a cycle
        int kind;         ///< kExecuteMem or kComplete
        DynInstPtr inst;
    };
    static constexpr int kExecuteMem = 0;
    static constexpr int kComplete = 1;
    /** TSO: shelf retirement deferred behind incomplete elder
     * loads. */
    static constexpr int kShelfRetire = 2;

    /** @name Pipeline stages (called in reverse order each tick) @{ */
    void commitStage();
    void processEvents();
    void issueStage();
    void dispatchStage();
    void fetchStage();
    /** @} */

    /**
     * Per-thread shelf head-readiness cache: the shelf head's
     * operand readiness is pushed by announceReady() through waiter
     * registrations instead of the head polling the scoreboard every
     * cycle, and the SSR speculation-window term is a cached
     * earliest-eligible cycle invalidated only on SSR transitions
     * (IQ issue with resolve delay, the run latch), squash, and head
     * advance (issue). The cache is rebuilt whenever the shelf head
     * identity changes; it is eagerly reset at the two places the
     * head can change while populated (shelf issue, squash) so slab
     * recycling can never produce a false pointer-identity match.
     */
    struct ShelfHeadCache
    {
        DynInst *inst = nullptr; ///< identity of the cached head
        uint8_t pendingOps = 0;  ///< bits 0/1 = srcs, bit 2 = prev
        bool ssrValid = false;
        Cycle operandsReadyAt = 0; ///< max over known operand terms
        Cycle ssrEligibleAt = 0;
        unsigned minLat = 0; ///< min execution delay (SSR covering)
        Tag waitTag[3] = { kNoTag, kNoTag, kNoTag };
    };

    /** @name Shelf head-readiness cache (core_issue.cc) @{ */
    /** Deregister waiters and empty the cache of @p tid. */
    void shelfHeadReset(ThreadID tid);
    /** Snapshot the current head's readiness, registering waiters on
     * still-pending source/WAW tags. */
    void shelfHeadRebuild(ThreadID tid, const DynInstPtr &head);
    /** Rebuild iff the cached identity is not @p head. */
    void
    shelfHeadEnsure(ThreadID tid, const DynInstPtr &head)
    {
        if (shelfHeadCache[tid].inst != head.get())
            shelfHeadRebuild(tid, head);
    }
    /** A produced tag became ready: wake registered shelf heads. */
    void shelfWakeup(Tag tag, Cycle cycle);
    /** @} */

    /** @name Issue helpers (core_issue.cc) @{ */
    bool iqCandidateBlocked(const DynInst &inst) const;
    /** Cross-cluster forwarding: is @p tag's value consumable now by
     * a consumer in the shelf (true) or IQ (false) cluster? */
    bool srcReadyForConsumer(Tag tag, bool consumer_shelf) const;
    bool shelfHeadEligible(ThreadID tid, const DynInstPtr &head);
    void issueInst(const DynInstPtr &inst);
    unsigned resolveDelay(const DynInst &inst) const;
    bool storeSetSatisfied(const DynInst &inst) const;
    /** Announce a produced value to the scoreboard and the IQ's
     * incremental wakeup in one step. */
    void announceReady(Tag tag, Cycle cycle);
    /**
     * SMT threads have disjoint address spaces, so a store-set wait
     * on another thread's store (SSIT aliasing) is both useless and,
     * combined with the shelf's in-order issue, a potential
     * cross-thread deadlock cycle: drop it.
     */
    SeqNum sameThreadStoreWait(ThreadID tid, SeqNum store_gseq) const;
    /** @} */

    /** @name Memory pipeline (core_mem.cc) @{ */
    void executeMemEvent(const DynInstPtr &inst);
    void executeLoad(const DynInstPtr &inst);
    void executeStore(const DynInstPtr &inst);
    /** @} */

    /** @name Completion / squash (core.cc, core_squash.cc) @{ */
    void completeEvent(const DynInstPtr &inst);
    void retireShelfInst(const DynInstPtr &inst);
    /** TSO: retire the shelf instruction now if no elder load is
     * still incomplete; otherwise re-arm for the next cycle. */
    void tryShelfRetire(const DynInstPtr &inst);
    bool elderIncompleteLoad(const DynInst &inst) const;
    void squashThread(ThreadID tid, SeqNum squash_seq,
                      uint64_t restart_cursor, Cycle resume);
    /** @} */

    /** @name Quiescent-cycle skipping (core.cc) @{ */
    /**
     * Earliest future cycle at which any stage could act, ignoring
     * the event queue (the skip loop checks events cycle by cycle).
     * now+1 means "cannot skip". Side effect: fills the
     * skipStallCounters / skipRenameStalls lists with the dispatch
     * stall counters each structurally-blocked, decode-ready front
     * instruction charges every quiescent cycle.
     */
    Cycle quiescentWake();
    /**
     * Fast-forward dead cycles after a tick, up to @p limit,
     * reproducing exactly the state a real tick leaves behind on a
     * cycle where no stage acts: SSR decay, steering-counter decay,
     * round-robin cursors, dispatch stall counters, stat samples,
     * wedge arming, and blocked TSO shelf-retire event re-arms.
     */
    void skipQuiescentSpan(Cycle limit);
    /**
     * Which stall counter dispatchStage would charge for @p tid's
     * blocked front instruction (null when dispatch could proceed);
     * mirrors the structural checks without side effects.
     * @p rename_ctr receives the rename-unit stat charged alongside
     * a tag/register stall, or null.
     */
    uint64_t *dispatchStallCounter(ThreadID tid, const DynInst &inst,
                                   stats::Scalar **rename_ctr);
    /** @} */

    void scheduleEvent(Cycle when, int kind, const DynInstPtr &inst);
    void cleanupInflight(ThreadState &ts);
    bool eldestUnissued(const ThreadState &ts,
                        const DynInstPtr &inst) const;
    void verifyInvariants() const;

    const TraceInst &
    traceAt(const ThreadState &ts, uint64_t cursor) const
    {
        return ts.source->at(cursor);
    }

    /** Sources and the views the trace constructor makes. */
    struct Sources
    {
        std::vector<InstSource *> ptrs;
        std::vector<std::unique_ptr<InstSource>> owned;
    };
    static Sources viewTraces(const std::vector<const Trace *> &traces);
    Core(const CoreParams &params, MemHierarchy &mem, Sources sources);

    /** Views over the traces given to the trace constructor. */
    std::vector<std::unique_ptr<InstSource>> traceViews;

    CoreParams coreParams;
    MemHierarchy &mem;

    /** Slab storage for every in-flight DynInst. Declared before all
     * handle-holding members so it is destroyed last; its destructor
     * panics if any handle outlives the core. */
    DynInstPool instPool;

    Cycle now = 0;
    SeqNum nextGseq = 0;
    unsigned dispatchRR = 0; ///< round-robin cursors
    unsigned commitRR = 0;
    unsigned fetchRR = 0;

    std::vector<ThreadState> threads;

    std::unique_ptr<RenameUnit> rename;
    std::unique_ptr<ROB> rob;
    std::unique_ptr<Shelf> shelfQ;
    std::unique_ptr<IssueQueue> iq;
    std::unique_ptr<Scoreboard> scoreboard;
    std::unique_ptr<SpecShiftRegisters> ssr;
    std::unique_ptr<LSQ> lsq;
    std::unique_ptr<FUPool> fuPool;
    std::unique_ptr<SteeringPolicy> steerPolicy;

    GsharePredictor gshare;
    StoreSets storeSets;

    /** In-flight stores by global sequence (store-set waits). */
    std::unordered_map<SeqNum, DynInstPtr> storesByGseq;

    /**
     * Pending execute/complete/retire events, bucketed by cycle.
     * Sized so that the longest modelled latency (a full memory
     * round trip plus FU and resolve delays) stays on the ring's
     * allocation-free fast path.
     */
    CalendarQueue<Event> eventQueue;
    /** Scratch for processEvents(); member so its capacity and the
     * bucket vectors' survive across ticks. */
    std::vector<Event> dueEvents;

    /** Per-thread shelf head-readiness caches (see ShelfHeadCache). */
    std::vector<ShelfHeadCache> shelfHeadCache;
    /** Per-tag bitmask of threads whose shelf head waits on the tag
     * becoming ready (the shelf's waiter chains). */
    std::vector<uint64_t> shelfTagWaiters;
    /** Cached minimum load latency (1 + L1D hit latency). */
    unsigned loadMinLat = 0;

    /** Cached CoreParams::fetchBufferCapacity() (it divides). */
    unsigned fetchBufCap = 0;

    /** Scratch for skipQuiescentSpan(): per-cycle dispatch-stall
     * increments of the current quiescent span (members so their
     * capacity survives across spans). */
    std::vector<uint64_t *> skipStallCounters;
    std::vector<stats::Scalar *> skipRenameStalls;

    /**
     * Monotone sum over every stage-activity counter: unchanged
     * across a tick iff no stage did anything. The run loops use it
     * as a free pre-filter — a quiescence attempt only ever pays off
     * right after a dead cycle.
     */
    uint64_t
    activitySignature() const
    {
        return events.fetchedInsts + events.renameOps +
            events.fuOps + events.squashedInsts +
            events.iqWakeupCompares + coreStats.retiredAll;
    }

    Classifier classifier;
    CoreStats coreStats;
    EventCounts events;

    bool checkInvariants = false;

    /** @name Crash diagnostics @{ */
    /** Recent pipeline events (diag dump); capacity from params. */
    diag::FlightRecorder recorder;
    /** Watchdog: last observed retiredAll and when it last moved. */
    uint64_t watchdogLastRetired = 0;
    Cycle watchdogLastProgress = 0;
    /** Injected retirement wedge (0 = off) and its armed state. */
    Cycle wedgeAtCycle = 0;
    bool wedged = false;
    /** Previous thread-local diag registration, restored in dtor. */
    const Core *diagPrevCore = nullptr;
    /** Watchdog check + wedge arming, called once per tick. */
    void diagTick();
    /** @} */

    size_t retireLogLimit = 0;
    std::vector<std::vector<uint64_t>> retireLog;
    TraceSink traceSink;
    CommitObserver commitObserver;
    CommitObserver retireTap;

    /** Emit a pipeline-trace line if a sink is installed. */
    void tracePipe(const char *stage, const DynInst &inst) const;

    void
    logRetire(const DynInst &inst)
    {
        if (commitObserver)
            commitObserver(inst);
        if (retireTap)
            retireTap(inst);
        if (retireLogLimit == 0)
            return;
        auto &log = retireLog[inst.tid];
        if (log.size() < retireLogLimit)
            log.push_back(inst.traceIdx);
    }
};

} // namespace shelf

#endif // SHELFSIM_CORE_CORE_HH
