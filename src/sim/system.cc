#include "sim/system.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/json.hh"
#include "base/strutil.hh"
#include "core/steer/shadow.hh"
#include "sim/allocation.hh"
#include "workload/spec2006.hh"

namespace shelf
{

std::vector<double>
SystemResult::ipcVector() const
{
    std::vector<double> v;
    for (const auto &t : threads)
        v.push_back(t.ipc);
    return v;
}

const stats::Histogram &
SystemResult::inSeqSeries() const
{
    fatal_if(rehydrated, "series histograms are not serialized: "
             "this result was rehydrated from JSON (cache hit, "
             "isolated worker, or journal replay); run the config "
             "in-process to read inSeqSeries");
    return inSeqSeriesHist;
}

const stats::Histogram &
SystemResult::reorderedSeries() const
{
    fatal_if(rehydrated, "series histograms are not serialized: "
             "this result was rehydrated from JSON (cache hit, "
             "isolated worker, or journal replay); run the config "
             "in-process to read reorderedSeries");
    return reorderedSeriesHist;
}

void
SystemResult::setSeries(stats::Histogram in_seq,
                        stats::Histogram reordered)
{
    inSeqSeriesHist = std::move(in_seq);
    reorderedSeriesHist = std::move(reordered);
    rehydrated = false;
}


std::string
SystemResult::toJson(int doublePrecision) const
{
    JsonWriter w(doublePrecision);
    w.beginObject();
    w.field("config", configName);
    // Multi-core fields are emitted only when they carry
    // information: a single-core result keeps the exact historical
    // byte layout (journal records and cache keys depend on it).
    if (numCores > 1) {
        w.field("num_cores", static_cast<uint64_t>(numCores));
        w.field("allocation", allocation);
    }
    w.field("cycles", static_cast<uint64_t>(cycles));
    w.field("total_ipc", totalIpc);
    w.field("in_seq_frac", inSeqFrac);
    w.field("shelf_steer_frac", shelfSteerFrac);
    w.field("missteer_frac", missteerFrac);
    w.field("branch_mispredict_rate", branchMispredictRate);
    w.field("l1d_miss_rate", l1dMissRate);
    w.field("squashes", static_cast<uint64_t>(squashes));
    w.field("mem_order_squashes",
            static_cast<uint64_t>(memOrderSquashes));
    w.beginArray("threads");
    for (const auto &t : threads) {
        w.beginObject();
        w.field("benchmark", t.benchmark);
        if (numCores > 1)
            w.field("core", static_cast<uint64_t>(t.core));
        w.field("instructions",
                static_cast<uint64_t>(t.instructions));
        w.field("ipc", t.ipc);
        w.field("in_seq_frac", t.inSeqFrac);
        w.endObject();
    }
    w.endArray();
    w.beginObject("energy");
    w.field("dynamic_pj", energy.dynamicPJ);
    w.field("leakage_pj", energy.leakagePJ);
    w.field("per_inst_pj", energy.energyPerInstPJ);
    w.field("edp", energy.edp);
    w.field("power_w", energy.avgPowerW);
    w.endObject();
    w.beginObject("events");
    w.field("fetched", static_cast<uint64_t>(events.fetchedInsts));
    w.field("squashed",
            static_cast<uint64_t>(events.squashedInsts));
    w.field("iq_writes", static_cast<uint64_t>(events.iqWrites));
    w.field("shelf_writes",
            static_cast<uint64_t>(events.shelfWrites));
    w.field("shelf_issues",
            static_cast<uint64_t>(events.shelfIssues));
    w.endObject();
    w.endObject();
    return w.str();
}

SystemResult
SystemResult::fromJson(const std::string &json)
{
    JsonValue doc;
    std::string err;
    fatal_if(!tryParseJson(json, doc, &err), "result JSON: %s",
             err.c_str());
    fatal_if(!doc.isObject(), "result JSON: expected an object");

    auto num = [](const JsonValue &v, const char *key) -> double {
        fatal_if(!v.isNumber(),
                 "result JSON: '%s' must be a number", key);
        return v.asDouble();
    };
    auto u64 = [](const JsonValue &v, const char *key) -> uint64_t {
        fatal_if(!v.isNumber(),
                 "result JSON: '%s' must be a number", key);
        return v.asU64();
    };
    auto str = [](const JsonValue &v,
                  const char *key) -> const std::string & {
        fatal_if(!v.isString(),
                 "result JSON: '%s' must be a string", key);
        return v.raw;
    };

    SystemResult r;
    // The JSON form never carries the series histograms; make any
    // read through the accessors fail loudly instead of returning
    // structurally-valid empty distributions.
    r.rehydrated = true;
    for (const auto &[key, v] : doc.members) {
        const char *k = key.c_str();
        if (key == "config") r.configName = str(v, k);
        else if (key == "num_cores")
            r.numCores = static_cast<unsigned>(u64(v, k));
        else if (key == "allocation") r.allocation = str(v, k);
        else if (key == "cycles")
            r.cycles = static_cast<Cycle>(u64(v, k));
        else if (key == "total_ipc") r.totalIpc = num(v, k);
        else if (key == "in_seq_frac") r.inSeqFrac = num(v, k);
        else if (key == "shelf_steer_frac")
            r.shelfSteerFrac = num(v, k);
        else if (key == "missteer_frac") r.missteerFrac = num(v, k);
        else if (key == "branch_mispredict_rate")
            r.branchMispredictRate = num(v, k);
        else if (key == "l1d_miss_rate") r.l1dMissRate = num(v, k);
        else if (key == "squashes") r.squashes = u64(v, k);
        else if (key == "mem_order_squashes")
            r.memOrderSquashes = u64(v, k);
        else if (key == "threads") {
            fatal_if(!v.isArray(),
                     "result JSON: 'threads' must be an array");
            for (const auto &tv : v.items) {
                fatal_if(!tv.isObject(), "result JSON: thread "
                         "entries must be objects");
                ThreadResult t;
                for (const auto &[tk, tvv] : tv.members) {
                    const char *tkc = tk.c_str();
                    if (tk == "benchmark")
                        t.benchmark = str(tvv, tkc);
                    else if (tk == "core")
                        t.core = static_cast<unsigned>(u64(tvv, tkc));
                    else if (tk == "instructions")
                        t.instructions = u64(tvv, tkc);
                    else if (tk == "ipc") t.ipc = num(tvv, tkc);
                    else if (tk == "in_seq_frac")
                        t.inSeqFrac = num(tvv, tkc);
                    else
                        fatal("result JSON: unknown thread key "
                              "'%s'", tkc);
                }
                r.threads.push_back(std::move(t));
            }
        } else if (key == "energy") {
            fatal_if(!v.isObject(),
                     "result JSON: 'energy' must be an object");
            for (const auto &[ek, ev] : v.members) {
                const char *ekc = ek.c_str();
                if (ek == "dynamic_pj")
                    r.energy.dynamicPJ = num(ev, ekc);
                else if (ek == "leakage_pj")
                    r.energy.leakagePJ = num(ev, ekc);
                else if (ek == "per_inst_pj")
                    r.energy.energyPerInstPJ = num(ev, ekc);
                else if (ek == "edp") r.energy.edp = num(ev, ekc);
                else if (ek == "power_w")
                    r.energy.avgPowerW = num(ev, ekc);
                else
                    fatal("result JSON: unknown energy key '%s'",
                          ekc);
            }
        } else if (key == "events") {
            fatal_if(!v.isObject(),
                     "result JSON: 'events' must be an object");
            for (const auto &[ek, ev] : v.members) {
                const char *ekc = ek.c_str();
                if (ek == "fetched")
                    r.events.fetchedInsts = ev.asU64();
                else if (ek == "squashed")
                    r.events.squashedInsts = ev.asU64();
                else if (ek == "iq_writes")
                    r.events.iqWrites = ev.asU64();
                else if (ek == "shelf_writes")
                    r.events.shelfWrites = ev.asU64();
                else if (ek == "shelf_issues")
                    r.events.shelfIssues = ev.asU64();
                else
                    fatal("result JSON: unknown events key '%s'",
                          ekc);
            }
        } else {
            fatal("result JSON: unknown key '%s'", key.c_str());
        }
    }
    return r;
}

void
WarmMemo::expect(const std::string &key)
{
    std::lock_guard<std::mutex> lk(m);
    ++entries[key].users;
}

bool
WarmMemo::copyInto(const std::string &key, MemHierarchy &mem,
                   GsharePredictor &bpred)
{
    std::shared_ptr<const State> st;
    {
        std::lock_guard<std::mutex> lk(m);
        auto it = entries.find(key);
        if (it == entries.end() || !it->second.state)
            return false;
        st = it->second.state;
        if (--it->second.users == 0)
            entries.erase(it);
    }
    // Copy-assign into the live objects: the core keeps references
    // to the hierarchy's caches and to its predictor.
    mem.l1i() = st->l1i;
    mem.l1d() = st->l1d;
    mem.l2() = st->l2;
    bpred = st->bpred;
    return true;
}

void
WarmMemo::publish(const std::string &key, const MemHierarchy &mem,
                  const GsharePredictor &bpred)
{
    std::lock_guard<std::mutex> lk(m);
    auto it = entries.find(key);
    if (it == entries.end())
        return;
    if (--it->second.users == 0) {
        entries.erase(it);
        return;
    }
    if (!it->second.state) {
        it->second.state = std::make_shared<const State>(
            State{ mem.l1i(), mem.l1d(), mem.l2(), bpred });
    }
}

size_t
WarmMemo::size() const
{
    std::lock_guard<std::mutex> lk(m);
    return entries.size();
}

size_t
System::traceLengthOf(const SystemConfig &cfg)
{
    if (cfg.traceLength)
        return cfg.traceLength;
    // Enough headroom that wraparound is rare: the core retires at
    // most issueWidth per cycle shared across threads.
    return static_cast<size_t>((cfg.warmupCycles + cfg.measureCycles) *
                               (cfg.core.issueWidth + 1));
}

std::string
System::warmKey(const SystemConfig &cfg)
{
    if (cfg.numCores != 1 || !cfg.externalTraces.empty())
        return "";
    size_t walk = std::min(traceLengthOf(cfg), kWarmupWalk);
    std::string key = csprintf("threads=%zu;", cfg.benchmarks.size());
    for (size_t t = 0; t < cfg.benchmarks.size(); ++t) {
        key += csprintf("%s,%llu,%llu,%zu;", cfg.benchmarks[t].c_str(),
                        (unsigned long long)(cfg.seed * 1000003ULL + t),
                        (unsigned long long)(static_cast<Addr>(t) << 30),
                        walk);
    }
    for (const CacheParams *c : { &cfg.mem.l1i, &cfg.mem.l1d,
                                  &cfg.mem.l2 }) {
        key += csprintf("%s,%u,%u,%u,%u,%u;", c->name.c_str(),
                        c->sizeKB, c->assoc, c->blockBytes,
                        c->hitLatency, c->mshrs);
    }
    return key + csprintf("mem=%u", cfg.mem.memLatency);
}

System::System(SystemConfig config)
    : cfg(std::move(config))
{
    cfg.core.validate();
    fatal_if(cfg.numCores == 0, "numCores must be >= 1");
    size_t total = cfg.benchmarks.size();
    if (cfg.numCores == 1) {
        fatal_if(total != cfg.core.threads,
                 "%zu benchmarks for %u threads", total,
                 cfg.core.threads);
    } else {
        fatal_if(!isAllocationPolicy(cfg.allocation),
                 "unknown allocation policy '%s' (have: round-robin, "
                 "fill-first, classify, dynamic)",
                 cfg.allocation.c_str());
        fatal_if(total == 0 ||
                 total > static_cast<size_t>(cfg.numCores) *
                     cfg.core.threads,
                 "%zu benchmarks for %u cores x %u threads", total,
                 cfg.numCores, cfg.core.threads);
    }

    // A thread's workload identity is global: seed and address-space
    // slice depend only on the global thread id, never on where the
    // allocation policy places it. Each thread gets a disjoint 1GB
    // address-space slice. An external trace is viewed in place; an
    // empty entry means "generate this thread", so its benchmarks
    // entry must name a real profile, not just a label.
    fatal_if(!cfg.externalTraces.empty() &&
             cfg.externalTraces.size() != total,
             "%zu external traces for %zu threads",
             cfg.externalTraces.size(), total);
    size_t trace_len = traceLengthOf(cfg);
    for (unsigned t = 0; t < total; ++t) {
        if (!cfg.externalTraces.empty() &&
            !cfg.externalTraces[t].empty()) {
            sources.push_back(
                std::make_unique<InstSource>(cfg.externalTraces[t]));
            continue;
        }
        sources.push_back(std::make_unique<InstSource>(
            spec2006Profile(cfg.benchmarks[t]),
            cfg.seed * 1000003ULL + t, static_cast<Addr>(t) << 30,
            trace_len));
    }
    if (cfg.warmMemo)
        memoKey = warmKey(cfg);

    if (cfg.numCores == 1) {
        hiers.push_back(std::make_unique<MemHierarchy>(cfg.mem));
    } else {
        // The CMP shape: private L1s per core, one shared L2 in
        // front of memory. Cross-core interference happens where it
        // does in hardware — L2 capacity and MSHRs — instead of
        // having every core thrash one 32KB L1.
        sharedL2 = std::make_unique<Cache>(cfg.mem.l2);
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            hiers.push_back(std::make_unique<MemHierarchy>(
                cfg.mem, sharedL2.get()));
        }
    }

    if (cfg.numCores == 1) {
        assignment.assign(total, 0);
    } else {
        AllocationInput in;
        in.numCores = cfg.numCores;
        in.threadsPerCore = cfg.core.threads;
        for (unsigned t = 0; t < total; ++t) {
            bool traceBacked = !cfg.externalTraces.empty() &&
                !cfg.externalTraces[t].empty();
            in.profiles.push_back(
                traceBacked ? nullptr
                            : &spec2006Profile(cfg.benchmarks[t]));
        }
        assignment = allocateThreads(cfg.allocation, in);
    }
    buildCores();
}

System::~System() = default;

void
System::buildCores()
{
    size_t total = cfg.benchmarks.size();
    cores.clear();
    cores.resize(cfg.numCores);
    coreThreads.assign(cfg.numCores, {});
    localTid.assign(total, 0);
    for (unsigned t = 0; t < total; ++t) {
        localTid[t] =
            static_cast<unsigned>(coreThreads[assignment[t]].size());
        coreThreads[assignment[t]].push_back(t);
    }
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const auto &ts = coreThreads[c];
        if (ts.empty())
            continue;
        CoreParams p = cfg.core;
        if (ts.size() != cfg.core.threads) {
            // A partially-filled core keeps the configured per-thread
            // partition sizes: the static partitions (ROB, LQ, SQ,
            // shelf) shrink with the thread count while the shared
            // structures (IQ, widths, caches) stay as configured.
            p.threads = static_cast<unsigned>(ts.size());
            p.robEntries = cfg.core.robPerThread() * p.threads;
            p.lqEntries = cfg.core.lqPerThread() * p.threads;
            p.sqEntries = cfg.core.sqPerThread() * p.threads;
            p.shelfEntries = cfg.core.shelfPerThread() * p.threads;
        }
        std::vector<InstSource *> srcs;
        for (unsigned t : ts)
            srcs.push_back(sources[t].get());
        cores[c] = std::make_unique<Core>(p, *hiers[c], srcs);
    }
}

void
System::functionalWarmup()
{
    // The equivalent of the paper's 100M-inst microarchitectural
    // warming before the SimPoint, except that it walks the
    // instructions the timed run then executes (EXPERIMENTS.md).
    if (!memoKey.empty() &&
        cfg.warmMemo->copyInto(memoKey, *hiers[0],
                               cores[0]->branchPredictor())) {
        return;
    }
    size_t total = cfg.benchmarks.size();
    for (unsigned t = 0; t < total; ++t) {
        Core &c = *cores[assignment[t]];
        MemHierarchy &h = *hiers[assignment[t]];
        auto tid = static_cast<ThreadID>(localTid[t]);
        InstSource &src = *sources[t];
        size_t limit = std::min(src.length(), kWarmupWalk);
        for (size_t i = 0; i < limit; ++i) {
            const TraceInst &inst = src.at(i);
            h.warmInst(inst.pc);
            if (inst.isMem())
                h.warmData(inst.addr);
            if (inst.isBranch())
                c.branchPredictor().update(tid, inst.pc, inst.taken);
        }
    }
    if (!memoKey.empty()) {
        cfg.warmMemo->publish(memoKey, *hiers[0],
                              cores[0]->branchPredictor());
    }
}

void
System::warmupPhase()
{
    functionalWarmup();
    for (auto &c : cores) {
        if (!c)
            continue;
        c->branchPredictor().lookups.reset();
        c->branchPredictor().mispredicts.reset();
    }

    runAll(cfg.warmupCycles);
}

void
System::runAll(Cycle cycles)
{
    std::vector<Core *> active;
    for (auto &c : cores)
        if (c)
            active.push_back(c.get());
    if (active.size() == 1) {
        active[0]->run(cycles);
        return;
    }
    // Cycle-lockstep: every phase leaves all cores at the same
    // cycle, so the common target is any core's cycle plus the
    // budget. Each iteration steps every core sitting at the
    // minimum cycle, in core-index order — the fixed order makes
    // shared-hierarchy access deterministic — and stepWithSkip lets
    // a core fast-forward its own quiescent spans (it touches no
    // shared state while quiescent), after which it idles here
    // until the others catch up.
    Cycle target = active[0]->cycle() + cycles;
    while (true) {
        Cycle min = target;
        for (Core *c : active)
            min = std::min(min, c->cycle());
        if (min >= target)
            break;
        for (Core *c : active)
            if (c->cycle() == min)
                c->stepWithSkip(target);
    }
}

SystemResult
System::run()
{
    warmupPhase();

    if (cfg.numCores > 1 && cfg.allocation == "dynamic") {
        // Epoch-based reallocation: the timed warmup doubled as a
        // probe epoch under round-robin placement. Re-deal threads
        // by their measured IPC, rebuild the cores, and re-warm —
        // the caches keep their (shared) state, the fresh cores
        // retrain their predictors deterministically.
        size_t total = cfg.benchmarks.size();
        std::vector<double> ipc(total, 0.0);
        for (unsigned t = 0; t < total; ++t) {
            ipc[t] = cores[assignment[t]]->ipc(
                static_cast<ThreadID>(localTid[t]));
        }
        assignment = reallocateByIpc(ipc, cfg.numCores,
                                     cfg.core.threads);
        buildCores();
        warmupPhase();
    }

    for (auto &c : cores)
        if (c)
            c->resetStats();
    for (auto &h : hiers)
        h->resetStats();
    if (sharedL2)
        sharedL2->resetStats();

    runAll(cfg.measureCycles);
    for (auto &c : cores)
        if (c)
            c->classify().finalize();

    SystemResult res;
    res.configName = cfg.core.name;
    res.numCores = cfg.numCores;
    if (cfg.numCores > 1)
        res.allocation = cfg.allocation;

    size_t total = cfg.benchmarks.size();
    for (unsigned t = 0; t < total; ++t) {
        Core &c = *cores[assignment[t]];
        auto tid = static_cast<ThreadID>(localTid[t]);
        ThreadResult tr;
        tr.benchmark = cfg.benchmarks[t];
        tr.core = assignment[t];
        tr.instructions = c.retired(tid);
        tr.ipc = c.ipc(tid);
        tr.inSeqFrac = c.classify().inSequenceFraction(tid);
        res.threads.push_back(tr);
    }

    if (cfg.numCores == 1) {
        // The classic path: every aggregate comes from the one core
        // through exactly the historical expressions, keeping the
        // result bit-identical to the single-core implementation.
        Core &c = *cores[0];
        const Classifier &cls = c.classify();
        res.cycles = c.coreStatistics().cycles;
        res.totalIpc = c.totalIpc();
        res.inSeqFrac = cls.inSequenceFraction();
        res.shelfSteerFrac = c.steering().shelfFraction();
        if (auto *shadow =
                dynamic_cast<ShadowSteering *>(&c.steering())) {
            res.missteerFrac = shadow->missteerFraction();
        }
        res.branchMispredictRate =
            c.branchPredictor().mispredictRate();
        res.squashes = c.coreStatistics().squashes;
        res.memOrderSquashes = c.coreStatistics().memOrderSquashes;
        res.setSeries(cls.inSeqSeries(), cls.reorderedSeries());
        res.events = c.eventCounts();
    } else {
        // Lockstep leaves every active core at the same cycle;
        // aggregates are exact sums of the per-core counters.
        uint64_t retired = 0, inSeq = 0, classified = 0;
        double toShelf = 0, steered = 0;
        double disagreements = 0, decisions = 0;
        double lookups = 0, mispredicts = 0;
        stats::Histogram inSeqH, reorderedH;
        for (auto &cp : cores) {
            if (!cp)
                continue;
            Core &c = *cp;
            res.cycles = c.coreStatistics().cycles;
            retired += c.coreStatistics().totalRetired();
            const Classifier &cls = c.classify();
            inSeq += cls.totalInSequence();
            classified += cls.totalRetired();
            inSeqH.merge(cls.inSeqSeries());
            reorderedH.merge(cls.reorderedSeries());
            SteeringPolicy &sp = c.steering();
            toShelf += sp.steeredToShelf.value();
            steered += sp.steeredToShelf.value() +
                sp.steeredToIq.value();
            if (auto *shadow = dynamic_cast<ShadowSteering *>(&sp)) {
                disagreements += shadow->disagreements.value();
                decisions += sp.steeredToShelf.value() +
                    sp.steeredToIq.value();
            }
            lookups += c.branchPredictor().lookups.value();
            mispredicts += c.branchPredictor().mispredicts.value();
            res.squashes += c.coreStatistics().squashes;
            res.memOrderSquashes +=
                c.coreStatistics().memOrderSquashes;
            EventCounts &ev = c.eventCounts();
            res.events.fetchedInsts += ev.fetchedInsts;
            res.events.decodedInsts += ev.decodedInsts;
            res.events.renameOps += ev.renameOps;
            res.events.iqWrites += ev.iqWrites;
            res.events.iqWakeupCompares += ev.iqWakeupCompares;
            res.events.iqIssues += ev.iqIssues;
            res.events.shelfWrites += ev.shelfWrites;
            res.events.shelfIssues += ev.shelfIssues;
            res.events.robWrites += ev.robWrites;
            res.events.robRetires += ev.robRetires;
            res.events.prfReads += ev.prfReads;
            res.events.prfWrites += ev.prfWrites;
            res.events.lqWrites += ev.lqWrites;
            res.events.sqWrites += ev.sqWrites;
            res.events.lsqSearches += ev.lsqSearches;
            res.events.fuOps += ev.fuOps;
            res.events.ssrUpdates += ev.ssrUpdates;
            res.events.steerEvals += ev.steerEvals;
            res.events.squashedInsts += ev.squashedInsts;
        }
        res.totalIpc = res.cycles
            ? static_cast<double>(retired) /
              static_cast<double>(res.cycles)
            : 0.0;
        res.inSeqFrac = classified
            ? static_cast<double>(inSeq) /
              static_cast<double>(classified)
            : 0.0;
        res.shelfSteerFrac = steered > 0 ? toShelf / steered : 0.0;
        res.missteerFrac =
            decisions > 0 ? disagreements / decisions : 0.0;
        res.branchMispredictRate =
            lookups > 0 ? mispredicts / lookups : 0.0;
        res.setSeries(std::move(inSeqH), std::move(reorderedH));
    }

    if (cfg.numCores == 1) {
        res.l1dMissRate = hiers[0]->l1d().missRate();
        EnergyModel energy(cfg.core, cfg.mem);
        res.energy = energy.evaluate(
            res.events, hiers[0]->l1i().accesses.value(),
            hiers[0]->l1d().accesses.value(), res.cycles,
            cores[0]->coreStatistics().totalRetired());
    } else {
        // Miss rate over the combined private L1Ds.
        double l1dAcc = 0, l1dMiss = 0;
        for (auto &h : hiers) {
            l1dAcc += h->l1d().accesses.value();
            l1dMiss += h->l1d().misses.value();
        }
        res.l1dMissRate = l1dAcc > 0 ? l1dMiss / l1dAcc : 0.0;

        // Evaluate each core against its own parameters (partition
        // sizes differ on partially-filled cores) and its private
        // L1s, sum the raw energies, and recompute the derived
        // per-instruction and power figures from the totals.
        uint64_t retired = 0;
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            auto &cp = cores[c];
            if (!cp)
                continue;
            retired += cp->coreStatistics().totalRetired();
            EnergyModel em(cp->params(), cfg.mem);
            EnergyReport r = em.evaluate(
                cp->eventCounts(),
                hiers[c]->l1i().accesses.value(),
                hiers[c]->l1d().accesses.value(),
                res.cycles, cp->coreStatistics().totalRetired());
            res.energy.dynamicPJ += r.dynamicPJ;
            res.energy.leakagePJ += r.leakagePJ;
        }
        res.energy.totalPJ =
            res.energy.dynamicPJ + res.energy.leakagePJ;
        double seconds = static_cast<double>(res.cycles) /
            (EnergyModel::kClockGHz * 1e9);
        if (retired > 0) {
            res.energy.energyPerInstPJ =
                res.energy.totalPJ / retired;
            res.energy.cyclesPerInst =
                static_cast<double>(res.cycles) / retired;
            res.energy.edp = res.energy.energyPerInstPJ *
                res.energy.cyclesPerInst;
        }
        if (seconds > 0)
            res.energy.avgPowerW =
                res.energy.totalPJ * 1e-12 / seconds;
    }

    return res;
}


std::string
System::statsReport() const
{
    if (cfg.numCores > 1)
        return multiCoreStatsReport();

    std::string out;
    auto line = [&out](const char *name, double value,
                       const char *desc) {
        out += csprintf("%-40s %14.6g  # %s\n", name, value, desc);
    };

    const Core &c = *cores[0];
    const CoreStats &cs = c.coreStatistics();
    line("sim.cycles", static_cast<double>(cs.cycles),
         "measured cycles");
    line("sim.insts", static_cast<double>(cs.totalRetired()),
         "retired instructions (all threads)");
    line("sim.ipc", c.totalIpc(), "aggregate IPC");
    for (unsigned t = 0; t < cfg.core.threads; ++t) {
        line(csprintf("thread%u.insts", t).c_str(),
             static_cast<double>(cs.retired[t]),
             cfg.benchmarks[t].c_str());
        line(csprintf("thread%u.ipc", t).c_str(),
             c.ipc(static_cast<ThreadID>(t)), "per-thread");
    }

    const Classifier &cls = const_cast<Core &>(c).classify();
    line("classify.in_seq_frac", cls.inSequenceFraction(),
         "fraction of retired insts issuing in-sequence");

    line("squash.total", static_cast<double>(cs.squashes),
         "pipeline squashes");
    line("squash.branch", static_cast<double>(cs.branchSquashes),
         "branch-mispredict squashes");
    line("squash.mem_order",
         static_cast<double>(cs.memOrderSquashes),
         "memory-order violation squashes");

    const DispatchStalls &ds = cs.dispatchStalls;
    line("stall.iq_full", static_cast<double>(ds.iqFull),
         "dispatch stalls: issue queue full");
    line("stall.rob_full", static_cast<double>(ds.robFull),
         "dispatch stalls: ROB partition full");
    line("stall.lq_full", static_cast<double>(ds.lqFull),
         "dispatch stalls: load queue full");
    line("stall.sq_full", static_cast<double>(ds.sqFull),
         "dispatch stalls: store queue full");
    line("stall.shelf_full", static_cast<double>(ds.shelfFull),
         "dispatch stalls: shelf full");
    line("stall.phys_regs", static_cast<double>(ds.physRegs),
         "dispatch stalls: physical registers");
    line("stall.ext_tags", static_cast<double>(ds.extTags),
         "dispatch stalls: extension tags");

    line("sim.quiesce_skipped_cycles",
         static_cast<double>(cs.quiesceSkippedCycles),
         "quiescent cycles fast-forwarded (counted in sim.cycles)");
    line("sim.quiesce_spans",
         static_cast<double>(cs.quiesceSpans),
         "contiguous fast-forwarded spans");

    line("occ.iq", cs.iqOccupancy.mean(), "mean IQ occupancy");
    line("occ.rob", cs.robOccupancy.mean(), "mean ROB occupancy");
    line("occ.shelf", cs.shelfOccupancy.mean(),
         "mean shelf occupancy");

    const SteeringPolicy &sp =
        const_cast<Core &>(c).steering();
    line("steer.shelf_frac", sp.shelfFraction(),
         "instructions steered to the shelf");

    const GsharePredictor &bp =
        const_cast<Core &>(c).branchPredictor();
    line("branch.lookups", bp.lookups.value(),
         "conditional branches predicted");
    line("branch.mispredict_rate", bp.mispredictRate(),
         "direction mispredict rate");

    line("l1i.accesses", hiers[0]->l1i().accesses.value(), "L1I demand");
    line("l1i.miss_rate", hiers[0]->l1i().missRate(), "L1I miss rate");
    line("l1d.accesses", hiers[0]->l1d().accesses.value(), "L1D demand");
    line("l1d.miss_rate", hiers[0]->l1d().missRate(), "L1D miss rate");
    line("l2.accesses", hiers[0]->l2().accesses.value(), "L2 lookups");
    line("l2.miss_rate", hiers[0]->l2().missRate(), "L2 miss rate");

    const LSQ &lsq = c.lsqUnit();
    line("lsq.forwards", lsq.forwards.value(),
         "store-to-load forwards");
    line("lsq.coalesces", lsq.coalesces.value(),
         "shelf stores coalesced");
    line("lsq.violations", lsq.violations.value(),
         "memory-order violations detected");

    const EventCounts &ev =
        const_cast<Core &>(c).eventCounts();
    line("events.fetched", static_cast<double>(ev.fetchedInsts),
         "instructions fetched");
    line("events.squashed", static_cast<double>(ev.squashedInsts),
         "instructions squashed");
    line("events.iq_writes", static_cast<double>(ev.iqWrites),
         "IQ allocations");
    line("events.shelf_writes",
         static_cast<double>(ev.shelfWrites), "shelf allocations");
    line("events.prf_reads", static_cast<double>(ev.prfReads),
         "register file reads");
    line("events.prf_writes", static_cast<double>(ev.prfWrites),
         "register file writes");

    EnergyModel energy(cfg.core, cfg.mem);
    EnergyReport rep = energy.evaluate(
        ev, hiers[0]->l1i().accesses.value(),
        hiers[0]->l1d().accesses.value(), cs.cycles,
        cs.totalRetired());
    line("energy.dynamic_pj", rep.dynamicPJ, "dynamic energy");
    line("energy.leakage_pj", rep.leakagePJ, "leakage energy");
    line("energy.per_inst_pj", rep.energyPerInstPJ,
         "energy per instruction");
    line("energy.edp", rep.edp, "energy-delay per instruction");
    line("energy.power_w", rep.avgPowerW, "average power");
    line("area.core", energy.coreArea(false),
         "core area (no L1), arbitrary units");
    line("area.core_l1", energy.coreArea(true),
         "core area incl. L1");
    return out;
}

std::string
System::multiCoreStatsReport() const
{
    std::string out;
    auto line = [&out](const std::string &name, double value,
                       const std::string &desc) {
        out += csprintf("%-40s %14.6g  # %s\n", name.c_str(), value,
                        desc.c_str());
    };

    // Aggregate counters across cores (the lockstep loop leaves
    // every active core at the same cycle).
    Cycle cycles = 0;
    uint64_t retired = 0, inSeq = 0, classified = 0;
    uint64_t squashes = 0, branchSquashes = 0, memOrderSquashes = 0;
    DispatchStalls stalls;
    uint64_t skipped = 0, spans = 0;
    double toShelf = 0, steered = 0;
    double lookups = 0, mispredicts = 0;
    double forwards = 0, coalesces = 0, violations = 0;
    EventCounts ev;
    double dynamicPJ = 0, leakagePJ = 0;
    double areaCore = 0, areaCoreL1 = 0;
    unsigned activeCores = 0;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (!cores[c])
            continue;
        ++activeCores;
        Core &core = const_cast<Core &>(*cores[c]);
        const CoreStats &cs = core.coreStatistics();
        cycles = cs.cycles;
        retired += cs.totalRetired();
        const Classifier &cls = core.classify();
        inSeq += cls.totalInSequence();
        classified += cls.totalRetired();
        squashes += cs.squashes;
        branchSquashes += cs.branchSquashes;
        memOrderSquashes += cs.memOrderSquashes;
        stalls.iqFull += cs.dispatchStalls.iqFull;
        stalls.robFull += cs.dispatchStalls.robFull;
        stalls.lqFull += cs.dispatchStalls.lqFull;
        stalls.sqFull += cs.dispatchStalls.sqFull;
        stalls.shelfFull += cs.dispatchStalls.shelfFull;
        stalls.physRegs += cs.dispatchStalls.physRegs;
        stalls.extTags += cs.dispatchStalls.extTags;
        skipped += cs.quiesceSkippedCycles;
        spans += cs.quiesceSpans;
        SteeringPolicy &sp = core.steering();
        toShelf += sp.steeredToShelf.value();
        steered += sp.steeredToShelf.value() +
            sp.steeredToIq.value();
        lookups += core.branchPredictor().lookups.value();
        mispredicts += core.branchPredictor().mispredicts.value();
        forwards += core.lsqUnit().forwards.value();
        coalesces += core.lsqUnit().coalesces.value();
        violations += core.lsqUnit().violations.value();
        const EventCounts &cev = core.eventCounts();
        ev.fetchedInsts += cev.fetchedInsts;
        ev.squashedInsts += cev.squashedInsts;
        ev.iqWrites += cev.iqWrites;
        ev.shelfWrites += cev.shelfWrites;
        ev.prfReads += cev.prfReads;
        ev.prfWrites += cev.prfWrites;
        EnergyModel em(core.params(), cfg.mem);
        EnergyReport r = em.evaluate(
            cev, hiers[c]->l1i().accesses.value(),
            hiers[c]->l1d().accesses.value(),
            cs.cycles, cs.totalRetired());
        dynamicPJ += r.dynamicPJ;
        leakagePJ += r.leakagePJ;
        areaCore += em.coreArea(false);
        areaCoreL1 += em.coreArea(true);
    }

    line("sim.cores", static_cast<double>(activeCores),
         csprintf("active cores of %u (allocation: %s)",
                  cfg.numCores, cfg.allocation.c_str()));
    line("sim.cycles", static_cast<double>(cycles),
         "measured cycles (lockstep across cores)");
    line("sim.insts", static_cast<double>(retired),
         "retired instructions (all cores)");
    line("sim.ipc",
         cycles ? static_cast<double>(retired) /
                  static_cast<double>(cycles) : 0.0,
         "aggregate IPC (all cores)");

    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (!cores[c])
            continue;
        const Core &core = *cores[c];
        const CoreStats &cs = core.coreStatistics();
        line(csprintf("core%u.threads", c),
             static_cast<double>(coreThreads[c].size()),
             "threads allocated");
        line(csprintf("core%u.insts", c),
             static_cast<double>(cs.totalRetired()),
             "retired instructions");
        line(csprintf("core%u.ipc", c), core.totalIpc(),
             "per-core IPC");
        line(csprintf("core%u.quiesce_skipped_cycles", c),
             static_cast<double>(cs.quiesceSkippedCycles),
             "quiescent cycles fast-forwarded");
    }

    size_t total = cfg.benchmarks.size();
    for (unsigned t = 0; t < total; ++t) {
        const Core &core = *cores[assignment[t]];
        line(csprintf("thread%u.core", t),
             static_cast<double>(assignment[t]),
             cfg.benchmarks[t]);
        line(csprintf("thread%u.insts", t),
             static_cast<double>(core.retired(
                 static_cast<ThreadID>(localTid[t]))),
             cfg.benchmarks[t]);
        line(csprintf("thread%u.ipc", t),
             core.ipc(static_cast<ThreadID>(localTid[t])),
             "per-thread");
    }

    line("classify.in_seq_frac",
         classified ? static_cast<double>(inSeq) /
                      static_cast<double>(classified) : 0.0,
         "fraction of retired insts issuing in-sequence");

    line("squash.total", static_cast<double>(squashes),
         "pipeline squashes");
    line("squash.branch", static_cast<double>(branchSquashes),
         "branch-mispredict squashes");
    line("squash.mem_order", static_cast<double>(memOrderSquashes),
         "memory-order violation squashes");

    line("stall.iq_full", static_cast<double>(stalls.iqFull),
         "dispatch stalls: issue queue full");
    line("stall.rob_full", static_cast<double>(stalls.robFull),
         "dispatch stalls: ROB partition full");
    line("stall.lq_full", static_cast<double>(stalls.lqFull),
         "dispatch stalls: load queue full");
    line("stall.sq_full", static_cast<double>(stalls.sqFull),
         "dispatch stalls: store queue full");
    line("stall.shelf_full", static_cast<double>(stalls.shelfFull),
         "dispatch stalls: shelf full");
    line("stall.phys_regs", static_cast<double>(stalls.physRegs),
         "dispatch stalls: physical registers");
    line("stall.ext_tags", static_cast<double>(stalls.extTags),
         "dispatch stalls: extension tags");

    line("sim.quiesce_skipped_cycles",
         static_cast<double>(skipped),
         "quiescent cycles fast-forwarded (all cores)");
    line("sim.quiesce_spans", static_cast<double>(spans),
         "contiguous fast-forwarded spans (all cores)");

    line("steer.shelf_frac",
         steered > 0 ? toShelf / steered : 0.0,
         "instructions steered to the shelf");

    line("branch.lookups", lookups,
         "conditional branches predicted");
    line("branch.mispredict_rate",
         lookups > 0 ? mispredicts / lookups : 0.0,
         "direction mispredict rate");

    // Private L1s aggregated across cores; the L2 is the one shared
    // cache behind them.
    double l1iAcc = 0, l1iMiss = 0, l1dAcc = 0, l1dMiss = 0;
    for (auto &h : hiers) {
        l1iAcc += h->l1i().accesses.value();
        l1iMiss += h->l1i().misses.value();
        l1dAcc += h->l1d().accesses.value();
        l1dMiss += h->l1d().misses.value();
    }
    line("l1i.accesses", l1iAcc, "L1I demand (all private L1Is)");
    line("l1i.miss_rate", l1iAcc > 0 ? l1iMiss / l1iAcc : 0.0,
         "L1I miss rate");
    line("l1d.accesses", l1dAcc, "L1D demand (all private L1Ds)");
    line("l1d.miss_rate", l1dAcc > 0 ? l1dMiss / l1dAcc : 0.0,
         "L1D miss rate");
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (!cores[c])
            continue;
        line(csprintf("core%u.l1d.miss_rate", c),
             hiers[c]->l1d().missRate(), "private L1D miss rate");
    }
    line("l2.accesses", sharedL2->accesses.value(),
         "shared L2 lookups");
    line("l2.miss_rate", sharedL2->missRate(),
         "shared L2 miss rate");

    line("lsq.forwards", forwards, "store-to-load forwards");
    line("lsq.coalesces", coalesces, "shelf stores coalesced");
    line("lsq.violations", violations,
         "memory-order violations detected");

    line("events.fetched", static_cast<double>(ev.fetchedInsts),
         "instructions fetched");
    line("events.squashed", static_cast<double>(ev.squashedInsts),
         "instructions squashed");
    line("events.iq_writes", static_cast<double>(ev.iqWrites),
         "IQ allocations");
    line("events.shelf_writes",
         static_cast<double>(ev.shelfWrites), "shelf allocations");
    line("events.prf_reads", static_cast<double>(ev.prfReads),
         "register file reads");
    line("events.prf_writes", static_cast<double>(ev.prfWrites),
         "register file writes");

    double totalPJ = dynamicPJ + leakagePJ;
    double seconds = static_cast<double>(cycles) /
        (EnergyModel::kClockGHz * 1e9);
    line("energy.dynamic_pj", dynamicPJ,
         "dynamic energy (all cores)");
    line("energy.leakage_pj", leakagePJ,
         "leakage energy (all cores)");
    line("energy.per_inst_pj",
         retired > 0 ? totalPJ / retired : 0.0,
         "energy per instruction");
    line("energy.edp",
         retired > 0
             ? (totalPJ / retired) *
               (static_cast<double>(cycles) / retired)
             : 0.0,
         "energy-delay per instruction");
    line("energy.power_w",
         seconds > 0 ? totalPJ * 1e-12 / seconds : 0.0,
         "average power (all cores)");
    line("area.core", areaCore,
         "total core area (no L1), arbitrary units");
    line("area.core_l1", areaCoreL1,
         "total core area incl. L1");
    return out;
}

} // namespace shelf
