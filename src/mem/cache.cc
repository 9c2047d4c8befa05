#include "mem/cache.hh"

#include "base/bitutil.hh"
#include "base/logging.hh"

namespace shelf
{

Cache::Cache(const CacheParams &params)
    : cacheParams(params), blockBytes_(params.blockBytes)
{
    fatal_if(!isPowerOf2(params.blockBytes),
             "%s: block size must be a power of two", params.name.c_str());
    size_t bytes = static_cast<size_t>(params.sizeKB) * 1024;
    fatal_if(bytes % (params.blockBytes * params.assoc) != 0,
             "%s: size not divisible by way size", params.name.c_str());
    numSets = bytes / (params.blockBytes * params.assoc);
    lines.assign(numSets * params.assoc, Line());
}

Cache::Outcome
Cache::lookup(Addr addr, bool write, Cycle now)
{
    Outcome out;
    ++accesses;
    Addr block = blockAlign(addr);
    std::span<Line> set = setOf(block);

    // Drop completed fills from the MSHR pool lazily.
    for (auto it = inflight.begin(); it != inflight.end();) {
        if (it->second <= now)
            it = inflight.erase(it);
        else
            ++it;
    }

    for (auto &line : set) {
        if (line.valid && line.tag == block) {
            line.lastUse = ++useCounter;
            line.dirty |= write;
            if (line.readyAt > now) {
                // Block still being filled: behaves like an MSHR hit.
                ++mshrHits;
                out.mshrHit = true;
                out.extraDelay = line.readyAt - now;
            } else {
                out.hit = true;
            }
            return out;
        }
    }

    ++misses;
    auto mshr = inflight.find(block);
    if (mshr != inflight.end()) {
        // Fill already outstanding but the line was evicted before the
        // data returned (rare); treat as an MSHR hit.
        ++mshrHits;
        out.mshrHit = true;
        out.extraDelay = mshr->second > now ? mshr->second - now : 0;
        return out;
    }
    if (inflight.size() >= cacheParams.mshrs) {
        // Rejected for lack of an MSHR: the access never happened
        // (the core retries), so do not charge an access or a miss.
        ++mshrBlocked;
        accesses += -1;
        misses += -1;
        out.blocked = true;
        return out;
    }
    return out; // fresh miss: caller must install()
}

void
Cache::install(Addr addr, bool write, Cycle now, Cycle ready_at)
{
    Addr block = blockAlign(addr);
    std::span<Line> set = setOf(block);

    // Victim selection: an invalid way first, then the LRU way whose
    // fill has completed. Lines still being filled are pinned (the
    // data lives in the MSHR until the fill completes), so they are
    // only victimized as a last resort when every way is in flight.
    Line *victim = nullptr;
    Line *inflight_victim = nullptr;
    for (auto &line : set) {
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.readyAt > now) {
            if (!inflight_victim ||
                line.lastUse < inflight_victim->lastUse) {
                inflight_victim = &line;
            }
            continue;
        }
        if (!victim || line.lastUse < victim->lastUse)
            victim = &line;
    }
    if (!victim)
        victim = inflight_victim;
    if (victim->valid && victim->dirty)
        ++writebacks;

    victim->valid = true;
    victim->tag = block;
    victim->dirty = write;
    victim->readyAt = ready_at;
    victim->lastUse = ++useCounter;
    inflight[block] = ready_at;
}

void
Cache::touch(Addr addr)
{
    Addr block = blockAlign(addr);
    std::span<Line> set = setOf(block);
    for (auto &line : set) {
        if (line.valid && line.tag == block) {
            line.lastUse = ++useCounter;
            return;
        }
    }
    Line *victim = nullptr;
    for (auto &line : set) {
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lastUse < victim->lastUse)
            victim = &line;
    }
    victim->valid = true;
    victim->tag = block;
    victim->dirty = false;
    victim->readyAt = 0;
    victim->lastUse = ++useCounter;
}

Cycle
Cache::residentReadyAt(Addr addr) const
{
    Addr block = blockAlign(addr);
    std::span<const Line> set = setOf(block);
    for (const auto &line : set)
        if (line.valid && line.tag == block)
            return line.readyAt;
    return ~Cycle(0);
}

bool
Cache::probe(Addr addr, Cycle now) const
{
    Addr block = blockAlign(addr);
    std::span<const Line> set = setOf(block);
    for (const auto &line : set)
        if (line.valid && line.tag == block && line.readyAt <= now)
            return true;
    return false;
}

void
Cache::resetStats()
{
    accesses.reset();
    misses.reset();
    mshrHits.reset();
    mshrBlocked.reset();
    writebacks.reset();
}

void
Cache::flush()
{
    for (auto &line : lines)
        line = Line();
    inflight.clear();
    useCounter = 0;
}

} // namespace shelf
