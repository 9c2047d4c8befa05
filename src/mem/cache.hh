/**
 * @file
 * A single set-associative cache level with LRU replacement,
 * write-back/write-allocate policy, and a bounded pool of miss status
 * holding registers (MSHRs) that coalesce accesses to in-flight blocks.
 *
 * The model is latency-oriented: an access returns the number of
 * cycles until the data is available, and the block is installed
 * immediately with a "ready" timestamp carried by its MSHR. A
 * functional probe (no state change) supports the oracle steering
 * mechanism, which "functionally queries the cache" (paper section
 * IV-A).
 */

#ifndef SHELFSIM_MEM_CACHE_HH
#define SHELFSIM_MEM_CACHE_HH

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/stats.hh"
#include "isa/arch.hh"

namespace shelf
{

struct CacheParams
{
    std::string name = "cache";
    unsigned sizeKB = 32;
    unsigned assoc = 2;
    unsigned blockBytes = 64;
    unsigned hitLatency = 1;
    unsigned mshrs = 8;
};

class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    struct Outcome
    {
        bool hit = false;       ///< present and ready at access time
        bool mshrHit = false;   ///< miss merged into an in-flight fill
        bool blocked = false;   ///< no MSHR available; retry later
        /** Extra cycles this level adds beyond its own hit latency
         * (0 on hit; time until an in-flight fill completes on an
         * MSHR hit; undefined when blocked). */
        Cycle extraDelay = 0;
        bool writebackDirty = false; ///< eviction produced a writeback
    };

    /**
     * Timing access. On a fresh miss the caller must tell us when the
     * fill will complete (@p fill_ready, absolute cycle), obtained from
     * the next level; pass fill_ready = 0 for a first call and re-call
     * with commit=true. To keep the interface simple we instead expose
     * a two-step protocol: lookup() then, if a fresh miss, install().
     */
    Outcome lookup(Addr addr, bool write, Cycle now);

    /** Install a block whose fill completes at @p ready_at. */
    void install(Addr addr, bool write, Cycle now, Cycle ready_at);

    /** Functional probe: would this address hit right now? */
    bool probe(Addr addr, Cycle now) const;

    /** Warmup: install a block as present-and-ready without going
     * through the timing path or touching statistics. */
    void touch(Addr addr);

    /** Debug/tests: the fill-ready cycle of a resident line, or
     * ~Cycle(0) when the block is not resident at all. */
    Cycle residentReadyAt(Addr addr) const;

    /** Invalidate everything (between experiments). */
    void flush();

    /** Zero the statistics (end of warmup), keeping cache state. */
    void resetStats();

    const CacheParams &params() const { return cacheParams; }

    /** @name Statistics @{ */
    stats::Scalar accesses;
    stats::Scalar misses;
    stats::Scalar mshrHits;
    stats::Scalar mshrBlocked;
    stats::Scalar writebacks;
    /** @} */

    double
    missRate() const
    {
        return accesses.value() > 0
            ? misses.value() / accesses.value() : 0.0;
    }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        Cycle readyAt = 0;   ///< fill completion time
        uint64_t lastUse = 0;
    };

    Addr blockAlign(Addr a) const { return a / blockBytes_; }

    /** Hashed set index: upper address bits participate so that
     * power-of-two-strided streams (and SMT threads whose segments
     * sit at large aligned offsets) do not collapse onto one set.
     * A multiplicative (golden-ratio) hash avoids the structured
     * cancellations a shifted-XOR fold suffers on the synthetic
     * address layout. */
    size_t
    setIndex(Addr block) const
    {
        Addr h = block * 0x9E3779B97F4A7C15ULL;
        return static_cast<size_t>((h >> 24) % numSets);
    }

    /** The ways of @p block's set. */
    std::span<Line>
    setOf(Addr block)
    {
        return { lines.data() + setIndex(block) * cacheParams.assoc,
                 cacheParams.assoc };
    }
    std::span<const Line>
    setOf(Addr block) const
    {
        return { lines.data() + setIndex(block) * cacheParams.assoc,
                 cacheParams.assoc };
    }

    CacheParams cacheParams;
    unsigned blockBytes_;
    size_t numSets;
    /** numSets x assoc lines, set-major. */
    std::vector<Line> lines;
    uint64_t useCounter = 0;

    /** In-flight fills by block address -> completion cycle. */
    std::unordered_map<Addr, Cycle> inflight;
};

} // namespace shelf

#endif // SHELFSIM_MEM_CACHE_HH
