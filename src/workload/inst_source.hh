/**
 * @file
 * The instruction stream a core thread fetches from.
 *
 * A thread of trace length len reads instruction i as index
 * i % len of its trace. A generated thread used to materialise all
 * len instructions up front, although a timed run reads only a few
 * thousand of them; an InstSource instead produces the stream on
 * demand, in fixed-size chunks that are never moved or freed, so a
 * reference returned by at() stays valid while later calls extend
 * the stream (fetch holds one across an I-cache access) and a
 * squash can re-read any earlier index. Memory tracks what has been
 * read. A trace already in memory (a file-backed or captured one)
 * is viewed in place, through the same chunk table.
 */

#ifndef SHELFSIM_WORKLOAD_INST_SOURCE_HH
#define SHELFSIM_WORKLOAD_INST_SOURCE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "workload/generator.hh"

namespace shelf
{

class InstSource
{
  public:
    /** Instructions per chunk (a power of two). */
    static constexpr unsigned kChunkBits = 12;
    static constexpr size_t kChunkSize = size_t(1) << kChunkBits;

    /**
     * The stream TraceGenerator(profile, seed, data_base)
     * .generate(len) would return, generated as it is read.
     */
    InstSource(const BenchmarkProfile &profile, uint64_t seed,
               Addr data_base, size_t len);

    /** A view of @p trace, which must outlive the source and stay
     * unmodified; nothing is copied. */
    explicit InstSource(const Trace &trace);

    InstSource(const InstSource &) = delete;
    InstSource &operator=(const InstSource &) = delete;

    /** Instruction @p cursor % length(). */
    const TraceInst &
    at(uint64_t cursor)
    {
        size_t i = static_cast<size_t>(cursor % len);
        if (i >= ready) [[unlikely]]
            extend(i);
        return chunks[i >> kChunkBits][i & (kChunkSize - 1)];
    }

    /** Trace length: the index at which the stream wraps. */
    size_t length() const { return len; }

    /** Instructions produced so far (length() for a view). */
    size_t materialised() const { return ready; }

  private:
    /** Generate every chunk up to and including the one holding
     * index @p i. */
    void extend(size_t i);

    size_t len;
    size_t ready = 0;
    /** Chunk k's first instruction. */
    std::vector<const TraceInst *> chunks;
    std::vector<std::unique_ptr<TraceInst[]>> owned;
    std::optional<TraceGenerator> gen;
};

} // namespace shelf

#endif // SHELFSIM_WORKLOAD_INST_SOURCE_HH
