/**
 * @file
 * Deterministic synthetic trace generator.
 *
 * Given a BenchmarkProfile and a seed, produces the dynamic instruction
 * stream of a simulated thread: register dataflow with profile-shaped
 * dependence distances, load/store address streams with configurable
 * locality and pointer chasing, and branches with learnable or random
 * outcomes. The same (profile, seed, base) triple always produces the
 * same trace, which makes squash/replay in the core model trivial
 * (squashed instructions are re-fetched from the trace by index).
 */

#ifndef SHELFSIM_WORKLOAD_GENERATOR_HH
#define SHELFSIM_WORKLOAD_GENERATOR_HH

#include <vector>

#include "base/random.hh"
#include "isa/static_inst.hh"
#include "workload/profile.hh"

namespace shelf
{

/** A dynamic instruction trace for one thread. */
using Trace = std::vector<TraceInst>;

class TraceGenerator
{
  public:
    /**
     * @param profile benchmark behaviour knobs
     * @param seed RNG seed (trace identity)
     * @param data_base base address of this thread's data segment;
     *        separates the address spaces of SMT threads
     */
    TraceGenerator(const BenchmarkProfile &profile, uint64_t seed,
                   Addr data_base = 0);

    /** Generate the next @p n instructions of the stream (the first
     * call starts at instruction 0) as a fresh trace. */
    Trace generate(size_t n);

    /** Like generate(), but writes the next @p n instructions to
     * @p out (lazy sources produce their stream chunk by chunk). */
    void generateInto(TraceInst *out, size_t n);

    /** The profile being generated. */
    const BenchmarkProfile &profile() const { return prof; }

    /**
     * The [start, start+len) slice of the trace that
     * TraceGenerator(profile, seed, data_base).generate(start + len)
     * would produce. Determinism makes regenerate-and-slice exact,
     * which lets the fuzzer shrink a failing case to a trace suffix
     * while reporting only (seed, start, len) in the repro line.
     */
    static Trace extractSubTrace(const BenchmarkProfile &profile,
                                 uint64_t seed, Addr data_base,
                                 size_t start, size_t len);

  private:
    TraceInst nextInst();

    /**
     * The most recent destination registers, most recent first, kept
     * for dependence sampling: a fixed ring of kCapacity entries
     * (the oldest falls off).
     */
    class WriteHistory
    {
      public:
        static constexpr size_t kCapacity = 48;

        bool empty() const { return count == 0; }
        size_t size() const { return count; }
        /** The @p d-th most recent write (0 = the latest). */
        RegId
        operator[](size_t d) const
        {
            return regs[(head + d) % kCapacity];
        }
        RegId front() const { return regs[head]; }

        void
        push(RegId r)
        {
            head = (head + kCapacity - 1) % kCapacity;
            regs[head] = r;
            if (count < kCapacity)
                ++count;
        }

      private:
        RegId regs[kCapacity] = {};
        size_t head = 0;
        size_t count = 0;
    };

    /** Dependence distance: geometric(depGeoP) failures. */
    size_t depDistance();
    RegId pickIntSource();
    RegId pickFpSource();
    RegId pickIntDest();
    RegId pickFpDest();
    Addr pickDataAddr(bool is_store);

    BenchmarkProfile prof;
    Random rng;
    Addr dataBase;

    /** log1p(-prof.depGeoP), hoisted out of depDistance(). */
    double depGeoLog = 0;

    /** Recent integer destination registers. */
    WriteHistory intWrites;
    /** Recent FP destination registers. */
    WriteHistory fpWrites;

    /** Destination rotation cursors. */
    unsigned intDstCursor = 0;
    unsigned fpDstCursor = 0;

    /** Sequential stream pointers for cache-friendly accesses. */
    std::vector<Addr> streams;
    unsigned streamCursor = 0;

    /** Static branch contexts: PC and taken-bias. */
    struct BranchCtx
    {
        Addr pc;
        double takenBias; // < 0 means random (data dependent)
    };
    std::vector<BranchCtx> branches;
    unsigned branchCursor = 0;

    /** Destination of the most recent load (for pointer chasing). */
    RegId lastLoadDst = kNoReg;

    /** Synthetic PC cursor for non-branch instructions. */
    Addr pcCursor;
    Addr codeBase;
    Addr codeSize;
};

} // namespace shelf

#endif // SHELFSIM_WORKLOAD_GENERATOR_HH
