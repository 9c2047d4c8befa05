/**
 * @file
 * Sweep cells and the three ways the benchmark runs one:
 *
 *  - runSystem(): the library's own path, System::System + run();
 *  - runDecomposed(): the same simulation rebuilt from the layers'
 *    public functions (TraceGenerator::generate, MemHierarchy warm
 *    calls, Core::run), so a traced run can time each layer. It
 *    must retire exactly what runSystem() retires;
 *  - as a validate::SweepJobSpec through the supervisor or the
 *    serve daemon (workloads.cc).
 */

#ifndef SHELFBENCH_CELLS_HH
#define SHELFBENCH_CELLS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "validate/config_json.hh"

namespace shelfbench
{

struct Cell
{
    /** Cell kind, e.g. "shelf-opt-4t" (groups per-layer rates). */
    std::string kind;
    /** Core, mix, windows, seed, core count and allocation. */
    shelf::validate::SweepJobSpec spec;
    /** Per-thread trace length; 0 = the System default of
     * 5 x (warmup + measure) instructions, which is also the only
     * length a SweepJobSpec can express. */
    size_t traceLength = 0;
};

/** What a cell retired: the machine-independent fingerprint input. */
struct CellOutcome
{
    uint64_t cycles = 0;              ///< measured window (simulated)
    std::vector<uint64_t> retired;    ///< per thread, measured window
    std::vector<double> ipc;          ///< per thread
};

/** Simulated-side counters of one decomposed cell. */
struct LayerCounts
{
    uint64_t generated = 0;     ///< instructions generated, all threads
    uint64_t retiredAll = 0;    ///< retired in warmup + measure
    uint64_t coreCycles = 0;    ///< warmup + measure cycles
    uint64_t measuredCycles = 0;
    uint64_t quiesceSkipped = 0;
    double l1dAccesses = 0, l1dMisses = 0;
    double l2Accesses = 0, l2Misses = 0;
    double steeredShelf = 0, steered = 0;
    double robOccupancy = 0;
    double coreRunSeconds = 0;  ///< host time inside Core::run
};

CellOutcome outcomeOf(const shelf::SystemResult &r);

/** System::System + System::run, with spans around each. */
shelf::SystemResult runSystem(const Cell &cell, int64_t cellId,
                              double *runSeconds = nullptr);

/** The decomposed single-core path (spans per layer). */
CellOutcome runDecomposed(const Cell &cell, int64_t cellId,
                          LayerCounts &counts);

/** "kind|cycles|r0,r1,...;" — fed to the workload fingerprint. */
std::string fingerprintLine(const Cell &cell, const CellOutcome &o);

/** Total measured-window instructions retired by a cell. */
uint64_t totalRetired(const CellOutcome &o);

} // namespace shelfbench

#endif // SHELFBENCH_CELLS_HH
