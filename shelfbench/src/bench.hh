/**
 * @file
 * Shared state of one benchmark run: options, the metrics it
 * reports, and the correctness bookkeeping that decides its exit
 * code.
 */

#ifndef SHELFBENCH_BENCH_HH
#define SHELFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

namespace shelfbench
{

/** Seed whose Figure-10 geomean EXPERIMENTS.md records (+4.6%). */
constexpr uint64_t kDefaultSeed = 1;
/** Held-out seed: a claim made on the default seed is confirmed on
 * this one too. */
constexpr uint64_t kHeldOutSeed = 2;

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory (caches, sockets, spans) inside the
     * checkout. */
    std::string workDir;
    std::string expectedPath;
    /** Where a traced run writes its spans (JSON lines). */
    std::string spansPath;
    /** Self-test hook: corrupt one cell's retired count in the last
     * pass, which every fingerprint check must catch. */
    bool doctorResult = false;
    /** Worker threads / executors / concurrent serve clients. */
    unsigned jobs = 1;
};

/** Whether a number is host time, simulated, or a plain count. */
enum class Domain { Host, Simulated, Count };

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    Domain domain = Domain::Host;
    /** Free-text note printed beside the value. */
    std::string note;
};

struct Results
{
    uint64_t attempted = 0; ///< cells run plus serve requests sent
    uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the metrics. */
    std::vector<std::string> notes;

    /** Record one failed operation (a cell, request or check). */
    void fail(const std::string &why);
    void add(const std::string &name, double value,
             const std::string &unit, Domain domain,
             const std::string &note = "");
};

/**
 * Run the named workload (false for an unknown name). @p fingerprint
 * receives the FNV-1a of the first pass's per-cell retired counts and
 * @p stpGainPct the workload's simulated STP gain.
 */
bool runWorkload(const Options &opt, Results &res,
                 uint64_t &fingerprint, double &stpGainPct);

/** Linear-interpolated quantile of @p v (0 <= q <= 1). */
double quantile(std::vector<double> v, double q);
double median(const std::vector<double> &v);

} // namespace shelfbench

#endif // SHELFBENCH_BENCH_HH
