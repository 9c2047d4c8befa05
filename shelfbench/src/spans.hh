/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded from outside the simulator, around calls into
 * each layer's public functions. A span carries its name
 * ("<layer>.<what>"), its host-time interval, the span that caused it
 * and the cell it belongs to. Nothing is written while the workload
 * runs: the spans stay in memory and are written out once, at exit.
 *
 * With no tracer installed every Span is a no-op, which is how the
 * untraced (end-to-end) runs measure.
 */

#ifndef SHELFBENCH_SPANS_HH
#define SHELFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace shelfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanRecord
{
    int64_t id = -1;
    int64_t parent = -1; ///< -1: a root span
    int64_t cell = -1;   ///< -1: not inside a cell
    std::string name;
    double start = 0;    ///< host seconds since the tracer started
    double end = 0;
};

class Tracer
{
  public:
    Tracer();

    int64_t nextId();
    double now() const { return secondsSince(origin); }
    void add(SpanRecord rec);

    /** Every span recorded so far, ordered by id. */
    std::vector<SpanRecord> spans() const;

    /** Write every span as one JSON object per line. */
    bool writeJsonl(const std::string &path) const;

  private:
    Clock::time_point origin;
    mutable std::mutex m;
    int64_t ids = 0;                ///< guarded by m
    std::vector<SpanRecord> done;   ///< guarded by m
};

/** The process's tracer; null during untraced runs. */
Tracer *tracer();
void setTracer(Tracer *t);

/**
 * RAII span. The parent defaults to the innermost open span of the
 * calling thread; work fanned out to pool threads passes its parent
 * (and cell) explicitly.
 */
class Span
{
  public:
    explicit Span(const char *name, int64_t cell = -1,
                  int64_t parent = -2);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int64_t id() const { return rec.id; }

  private:
    Tracer *t;
    SpanRecord rec;
    int64_t savedCurrent = -1;
};

/**
 * Per-span self time: the span's duration minus the part of its
 * interval covered by its children (children of parallel work
 * overlap, so their union is subtracted, not their sum).
 */
std::map<int64_t, double> selfTimes(const std::vector<SpanRecord> &s);

/** Layer of a span name: the text before the first '.'. */
std::string layerOf(const std::string &name);

} // namespace shelfbench

#endif // SHELFBENCH_SPANS_HH
