/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * We use xoshiro256** seeded via SplitMix64 so traces are reproducible
 * across platforms and standard-library versions (std::mt19937
 * distributions are not portable across implementations).
 */

#ifndef SHELFSIM_BASE_RANDOM_HH
#define SHELFSIM_BASE_RANDOM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shelf
{

class Random
{
  public:
    explicit Random(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Re-seed the generator. */
    void seed(uint64_t seed);

    /** Uniform 64-bit value. */
    uint64_t next();

    /** Uniform in [0, bound) using rejection-free mapping. */
    uint64_t below(uint64_t bound);

    /** Uniform in [lo, hi] inclusive. */
    int64_t range(int64_t lo, int64_t hi);

    /** Uniform real in [0, 1). */
    double real();

    /** Bernoulli trial with probability @p p. */
    bool chance(double p);

    /**
     * Geometric distribution with success probability @p p, returning
     * the number of failures before the first success (>= 0).
     */
    uint64_t geometric(double p);

    /**
     * geometric(p) for p < 1, given @p log1mp = log1p(-p): callers
     * that sample one distribution many times hoist the constant log
     * out of the loop. Consumes and returns exactly what
     * geometric(p) would.
     */
    uint64_t geometricLog(double log1mp);

    /** Sample an index according to non-negative weights. */
    size_t weighted(const std::vector<double> &weights);

  private:
    uint64_t s[4];
};

} // namespace shelf

#endif // SHELFSIM_BASE_RANDOM_HH
