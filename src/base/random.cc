#include "base/random.hh"

#include <cmath>

#include "base/logging.hh"

namespace shelf
{

namespace
{

inline uint64_t
splitmix64(uint64_t &x)
{
    uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Random::Random(uint64_t seed_value)
{
    seed(seed_value);
}

void
Random::seed(uint64_t seed_value)
{
    uint64_t x = seed_value;
    for (auto &word : s)
        word = splitmix64(x);
}

uint64_t
Random::next()
{
    const uint64_t result = rotl(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

uint64_t
Random::below(uint64_t bound)
{
    panic_if(bound == 0, "Random::below(0)");
    // 128-bit multiply-shift mapping; bias is negligible for our bounds.
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(next()) * bound) >> 64);
}

int64_t
Random::range(int64_t lo, int64_t hi)
{
    panic_if(lo > hi, "Random::range(%lld, %lld)", (long long)lo,
             (long long)hi);
    return lo + static_cast<int64_t>(
        below(static_cast<uint64_t>(hi - lo) + 1));
}

double
Random::real()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Random::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return real() < p;
}

uint64_t
Random::geometric(double p)
{
    if (p >= 1.0)
        return 0;
    panic_if(p <= 0.0, "geometric with p <= 0");
    return geometricLog(std::log1p(-p));
}

uint64_t
Random::geometricLog(double log1mp)
{
    double u = real();
    // Avoid log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return static_cast<uint64_t>(std::log(u) / log1mp);
}

size_t
Random::weighted(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    panic_if(total <= 0.0, "weighted sample with non-positive total");
    double pick = real() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        pick -= weights[i];
        if (pick < 0.0)
            return i;
    }
    return weights.size() - 1;
}

} // namespace shelf
