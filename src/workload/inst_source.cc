#include "workload/inst_source.hh"

#include <algorithm>

#include "base/logging.hh"

namespace shelf
{

InstSource::InstSource(const BenchmarkProfile &profile, uint64_t seed,
                       Addr data_base, size_t len_)
    : len(len_)
{
    fatal_if(len == 0, "instruction source of length 0");
    gen.emplace(profile, seed, data_base);
}

InstSource::InstSource(const Trace &trace)
    : len(trace.size()), ready(trace.size())
{
    fatal_if(len == 0, "instruction source of length 0");
    for (size_t i = 0; i < len; i += kChunkSize)
        chunks.push_back(trace.data() + i);
}

void
InstSource::extend(size_t i)
{
    while (ready <= i) {
        size_t n = std::min(kChunkSize, len - ready);
        owned.push_back(std::make_unique_for_overwrite<TraceInst[]>(n));
        gen->generateInto(owned.back().get(), n);
        chunks.push_back(owned.back().get());
        ready += n;
    }
}

} // namespace shelf
