#include "spans.hh"

#include <algorithm>
#include <cstdio>

#include "base/json.hh"

namespace shelfbench
{

namespace
{

Tracer *gTracer = nullptr;
thread_local int64_t tlsCurrent = -1;

} // namespace

Tracer::Tracer() : origin(Clock::now()) {}

int64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lk(m);
    return ids++;
}

void
Tracer::add(SpanRecord rec)
{
    std::lock_guard<std::mutex> lk(m);
    done.push_back(std::move(rec));
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::vector<SpanRecord> out;
    {
        std::lock_guard<std::mutex> lk(m);
        out = done;
    }
    std::sort(out.begin(), out.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.id < b.id;
              });
    return out;
}

bool
Tracer::writeJsonl(const std::string &path) const
{
    FILE *f = fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const SpanRecord &s : spans()) {
        shelf::JsonWriter w(shelf::JsonWriter::kFullPrecision);
        w.beginObject();
        w.field("id", static_cast<uint64_t>(s.id));
        w.field("name", s.name);
        w.field("parent", static_cast<int>(s.parent));
        w.field("cell", static_cast<int>(s.cell));
        w.field("start_us", s.start * 1e6);
        w.field("end_us", s.end * 1e6);
        w.endObject();
        fprintf(f, "%s\n", w.str().c_str());
    }
    return fclose(f) == 0;
}

Tracer *
tracer()
{
    return gTracer;
}

void
setTracer(Tracer *t)
{
    gTracer = t;
}

Span::Span(const char *name, int64_t cell, int64_t parent)
    : t(gTracer)
{
    if (!t)
        return;
    rec.id = t->nextId();
    rec.parent = parent == -2 ? tlsCurrent : parent;
    rec.cell = cell;
    rec.name = name;
    savedCurrent = tlsCurrent;
    tlsCurrent = rec.id;
    rec.start = t->now();
}

Span::~Span()
{
    if (!t)
        return;
    rec.end = t->now();
    tlsCurrent = savedCurrent;
    t->add(std::move(rec));
}

std::map<int64_t, double>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::map<int64_t, std::vector<std::pair<double, double>>> kids;
    for (const SpanRecord &s : spans)
        if (s.parent >= 0)
            kids[s.parent].push_back({ s.start, s.end });

    std::map<int64_t, double> self;
    for (const SpanRecord &s : spans) {
        double covered = 0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            double curLo = 0, curHi = -1;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.start);
                hi = std::min(hi, s.end);
                if (hi <= lo)
                    continue;
                if (lo > curHi) {
                    if (curHi > curLo)
                        covered += curHi - curLo;
                    curLo = lo;
                    curHi = hi;
                } else {
                    curHi = std::max(curHi, hi);
                }
            }
            if (curHi > curLo)
                covered += curHi - curLo;
        }
        self[s.id] = std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace shelfbench
