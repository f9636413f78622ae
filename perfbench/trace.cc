#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent != 0)
            children[s.parent - 1].push_back({s.start_s, s.end_s});

    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start_s;
        for (const auto &[b, e] : kids) {
            const double lo = std::max(b, reach);
            const double hi = std::min(e, s.end_s);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, e);
        }
        SpanTotals &t = out[s.name];
        ++t.calls;
        t.total_s += s.end_s - s.start_s;
        t.self_s += s.end_s - s.start_s - covered;
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"parent\":%u,\"batch\":%u,\"name\":\"%s\","
                     "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                     i + 1, s.parent, s.batch, s.name, s.start_s, s.end_s);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
