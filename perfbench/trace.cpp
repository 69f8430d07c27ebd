#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans_)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            // Children may overlap (engine workers run in parallel
            // under one batch span): subtract their union, clipped to
            // the parent's interval.
            std::vector<std::pair<double, double>> iv;
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->start, s.start),
                                std::min(c->end, s.end));
            std::sort(iv.begin(), iv.end());
            double lo = 0.0, hi = -1.0;
            for (const auto &[a, b] : iv) {
                if (b <= a)
                    continue;
                if (a > hi) {
                    if (hi > lo)
                        covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            if (hi > lo)
                covered += hi - lo;
        }
        self[s.name] += (s.end - s.start) - covered;
    }
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %llu, \"parent\": %llu, "
                     "\"job\": %lld}}%s\n",
                     s.name.c_str(), s.thread % 100000, s.start * 1e6,
                     (s.end - s.start) * 1e6,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<long long>(s.job),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
