#include "trace.h"

#include <algorithm>
#include <utility>

namespace perfbench {

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - epoch_)
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const char *name)
    : tracer_(tracer), name_(name)
{
    if (!tracer_.enabled_)
        return;
    Span s;
    s.input = tracer_.input_;
    s.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    index_ = static_cast<int>(tracer_.spans_.size());
    tracer_.open_.push_back(index_);
    tracer_.spans_.push_back(std::move(s));
    tracer_.spans_.back().start = tracer_.now();
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Span &s = tracer_.spans_[static_cast<std::size_t>(index_)];
    s.end = tracer_.now();
    s.name = name_;
    tracer_.open_.pop_back();
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                      s.end);
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start; // end of the union so far
        for (const auto &[b, e] : kids) {
            const double lo = std::max(b, reach);
            const double hi = std::min(e, s.end);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(e, s.end));
        }
        self[i] = (s.end - s.start) - covered;
    }
    return self;
}

std::map<std::string, double>
timeByName(const std::vector<Span> &spans, bool self)
{
    const std::vector<double> own =
        self ? selfTimes(spans) : std::vector<double>{};
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self ? own[i] : spans[i].end - spans[i].start;
    return out;
}

} // namespace perfbench
