#include "spans.hh"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "common.hh"

namespace perfbench {

std::uint64_t
SpanLog::record(const std::string &name, double start, double end,
                std::uint64_t job, std::uint64_t parent, std::uint32_t tid)
{
    if (!enabled_)
        return 0;
    const std::uint64_t id = newId();
    spans_.push_back(Span{name, start, std::max(start, end), job, id,
                          parent, tid});
    return id;
}

SpanLog::Scope::Scope(SpanLog &log, std::string name, std::uint64_t parent)
    : log_(log), name_(std::move(name)), parent_(parent), start_(now())
{
}

SpanLog::Scope::~Scope()
{
    log_.record(name_, start_, now(), 0, parent_);
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::vector<const Span *> order;
    for (const Span &s : spans_)
        order.push_back(&s);
    std::sort(order.begin(), order.end(),
              [](const Span *a, const Span *b) { return a->start < b->start; });
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const Span *s : order) {
        os << (first ? "" : ",") << "\n{\"name\":\"" << s->name
           << "\",\"ph\":\"X\",\"ts\":" << s->start * 1e6
           << ",\"dur\":" << (s->end - s->start) * 1e6
           << ",\"args\":{\"job\":" << s->job << ",\"span\":" << s->id
           << ",\"parent\":" << s->parent << "},\"pid\":0,\"tid\":"
           << s->tid << "}";
        first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

std::map<std::string, std::vector<double>>
SpanLog::selfTimesMs() const
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans_) {
        if (s.parent != 0)
            children[s.parent].push_back(&s);
    }
    std::map<std::string, std::vector<double>> out;
    for (const Span &s : spans_) {
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<double, double>> iv;
        if (auto it = children.find(s.id); it != children.end()) {
            for (const Span *c : it->second) {
                const double lo = std::max(c->start, s.start);
                const double hi = std::min(c->end, s.end);
                if (hi > lo)
                    iv.emplace_back(lo, hi);
            }
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
        for (auto [lo, hi] : iv) {
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        out[s.name].push_back((s.end - s.start - covered) * 1e3);
    }
    return out;
}

} // namespace perfbench
