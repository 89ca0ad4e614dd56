#include "spans.hh"

#include <iomanip>
#include <stdexcept>

namespace pb {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), t0_(std::chrono::steady_clock::now())
{
}

void
SpanRecorder::setEnabled(bool on)
{
    if (!open_.empty())
        throw std::logic_error("span recording toggled inside a span");
    enabled_ = on;
}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0_)
        .count();
}

int
SpanRecorder::begin(const std::string& layer, const std::string& name,
                    std::uint64_t op)
{
    if (!enabled_)
        return -1;
    Span s;
    s.layer = layer;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    s.start = now();
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    if (!enabled_)
        return;
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of nesting order");
    spans_[static_cast<std::size_t>(id)].end = now();
    open_.pop_back();
}

std::map<std::string, LayerTime>
SpanRecorder::layerTimes() const
{
    std::vector<double> childCover(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0)
            childCover[static_cast<std::size_t>(s.parent)] +=
                s.end - s.start;
    }
    std::map<std::string, LayerTime> table;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        LayerTime& lt = table[s.layer];
        double dur = s.end - s.start;
        lt.totalSeconds += dur;
        lt.selfSeconds += dur - childCover[i];
        ++lt.spans;
    }
    return table;
}

void
SpanRecorder::writeJson(std::ostream& os) const
{
    os << std::setprecision(9) << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
           << ", \"layer\": \"" << s.layer << "\", \"name\": \""
           << s.name << "\", \"start\": " << s.start
           << ", \"end\": " << s.end << ", \"parent\": " << s.parent
           << ", \"op\": " << s.op << "}";
    }
    os << "\n], \"layers\": {";
    bool first = true;
    for (const auto& [layer, lt] : layerTimes()) {
        os << (first ? "\n  " : ",\n  ") << "\"" << layer
           << "\": {\"self_s\": " << lt.selfSeconds
           << ", \"total_s\": " << lt.totalSeconds
           << ", \"spans\": " << lt.spans << "}";
        first = false;
    }
    os << "\n}}\n";
}

} // namespace pb
