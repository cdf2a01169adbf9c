#include "spans.hh"

#include <fstream>

#include "support/diag.hh"
#include "support/json.hh"

namespace perfbench
{

SpanRecorder::Scope::Scope(SpanRecorder &recorder, std::string name,
                           int cell)
    : recorder_(recorder),
      index_(static_cast<int>(recorder.spans_.size()))
{
    Span span;
    span.name = std::move(name);
    span.parent = recorder.open_.empty() ? -1 : recorder.open_.back();
    span.cell = cell;
    if (cell < 0 && span.parent >= 0)
        span.cell = recorder.spans_[span.parent].cell;
    span.startNs = recorder.nowNs();
    recorder.spans_.push_back(std::move(span));
    recorder.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope()
{
    recorder_.spans_[index_].endNs = recorder_.nowNs();
    recorder_.open_.pop_back();
}

std::uint64_t
SpanRecorder::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    std::vector<std::uint64_t> childNs(spans_.size(), 0);
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            childNs[span.parent] += span.endNs - span.startNs;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        self[span.name] +=
            static_cast<double>(span.endNs - span.startNs - childNs[i]) *
            1e-9;
    }
    return self;
}

void
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw predilp::FatalError("cannot write span trace " + path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << (i == 0 ? "" : ",\n") << "{\"name\": \""
            << predilp::jsonEscape(span.name)
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << predilp::jsonDouble(static_cast<double>(span.startNs) *
                                   1e-3)
            << ", \"dur\": "
            << predilp::jsonDouble(
                   static_cast<double>(span.endNs - span.startNs) * 1e-3)
            << ", \"args\": {\"id\": " << i
            << ", \"parent\": " << span.parent
            << ", \"cell\": " << span.cell << "}}";
    }
    out << "\n]}\n";
    if (!out)
        throw predilp::FatalError("failed writing span trace " + path);
}

} // namespace perfbench
