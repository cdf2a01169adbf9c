/**
 * @file
 * In-memory span recording for the benchmark's traced run. A span is
 * a named interval with the span that caused it and the cell it
 * belongs to. Spans are kept in memory while the run executes and
 * written out afterwards as Chrome trace-event JSON, the format the
 * program's own spans can later join.
 *
 * Not thread-safe: the traced run is single-threaded by design, so a
 * span's self time (its duration minus its children's) is time spent
 * in that layer and nowhere else.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Records nested spans; see file comment. */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        int parent = -1; ///< index of the enclosing span, -1 = root.
        int cell = -1;   ///< cell id, shared by a cell's spans.
    };

    /** Opens a span on construction and closes it on destruction. */
    class Scope
    {
      public:
        /** @param cell -1 inherits the enclosing span's cell. */
        Scope(SpanRecorder &recorder, std::string name, int cell = -1);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &recorder_;
        int index_;
    };

    /** A fresh cell id. */
    int newCell() { return nextCell_++; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Seconds of self time per span name. */
    std::map<std::string, double> selfSeconds() const;

    /** Write all spans as Chrome trace-event JSON to @p path. */
    void writeChromeTrace(const std::string &path) const;

  private:
    std::uint64_t nowNs() const;

    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
    int nextCell_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
