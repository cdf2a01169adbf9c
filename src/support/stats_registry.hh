/**
 * @file
 * Unified observability layer: a hierarchical registry of named
 * counters, timers, and value summaries shared by the compiler's
 * PassManager and the timing simulator.
 *
 * Names are dot-separated scopes — `opt.cse.removed`,
 * `sim.btb.mispredict` — and a name is either a leaf or a scope,
 * never both. Handles returned by StatsRegistry::counter() & co. are
 * stable for the registry's lifetime, so hot paths increment a plain
 * 64-bit slot with no map lookup. A registry's handles are meant to
 * be updated from one thread at a time; cross-thread aggregation
 * works by giving each worker its own registry and merging them
 * (merge() is additive and commutative, so totals are independent of
 * both thread count and merge order).
 *
 * StatsSnapshot is the frozen, serializable view: counters plus
 * timers, rendered by toJson() as one nested JSON object grouped by
 * scope, integers for counters and doubles for timers, so a JSON
 * reader that keeps number classes (JsonValue) reads back exactly
 * what was recorded. Every bench binary emits its harness, per-pass and per-simulator
 * numbers through this one seam.
 */

#ifndef PREDILP_SUPPORT_STATS_REGISTRY_HH
#define PREDILP_SUPPORT_STATS_REGISTRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace predilp
{

/** A single monotonically increasing 64-bit counter. */
class Counter
{
  public:
    void add(std::uint64_t delta = 1) { value_ += delta; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Accumulated wall-clock nanoseconds for one named activity. */
class TimerTotal
{
  public:
    void addNanos(std::uint64_t nanos) { nanos_ += nanos; }
    std::uint64_t nanos() const { return nanos_; }
    double seconds() const { return static_cast<double>(nanos_) * 1e-9; }

  private:
    std::uint64_t nanos_ = 0;
};

/**
 * Summary histogram of recorded values: count, sum, min, max. Enough
 * to answer "how many, how big" questions (hyperblock sizes, pass
 * change counts) without per-bucket storage on the hot path.
 */
class Histogram
{
  public:
    void
    record(std::uint64_t value)
    {
        count_ += 1;
        sum_ += value;
        if (value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    /** Smallest recorded value; 0 when empty. */
    std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return max_; }

    /** Fold @p other into this summary. */
    void
    merge(const Histogram &other)
    {
        if (other.count_ == 0)
            return;
        count_ += other.count_;
        sum_ += other.sum_;
        if (other.min_ < min_)
            min_ = other.min_;
        if (other.max_ > max_)
            max_ = other.max_;
    }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = UINT64_MAX;
    std::uint64_t max_ = 0;
};

/**
 * Immutable, serializable capture of a registry (or of any
 * component's counters): counter leaves hold integers, timer leaves
 * hold seconds as doubles. Merging adds leaf-wise.
 */
class StatsSnapshot
{
  public:
    /** Set counter leaf @p name (creating or overwriting). */
    void setCounter(const std::string &name, std::uint64_t value);

    /** Add @p delta to counter leaf @p name. */
    void addCounter(const std::string &name, std::uint64_t delta);

    /** Set timer leaf @p name to @p seconds. */
    void setSeconds(const std::string &name, double seconds);

    /** @return counter @p name, or 0 when absent. */
    std::uint64_t counter(const std::string &name) const;

    /** @return timer @p name in seconds, or 0.0 when absent. */
    double seconds(const std::string &name) const;

    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, double> &timers() const
    {
        return timers_;
    }

    bool
    empty() const
    {
        return counters_.empty() && timers_.empty();
    }

    /** Leaf-wise additive merge of @p other into this snapshot. */
    void merge(const StatsSnapshot &other);

    /**
     * Render as one nested JSON object, scopes split on '.', keys in
     * lexicographic order (so output is deterministic). Counters are
     * emitted as integers, timers as doubles with round-trip
     * precision. @p indent is the left margin of the opening brace;
     * the text never ends with a newline. Panics if a name is used
     * both as a leaf and as a scope.
     */
    std::string toJson(int indent = 0) const;

    /** Exact equality of both leaf maps (doubles compared bitwise). */
    bool operator==(const StatsSnapshot &other) const;
    bool operator!=(const StatsSnapshot &other) const
    {
        return !(*this == other);
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> timers_;
};

/**
 * The registry: owns named counters/timers/histograms and hands out
 * stable handles. Handle creation, merge(), and snapshot() are
 * mutex-guarded; updates through handles are deliberately
 * unsynchronized (one registry per thread, merged afterwards).
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    /** Stable handle for counter @p name, created at zero. */
    Counter &counter(const std::string &name);

    /** Stable handle for timer @p name. */
    TimerTotal &timer(const std::string &name);

    /** Stable handle for histogram @p name. */
    Histogram &histogram(const std::string &name);

    /**
     * Add every stat of @p other into this registry (counters and
     * timers add; histograms fold). @p other must be quiescent.
     */
    void merge(const StatsRegistry &other);

    /**
     * Freeze the current values. Histograms export as four counter
     * leaves: <name>.count/.sum/.min/.max. Timers export in seconds.
     */
    StatsSnapshot snapshot() const;

  private:
    mutable std::mutex mutex_;
    // node_hash maps (std::map) keep handle addresses stable.
    std::map<std::string, Counter> counters_;
    std::map<std::string, TimerTotal> timers_;
    std::map<std::string, Histogram> histograms_;
};

/** RAII guard: adds its scope's wall time to a TimerTotal. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(TimerTotal &total);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    TimerTotal &total_;
    std::uint64_t startNanos_;
};

} // namespace predilp

#endif // PREDILP_SUPPORT_STATS_REGISTRY_HH
