/**
 * @file
 * Unified observability layer: a hierarchical registry of named
 * counters and timers shared by the compiler's PassManager and the
 * timing simulator.
 *
 * Names are dot-separated scopes — `opt.cse.changes`,
 * `sim.btb.mispredicts` — and a name is either a leaf or a scope,
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
 * scope, integers for counters and doubles for timers (formatted by
 * jsonDouble), so a JSON reader that keeps number classes
 * (JsonValue) reads back exactly what was recorded. Every bench
 * binary emits its harness, per-pass and per-simulator numbers
 * through this one seam.
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
 * The registry: owns named counters and timers and hands out
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

    /**
     * Add every stat of @p other into this registry (counters and
     * timers add). @p other must be quiescent.
     */
    void merge(const StatsRegistry &other);

    /** Freeze the current values. Timers export in seconds. */
    StatsSnapshot snapshot() const;

  private:
    mutable std::mutex mutex_;
    // node_hash maps (std::map) keep handle addresses stable.
    std::map<std::string, Counter> counters_;
    std::map<std::string, TimerTotal> timers_;
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
