/**
 * @file
 * Wall-clock timing helper for the bench harness. Phase totals that
 * sum across threads are TimerTotals in a StatsRegistry.
 */

#ifndef PREDILP_SUPPORT_TIMER_HH
#define PREDILP_SUPPORT_TIMER_HH

#include <chrono>
#include <cstdint>

namespace predilp
{

/** Measures elapsed wall-clock time from construction. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Seconds elapsed since construction (or the last reset). */
    double
    seconds() const
    {
        auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start_).count();
    }

    /** Nanoseconds elapsed since construction (or the last reset). */
    std::uint64_t
    nanoseconds() const
    {
        auto now = std::chrono::steady_clock::now();
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - start_)
                .count());
    }

    void reset() { start_ = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace predilp

#endif // PREDILP_SUPPORT_TIMER_HH
