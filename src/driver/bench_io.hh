/**
 * @file
 * Bench-harness instrumentation output: human-readable per-phase
 * timing and a machine-readable BENCH_<name>.json per benchmark
 * binary, so the performance trajectory (cycles, speedups, elapsed
 * seconds, cache effectiveness) is trackable across PRs.
 */

#ifndef PREDILP_DRIVER_BENCH_IO_HH
#define PREDILP_DRIVER_BENCH_IO_HH

#include <ostream>
#include <string>
#include <vector>

#include "driver/evaluator.hh"
#include "driver/report.hh"

namespace predilp
{

/**
 * Print compile/emulate/simulate phase totals and cache counters from
 * @p stats, a SuiteEvaluator::stats() (or a merge of several).
 */
void printPhaseTiming(std::ostream &os, const StatsSnapshot &stats,
                      double wallSeconds, int threads);

/**
 * The timing section of BENCH_*.json: @p stats plus the wall time,
 * the thread count, the emulator backend in use, and derived
 * throughput leaves.
 */
StatsSnapshot timingSnapshot(const StatsSnapshot &stats,
                             double wallSeconds, int threads);

/**
 * One (benchmark, model) cell of BENCH_*.json: the simulator's
 * detailed sim.* counters plus the headline numbers (cycles,
 * dyn_instrs, speedup, ...) as top-level leaves. Shared by
 * writeBenchJson and the sweep driver so both emit identical cell
 * payloads.
 */
StatsSnapshot cellSnapshot(const BenchmarkResult &result, Model model,
                           const SimResult &sim);

/**
 * Write BENCH_<benchName>.json (in the working directory). All
 * numeric payloads are StatsSnapshots rendered by toJson(): the
 * timing section (timingSnapshot of @p stats), the merged per-pass
 * compiler stats (pass @p compilerStats =
 * SuiteEvaluator::compileStats()), and one snapshot per (benchmark,
 * model) cell combining the headline numbers (cycles, dyn_instrs,
 * speedup, ...) with the simulator's detailed `sim.*` counters.
 * @return the path written.
 */
std::string
writeBenchJson(const std::string &benchName,
               const std::vector<BenchmarkResult> &results,
               const StatsSnapshot &stats, double wallSeconds,
               int threads,
               const StatsSnapshot &compilerStats = StatsSnapshot());

} // namespace predilp

#endif // PREDILP_DRIVER_BENCH_IO_HH
