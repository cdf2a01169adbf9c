/**
 * @file
 * Emulation-driven timing simulator (paper §4.1): the functional
 * emulator streams dynamic instructions into an in-order, k-issue
 * pipeline model with register interlocks, limited branch slots, a
 * 1K-entry 2-bit BTB with a 2-cycle misprediction penalty, and
 * optional 64K direct-mapped instruction/data caches.
 *
 * There is one pricing path. capture() (trace/trace.hh) records the
 * dynamic instruction stream once into a TraceBuffer — an interned
 * static-instruction id plus dynamic flags per record — and the
 * cycle model prices that buffer chunk by chunk. replay()
 * (trace/replay.hh) prices one configuration; simulate() is exactly
 * capture() followed by replay(), so a one-off run prices the same
 * records every figure does.
 *
 * replayBatch() streams each trace chunk once and advances N
 * independent cycle models against it, so the chunk walk, the varint
 * address-side-stream decode, and the trace's memory traffic are
 * paid once per trace instead of once per configuration.
 *
 * The pricing internals live in timing.cc. All models of a trace
 * share one ReplayTable: a packed, machine-independent row per
 * static op, baked from the StaticIndex, whose register operands are
 * already slots of one flat scoreboard array (sim/scoreboard.hh).
 * Each chunk's static ids are range-checked once per lane, before
 * any model prices the chunk. A model then prices the whole chunk in
 * one loop with its cycle, slot counts and counters in locals,
 * reading one row per record and latencies from a 9-entry per-class
 * table; perfect-cache models run an instance of that loop with no
 * cache code at all. The BTB probe touches one packed entry and
 * reads its predictor from baked tables (sim/cache.hh).
 */

#ifndef PREDILP_SIM_TIMING_HH
#define PREDILP_SIM_TIMING_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "support/stats_registry.hh"
#include "trace/trace.hh"

namespace predilp
{

class ThreadPool;

/** Results of one simulated run. */
struct SimResult
{
    std::uint64_t cycles = 0;
    std::uint64_t dynInstrs = 0;     ///< fetched instructions.
    std::uint64_t nullified = 0;     ///< squashed by false guards.
    std::uint64_t branches = 0;      ///< executed cond branches+jumps.
    std::uint64_t condBranches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t dcacheMisses = 0;
    std::int64_t exitValue = 0;
    std::string output;

    /**
     * Detailed machine counters under the `sim.` scope: per-class
     * issue counts (sim.issue.<class>), BTB training and aliasing
     * (sim.btb.*), cold/conflict-split cache misses (sim.icache.*,
     * sim.dcache.*), and issue-slot stall cycles by cause
     * (sim.slots.*). Fully determined by the record stream and
     * configuration, so every replay of one trace under one
     * configuration agrees bit-for-bit.
     */
    StatsSnapshot stats;

    /** Misprediction rate over executed conditional branches. */
    double
    mispredictRate() const
    {
        return condBranches == 0
                   ? 0.0
                   : static_cast<double>(mispredicts) /
                         static_cast<double>(condBranches);
    }
};

/**
 * Run @p prog on @p input under the timing model @p config.
 * The program must be fully compiled (scheduled + laid out) for the
 * cycle counts to be meaningful, but any executable program works.
 *
 * Exactly replay(*capture(prog, input, config.maxDynInstrs), config);
 * call the two directly instead when the same program will be priced
 * under more than one configuration.
 */
SimResult simulate(const Program &prog, const std::string &input,
                   const SimConfig &config);

/**
 * Price @p trace under every configuration in @p configs with one
 * pass over the trace: each chunk is fetched (and its address side
 * stream decoded) once, then every model prices it while it is
 * cache-resident. Results are index-aligned with @p configs and
 * bit-identical to calling replay() per config. When no config in
 * the batch models real caches, the varint side stream is never
 * decoded at all. A record whose static id lies past the trace's op
 * table panics before any config prices its chunk.
 *
 * @param pool optional: spread the batch across worker threads,
 * one lane per usable thread (each lane walks the trace
 * independently; chunk decode is then paid once per lane), so
 * aggregate throughput scales with cores. Pass nullptr to price the
 * whole batch as a single lane on the calling thread.
 */
std::vector<SimResult> replayBatch(const TraceBuffer &trace,
                                   std::span<const SimConfig> configs,
                                   ThreadPool *pool = nullptr);

} // namespace predilp

#endif // PREDILP_SIM_TIMING_HH
