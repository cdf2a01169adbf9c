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
 * cycle model (CycleModel) prices that buffer chunk by chunk.
 * replay() (trace/replay.hh) prices one configuration; simulate() is
 * exactly capture() followed by replay(), so a one-off run prices
 * the same records every figure does.
 *
 * replayBatch() streams each trace chunk once and advances N
 * independent CycleModels against it, so the chunk walk, the varint
 * address-side-stream decode, and the trace's memory traffic are
 * paid once per trace instead of once per configuration. All models
 * of a trace share one ReplayTable — a packed,
 * machine-independent static-op metadata table baked from the
 * StaticIndex — and price latencies through a 9-entry per-class
 * table, so the per-record hot path touches exactly one row.
 */

#ifndef PREDILP_SIM_TIMING_HH
#define PREDILP_SIM_TIMING_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sched/machine.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/scoreboard.hh"
#include "support/logging.hh"
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

/** StaticOpRow trait bits (machine-independent classification). */
constexpr std::uint8_t rowIsBranch = 1u << 0;
constexpr std::uint8_t rowIsLoad = 1u << 1;
constexpr std::uint8_t rowIsStore = 1u << 2;
constexpr std::uint8_t rowIsPredAll = 1u << 3;

/**
 * One packed row of a ReplayTable: everything the pricing hot path
 * reads per record, flattened into a single contiguous array indexed
 * by static id. Compared to StaticOp this bakes in the opcode's
 * LatencyClass ordinal (`cls`) — the only opcode property pricing
 * needs — so the per-record path is one row load plus a 9-entry
 * per-class latency table lookup, instead of a StaticOp load, a
 * parallel classes_[] load, and a lazily-grown latencies_[] load.
 * StaticOp itself stays unchanged: it is serialized in the artifact
 * store's on-disk format.
 */
struct StaticOpRow
{
    std::int64_t addr = 0; ///< fetch address (I-cache / BTB key).
    Reg guard;             ///< invalid when unguarded.
    Reg dest;              ///< invalid when no register result.
    std::uint32_t regBegin = 0;      ///< offset into the reg pool.
    std::uint16_t srcRegCount = 0;   ///< register sources.
    std::uint16_t predDestCount = 0; ///< pred dests (after sources).
    std::uint8_t cls = 0;    ///< LatencyClass ordinal.
    std::uint8_t kind = 0;   ///< StaticOp::Kind ordinal.
    std::uint8_t traits = 0; ///< rowIs* bits.
};

/**
 * Pre-baked static-op metadata for replay: the packed row array, the
 * register-operand pool, and the per-class register bounds, built
 * once per StaticIndex and shared read-only by every CycleModel in a
 * batch. Holds a pointer into @p index's register pool, so the index
 * (in practice: the TraceBuffer that owns it) must outlive the
 * table. Build cost is O(static ops) — noise next to any replay.
 */
class ReplayTable
{
  public:
    explicit ReplayTable(const StaticIndex &index);

    const StaticOpRow *rows() const { return rows_.data(); }
    std::size_t size() const { return rows_.size(); }

    /** Pooled register operands (srcs then pred dests per row). */
    const Reg *regPool() const { return regPool_; }

    /** Per-class register bounds (Int, Float, Pred order). */
    const std::array<int, 3> &regBounds() const { return regBounds_; }

  private:
    std::vector<StaticOpRow> rows_;
    const Reg *regPool_ = nullptr;
    std::array<int, 3> regBounds_{};
};

/**
 * The in-order pipeline pricing model. Feed it a captured trace one
 * chunk at a time via onChunk(), then collect the SimResult with
 * finish().
 *
 * Decode information is read from packed StaticOpRows borrowed from
 * a shared ReplayTable (complete up front, zero per-model bake
 * cost). Per-machine latencies live in a 9-entry per-class table, so
 * the per-record path performs no map lookups and never touches IR
 * data structures.
 */
class CycleModel
{
  public:
    /**
     * Rows come from @p table, shared read-only across every model
     * of a batch; the table must outlive the model. A record whose
     * static id lies outside the table panics.
     */
    CycleModel(const ReplayTable &table, const SimConfig &config);

    /**
     * Price a span of packed trace entries in one call — the chunked
     * replay hot path. @p addrs is the span's pre-decoded absolute
     * address run: one address per traceHasMemAddr-flagged entry, in
     * entry order (TraceBuffer::ChunkCursor produces exactly this).
     * When this model never reads addresses (perfect caches), pass
     * addrs == nullptr to skip the address-run walk; flagged entries
     * then price with a zero address, which such configs never
     * observe.
     */
    void onChunk(const TraceEntry *entries, std::size_t count,
                 const std::int64_t *addrs);

    /** @return true when pricing reads memory addresses. */
    bool readsAddresses() const { return !config_.perfectCaches; }

    /** Finalize: attach the functional run's outcome. */
    SimResult finish(std::int64_t exitValue, std::string output);

  private:
    /**
     * Row of @p staticId. Range-checked because a trace loaded from
     * the artifact store is outside input: its entry ids are never
     * checked against its ops table on load.
     */
    const StaticOpRow &
    row(std::uint32_t staticId) const
    {
        if (staticId >= rowCount_) [[unlikely]] {
            panic("static id ", staticId,
                  " outside the shared ReplayTable (", rowCount_,
                  " rows): replay-mode models cannot bake new rows");
        }
        return rows_[staticId];
    }

    void priceRecord(const StaticOpRow &row, std::uint32_t flags,
                     std::int64_t memAddr);
    void setReady(const StaticOpRow &row, long when);
    void advanceTo(long target);
    void drain();
    void handleControl(const StaticOpRow &row, bool taken);

    static constexpr std::size_t numLatencyClasses = 9;

    /** The shared ReplayTable's rows and register pool. */
    const StaticOpRow *rows_ = nullptr;
    std::size_t rowCount_ = 0;
    const Reg *regPool_ = nullptr;
    /**
     * Stored by value: callers routinely build a SimConfig inline
     * (or on a worker's stack) and the model must outlive it.
     */
    const SimConfig config_;
    /** Machine latency per LatencyClass ordinal. */
    std::array<int, numLatencyClasses> latByClass_{};
    SetAssocCache icache_;
    SetAssocCache dcache_;
    BranchTargetBuffer btb_;
    RegScoreboard scoreboard_;
    long cycle_ = 0;
    int slots_ = 0;
    int branchSlots_ = 0;
    std::array<std::uint64_t, numLatencyClasses> issuedByClass_{};
    std::uint64_t widthStallCycles_ = 0;
    std::uint64_t branchStallCycles_ = 0;
    SimResult result_;
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
 * decoded at all.
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
