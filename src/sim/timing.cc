#include "sim/timing.hh"

#include <algorithm>
#include <array>
#include <limits>

#include "sim/cache.hh"
#include "sim/scoreboard.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "trace/replay.hh"

namespace predilp
{

namespace
{

/** StaticOpRow trait bits (machine-independent classification). */
constexpr std::uint8_t rowIsBranch = 1u << 0;
constexpr std::uint8_t rowIsLoad = 1u << 1;
constexpr std::uint8_t rowIsStore = 1u << 2;
constexpr std::uint8_t rowIsPredAll = 1u << 3;

constexpr std::size_t numLatencyClasses = 9;

/**
 * One packed row of a ReplayTable: everything pricing reads per
 * record, in one array indexed by static id. Register operands are
 * baked to flat scoreboard slots (slot 0: no register). The first
 * two register sources sit in the row; no record of the sweep's
 * traces has more. Further sources, then the predicate destinations,
 * are read from the table's slot pool. `cls` is the opcode's
 * LatencyClass ordinal, the only opcode property pricing needs.
 * StaticOp itself stays unchanged: it is the artifact store's
 * on-disk format.
 */
struct StaticOpRow
{
    std::int64_t addr = 0; ///< fetch address (I-cache / BTB key).
    std::uint32_t guardSlot = 0;
    std::uint32_t destSlot = 0;
    std::array<std::uint32_t, 2> srcSlots{};
    std::uint32_t poolBegin = 0;     ///< offset into the slot pool.
    std::uint16_t extraSrcCount = 0; ///< sources past srcSlots.
    std::uint16_t predDestCount = 0; ///< pred dests (after those).
    std::uint8_t cls = 0;    ///< LatencyClass ordinal.
    std::uint8_t kind = 0;   ///< StaticOp::Kind ordinal.
    std::uint8_t traits = 0; ///< rowIs* bits.
};

/**
 * Pre-baked static-op metadata for replay: the row array, the slot
 * pool and the shape of the flat scoreboard, built once per trace
 * and shared read-only by every model of a batch. Owns all of it.
 *
 * Slot 0 is "no register"; the Int, Float and Pred registers follow
 * in that order, each class sized by its StaticIndex bound. The
 * scoreboard does no bounds check, so the build panics on any
 * operand it could not index: a register at or past its class's
 * bound, a negative bound, or a pool entry that names no register.
 * The artifact loader rejects all three, and the IR verifier admits
 * none.
 */
class ReplayTable
{
  public:
    explicit ReplayTable(const StaticIndex &index);

    const StaticOpRow *rows() const { return rows_.data(); }
    std::size_t size() const { return rows_.size(); }
    const std::uint32_t *slotPool() const { return slotPool_.data(); }
    std::uint32_t slotCount() const { return slotCount_; }
    std::uint32_t predSlotBase() const { return predSlotBase_; }

  private:
    std::vector<StaticOpRow> rows_;
    std::vector<std::uint32_t> slotPool_;
    std::uint32_t slotCount_ = 1;
    std::uint32_t predSlotBase_ = 1;
};

ReplayTable::ReplayTable(const StaticIndex &index)
{
    std::array<std::uint32_t, 3> base{};
    std::uint64_t next = 1;
    for (std::size_t cls = 0; cls < base.size(); ++cls) {
        const int bound = index.regBound(static_cast<RegClass>(cls));
        panicIf(bound < 0, "negative register bound ", bound);
        base[cls] = static_cast<std::uint32_t>(next);
        next += static_cast<std::uint64_t>(bound);
    }
    panicIf(next > std::numeric_limits<std::uint32_t>::max(),
            "register bounds overflow the scoreboard");
    slotCount_ = static_cast<std::uint32_t>(next);
    predSlotBase_ = base[2];

    const auto slotOf = [&](Reg reg) -> std::uint32_t {
        if (!reg.valid())
            return 0;
        const int bound = index.regBound(reg.cls());
        if (reg.idx() >= bound) [[unlikely]] {
            panic("register ", reg.toString(),
                  " outside its class bound ", bound);
        }
        return base[static_cast<std::size_t>(reg.cls())] +
               static_cast<std::uint32_t>(reg.idx());
    };
    const auto poolSlotOf = [&](Reg reg) {
        panicIf(!reg.valid(), "register pool entry names no register");
        return slotOf(reg);
    };

    rows_.reserve(index.size());
    for (const StaticOp &op : index.ops()) {
        const Reg *regs = index.regs(op);
        StaticOpRow row;
        row.addr = op.addr;
        row.guardSlot = slotOf(op.guard);
        row.destSlot = slotOf(op.dest);
        const std::uint16_t inRow =
            std::min<std::uint16_t>(op.srcRegCount, 2);
        for (std::uint16_t i = 0; i < inRow; ++i)
            row.srcSlots[i] = poolSlotOf(regs[i]);
        row.poolBegin = static_cast<std::uint32_t>(slotPool_.size());
        row.extraSrcCount =
            static_cast<std::uint16_t>(op.srcRegCount - inRow);
        row.predDestCount = op.predDestCount;
        for (std::uint32_t i = inRow;
             i < std::uint32_t{op.srcRegCount} + op.predDestCount; ++i)
            slotPool_.push_back(poolSlotOf(regs[i]));
        row.cls = static_cast<std::uint8_t>(opcodeInfo(op.op).latency);
        row.kind = static_cast<std::uint8_t>(op.kind);
        row.traits = static_cast<std::uint8_t>(
            (op.isBranch ? rowIsBranch : 0) |
            (op.isLoad ? rowIsLoad : 0) |
            (op.isStore ? rowIsStore : 0) |
            (op.isPredAll ? rowIsPredAll : 0));
        rows_.push_back(row);
    }
}

/** Bake a machine's per-LatencyClass latency table. */
std::array<int, numLatencyClasses>
bakeLatencies(const MachineConfig &machine)
{
    std::array<int, numLatencyClasses> lat{};
    for (std::size_t cls = 0; cls < lat.size(); ++cls) {
        lat[cls] = machine.latencyOfClass(
            static_cast<LatencyClass>(cls));
    }
    return lat;
}

/** What a model counts while it prices, beside its cycle. */
struct Counters
{
    std::uint64_t dynInstrs = 0;
    std::uint64_t nullified = 0;
    std::uint64_t branches = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t dcacheMisses = 0;
    std::uint64_t widthStallCycles = 0;
    std::uint64_t branchStallCycles = 0;
    std::array<std::uint64_t, numLatencyClasses> issuedByClass{};
};

/**
 * The in-order pipeline pricing model of one configuration. Feed it
 * a trace one chunk at a time via onChunk(), then collect the
 * SimResult with finish().
 */
class CycleModel
{
  public:
    /**
     * Rows come from @p table, shared read-only across every model
     * of a batch; the table must outlive the model.
     */
    CycleModel(const ReplayTable &table, const SimConfig &config);

    /** @return true when pricing reads memory addresses. */
    bool readsAddresses() const { return !config_.perfectCaches; }

    /**
     * Price a span of packed trace entries whose static ids all lie
     * inside the table (checkStaticIds). @p addrs is the span's
     * pre-decoded absolute address run: one address per
     * traceHasMemAddr-flagged entry, in entry order
     * (TraceBuffer::ChunkCursor produces exactly this). A model that
     * does not read addresses ignores it, so it may be nullptr.
     */
    void
    onChunk(const TraceEntry *entries, std::size_t count,
            const std::int64_t *addrs)
    {
        if (readsAddresses())
            priceChunk<true>(entries, count, addrs);
        else
            priceChunk<false>(entries, count, nullptr);
    }

    /** Finalize: attach the functional run's outcome. */
    SimResult finish(std::int64_t exitValue, std::string output);

  private:
    template <bool RealCaches>
    void priceChunk(const TraceEntry *entries, std::size_t count,
                    const std::int64_t *addrs);

    const StaticOpRow *rows_;
    const std::uint32_t *slotPool_;
    /**
     * Stored by value: callers routinely build a SimConfig inline
     * (or on a worker's stack) and the model must outlive it.
     */
    const SimConfig config_;
    /** Machine latency per LatencyClass ordinal. */
    const std::array<int, numLatencyClasses> latByClass_;
    SetAssocCache icache_;
    SetAssocCache dcache_;
    BranchTargetBuffer btb_;
    RegScoreboard scoreboard_;
    long cycle_ = 0;
    int slots_ = 0;
    int branchSlots_ = 0;
    Counters counters_;
};

CycleModel::CycleModel(const ReplayTable &table,
                       const SimConfig &config)
    : rows_(table.rows()), slotPool_(table.slotPool()),
      config_(config), latByClass_(bakeLatencies(config.machine)),
      icache_(config.cacheSizeBytes, config.cacheLineBytes,
              config.cacheAssociativity),
      dcache_(config.cacheSizeBytes, config.cacheLineBytes,
              config.cacheAssociativity),
      btb_(config.btbEntries, config.btbAssociativity,
           config.predictor),
      scoreboard_(table.slotCount(), table.predSlotBase())
{
    // The issue-slot check advances at most one cycle per record,
    // and a new cycle frees a slot only when both widths are >= 1.
    panicIf(config.machine.issueWidth < 1 ||
                config.machine.branchesPerCycle < 1,
            "issue width and branch slots must be at least 1");
}

template <bool RealCaches>
void
CycleModel::priceChunk(const TraceEntry *entries, std::size_t count,
                       [[maybe_unused]] const std::int64_t *addrs)
{
    const int issueWidth = config_.machine.issueWidth;
    const int branchesPerCycle = config_.machine.branchesPerCycle;
    const int mispredictPenalty = config_.machine.mispredictPenalty;
    [[maybe_unused]] const int missPenalty = config_.cacheMissPenalty;
    long cycle = cycle_;
    int slots = slots_;
    int branchSlots = branchSlots_;
    Counters c = counters_;
    // A later cycle frees every issue and branch slot.
    const auto advanceTo = [&](long target) {
        if (target > cycle) {
            cycle = target;
            slots = 0;
            branchSlots = 0;
        }
    };

    for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t flags = entries[i].flags();
        const StaticOpRow &row = rows_[entries[i].staticId()];
        const bool nullified = (flags & traceNullified) != 0;
        c.nullified += nullified ? 1 : 0;

        // --- fetch: instruction cache ---
        [[maybe_unused]] std::int64_t memAddr = 0;
        if constexpr (RealCaches) {
            if ((flags & traceHasMemAddr) != 0)
                memAddr = *addrs++;
            if (!icache_.access(row.addr)) {
                c.icacheMisses += 1;
                advanceTo(cycle + missPenalty);
            }
        }

        // --- operand readiness (register interlocks) ---
        // Absent operands name slot 0, which reads 0. A squashed
        // instruction is suppressed at decode and never reads its
        // data operands. OR/AND-type defines merge with the old
        // value, but same-sense accumulations issue simultaneously
        // (wired-OR, paper §2.1): no stall on the destination.
        long ready = std::max(cycle, scoreboard_.readyAt(row.guardSlot));
        if (!nullified) {
            ready = std::max(ready, scoreboard_.readyAt(row.srcSlots[0]));
            ready = std::max(ready, scoreboard_.readyAt(row.srcSlots[1]));
            const std::uint32_t *extra = slotPool_ + row.poolBegin;
            for (std::uint16_t k = 0; k < row.extraSrcCount; ++k)
                ready = std::max(ready, scoreboard_.readyAt(extra[k]));
        }
        advanceTo(ready);

        // --- issue slot allocation ---
        // Both widths are at least 1, so one advance frees a slot.
        const bool isBranch = (row.traits & rowIsBranch) != 0;
        if (slots >= issueWidth) {
            c.widthStallCycles += 1;
            advanceTo(cycle + 1);
        } else if (isBranch && branchSlots >= branchesPerCycle) {
            c.branchStallCycles += 1;
            advanceTo(cycle + 1);
        }
        slots += 1;
        branchSlots += isBranch ? 1 : 0;
        c.issuedByClass[row.cls] += 1;
        if (nullified)
            continue;

        // --- execution / destination readiness ---
        int latency = latByClass_[row.cls];
        if ((row.traits & rowIsLoad) != 0) {
            c.loads += 1;
            if constexpr (RealCaches) {
                if ((flags & traceHasMemAddr) != 0 &&
                    !dcache_.access(memAddr)) {
                    c.dcacheMisses += 1;
                    latency += missPenalty;
                }
            }
        } else if ((row.traits & rowIsStore) != 0) {
            c.stores += 1;
            if constexpr (RealCaches) {
                // Write-through with a write buffer: no stall.
                if ((flags & traceHasMemAddr) != 0 &&
                    !dcache_.writeAccess(memAddr))
                    c.dcacheMisses += 1;
            }
        }
        const long done = cycle + latency;
        if (row.destSlot != 0)
            scoreboard_.setDest(row.destSlot, done);
        // Accumulated predicates become ready when the *latest*
        // contribution completes.
        const std::uint32_t *predDests =
            slotPool_ + row.poolBegin + row.extraSrcCount;
        for (std::uint16_t k = 0; k < row.predDestCount; ++k)
            scoreboard_.accumulate(predDests[k], done);
        // Whole-file write: conservatively mark every predicate
        // register known so far.
        if ((row.traits & rowIsPredAll) != 0)
            scoreboard_.setAllPred(done);

        // --- control ---
        // A taken transfer redirects fetch: its target instructions
        // issue from the next cycle (they were not in this fetch
        // group). Mispredictions additionally cost the 2-cycle
        // penalty of §4.1. Correctly-predicted not-taken branches
        // are free beyond their branch slot.
        if (!isBranch)
            continue;
        switch (static_cast<StaticOp::Kind>(row.kind)) {
          case StaticOp::Kind::CondBranch: {
            c.branches += 1;
            c.condBranches += 1;
            const bool taken = (flags & traceTaken) != 0;
            if (btb_.predictAndTrain(row.addr, taken) != taken) {
                c.mispredicts += 1;
                advanceTo(cycle + 1 + mispredictPenalty);
            } else if (taken) {
                advanceTo(cycle + 1);
            }
            break;
          }
          case StaticOp::Kind::Jump:
            c.branches += 1;
            advanceTo(cycle + 1);
            break;
          case StaticOp::Kind::CallRet: {
            // Calls and returns change frames: drain outstanding
            // writes.
            const long latest = scoreboard_.maxOutstanding(cycle);
            scoreboard_.clear();
            advanceTo(latest);
            advanceTo(cycle + 1);
            break;
          }
          case StaticOp::Kind::Plain:
            break;
        }
    }

    c.dynInstrs += count;
    cycle_ = cycle;
    slots_ = slots;
    branchSlots_ = branchSlots;
    counters_ = c;
}

/** Counter-name leaf for each LatencyClass, in enum order. */
constexpr const char *latencyClassNames[] = {
    "int_alu", "int_mul", "int_div", "fp_alu", "fp_div",
    "load",    "store",   "branch",  "pred_define",
};

SimResult
CycleModel::finish(std::int64_t exitValue, std::string output)
{
    const Counters &c = counters_;
    SimResult result;
    result.cycles = static_cast<std::uint64_t>(cycle_ + 1);
    result.dynInstrs = c.dynInstrs;
    result.nullified = c.nullified;
    result.branches = c.branches;
    result.condBranches = c.condBranches;
    result.mispredicts = c.mispredicts;
    result.loads = c.loads;
    result.stores = c.stores;
    result.icacheMisses = c.icacheMisses;
    result.dcacheMisses = c.dcacheMisses;
    result.exitValue = exitValue;
    result.output = std::move(output);

    StatsSnapshot &stats = result.stats;
    static_assert(std::size(latencyClassNames) == numLatencyClasses,
                  "one name per LatencyClass");
    for (std::size_t i = 0; i < numLatencyClasses; ++i) {
        stats.setCounter(std::string("sim.issue.") +
                             latencyClassNames[i],
                         c.issuedByClass[i]);
    }
    stats.setCounter("sim.btb.lookups", btb_.lookups());
    stats.setCounter("sim.btb.mispredicts", c.mispredicts);
    stats.setCounter("sim.btb.replacements", btb_.replacements());
    stats.setCounter("sim.icache.hits", icache_.hits());
    stats.setCounter("sim.icache.misses", icache_.misses());
    stats.setCounter("sim.icache.cold_misses", icache_.coldMisses());
    stats.setCounter("sim.icache.conflict_misses",
                     icache_.conflictMisses());
    stats.setCounter("sim.dcache.hits", dcache_.hits());
    stats.setCounter("sim.dcache.misses", dcache_.misses());
    stats.setCounter("sim.dcache.cold_misses", dcache_.coldMisses());
    stats.setCounter("sim.dcache.conflict_misses",
                     dcache_.conflictMisses());
    stats.setCounter("sim.slots.width_stall_cycles",
                     c.widthStallCycles);
    stats.setCounter("sim.slots.branch_stall_cycles",
                     c.branchStallCycles);
    return result;
}

/**
 * Panic unless every entry of the span names a row of a
 * @p rows-row table. A trace loaded from the artifact store is
 * outside input: its entry ids are never checked against its ops
 * table on load.
 */
void
checkStaticIds(const TraceEntry *entries, std::size_t count,
               std::size_t rows)
{
    std::uint32_t maxId = 0;
    for (std::size_t i = 0; i < count; ++i)
        maxId = std::max(maxId, entries[i].staticId());
    if (count != 0 && maxId >= rows) [[unlikely]] {
        panic("static id ", maxId, " outside the trace's op table (",
              rows, " ops)");
    }
}

/**
 * Price one lane of configs with a single pass over the trace. The
 * address side stream is decoded only when some lane member models
 * real caches, and read only by those members.
 */
void
replayLane(const TraceBuffer &trace, const ReplayTable &table,
           std::span<const SimConfig> configs, SimResult *out)
{
    std::vector<CycleModel> models;
    models.reserve(configs.size());
    bool needAddrs = false;
    for (const SimConfig &config : configs) {
        models.emplace_back(table, config);
        needAddrs = needAddrs || models.back().readsAddresses();
    }
    TraceBuffer::ChunkCursor cursor(trace, needAddrs);
    const TraceEntry *entries = nullptr;
    std::size_t count = 0;
    const std::int64_t *addrs = nullptr;
    while (cursor.next(entries, count, addrs)) {
        checkStaticIds(entries, count, table.size());
        for (CycleModel &model : models)
            model.onChunk(entries, count, addrs);
    }
    for (std::size_t i = 0; i < models.size(); ++i) {
        out[i] = models[i].finish(trace.run().exitValue,
                                  trace.run().output);
    }
}

} // namespace

SimResult
simulate(const Program &prog, const std::string &input,
         const SimConfig &config)
{
    return replay(*capture(prog, input, config.maxDynInstrs), config);
}

SimResult
replay(const TraceBuffer &trace, const SimConfig &config)
{
    ReplayTable table(trace.index());
    SimResult result;
    replayLane(trace, table, std::span<const SimConfig>(&config, 1),
               &result);
    return result;
}

std::vector<SimResult>
replayBatch(const TraceBuffer &trace,
            std::span<const SimConfig> configs, ThreadPool *pool)
{
    std::vector<SimResult> results(configs.size());
    if (configs.empty())
        return results;
    ReplayTable table(trace.index());

    // Lane sizing: with no pool (or a 1-thread pool) one lane takes
    // the whole batch, maximizing cursor/decode amortization; with a
    // pool the batch is split evenly into one lane per usable
    // thread, so aggregate throughput scales with cores while every
    // lane still streams each chunk once for all its configs.
    std::size_t laneWidth = configs.size();
    if (pool != nullptr && pool->threadCount() > 1) {
        const std::size_t laneCount =
            std::min(configs.size(),
                     static_cast<std::size_t>(pool->threadCount()));
        laneWidth = (configs.size() + laneCount - 1) / laneCount;
    }
    const std::size_t lanes =
        (configs.size() + laneWidth - 1) / laneWidth;
    if (lanes == 1) {
        replayLane(trace, table, configs, results.data());
        return results;
    }
    pool->parallelFor(lanes, [&](std::size_t lane) {
        const std::size_t begin = lane * laneWidth;
        const std::size_t count =
            std::min(laneWidth, configs.size() - begin);
        replayLane(trace, table, configs.subspan(begin, count),
                   results.data() + begin);
    });
    return results;
}

} // namespace predilp
