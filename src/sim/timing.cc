#include "sim/timing.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "trace/replay.hh"

namespace predilp
{

namespace
{

/** Bake the pricing row of one interned static op. */
StaticOpRow
makeStaticOpRow(const StaticOp &op)
{
    StaticOpRow row;
    row.addr = op.addr;
    row.guard = op.guard;
    row.dest = op.dest;
    row.regBegin = op.regBegin;
    row.srcRegCount = op.srcRegCount;
    row.predDestCount = op.predDestCount;
    row.cls = static_cast<std::uint8_t>(opcodeInfo(op.op).latency);
    row.kind = static_cast<std::uint8_t>(op.kind);
    row.traits = static_cast<std::uint8_t>(
        (op.isBranch ? rowIsBranch : 0) |
        (op.isLoad ? rowIsLoad : 0) | (op.isStore ? rowIsStore : 0) |
        (op.isPredAll ? rowIsPredAll : 0));
    return row;
}

/** Bake a SimConfig's per-LatencyClass latency table. */
std::array<int, 9>
bakeLatencies(const MachineConfig &machine)
{
    std::array<int, 9> lat{};
    for (std::size_t cls = 0; cls < lat.size(); ++cls) {
        lat[cls] = machine.latencyOfClass(
            static_cast<LatencyClass>(cls));
    }
    return lat;
}

} // namespace

ReplayTable::ReplayTable(const StaticIndex &index)
    : regPool_(index.regPool().data()),
      regBounds_{index.regBound(RegClass::Int),
                 index.regBound(RegClass::Float),
                 index.regBound(RegClass::Pred)}
{
    rows_.reserve(index.size());
    for (const StaticOp &op : index.ops())
        rows_.push_back(makeStaticOpRow(op));
}

CycleModel::CycleModel(const ReplayTable &table,
                       const SimConfig &config)
    : rows_(table.rows()), rowCount_(table.size()),
      regPool_(table.regPool()), config_(config),
      latByClass_(bakeLatencies(config.machine)),
      icache_(config.cacheSizeBytes, config.cacheLineBytes,
              config.cacheAssociativity),
      dcache_(config.cacheSizeBytes, config.cacheLineBytes,
              config.cacheAssociativity),
      btb_(config.btbEntries, config.btbAssociativity,
           config.predictor),
      scoreboard_(table.regBounds())
{}

inline void
CycleModel::priceRecord(const StaticOpRow &row, std::uint32_t flags,
                        std::int64_t memAddr)
{
    const bool nullified = (flags & traceNullified) != 0;
    result_.dynInstrs += 1;
    if (nullified)
        result_.nullified += 1;

    // --- fetch: instruction cache ---
    if (!config_.perfectCaches) {
        if (!icache_.access(row.addr)) {
            result_.icacheMisses += 1;
            advanceTo(cycle_ + config_.cacheMissPenalty);
        }
    }

    // --- operand readiness (register interlocks) ---
    long t = cycle_;
    if (row.guard.valid())
        t = std::max(t, scoreboard_.readyAt(row.guard));
    if (!nullified) {
        // A squashed instruction is suppressed at decode and never
        // reads its data operands.
        const Reg *srcs = regPool_ + row.regBegin;
        for (std::uint16_t i = 0; i < row.srcRegCount; ++i)
            t = std::max(t, scoreboard_.readyAt(srcs[i]));
        // OR/AND-type defines merge with the old value, but
        // same-sense accumulations issue simultaneously (wired-OR,
        // paper §2.1): no stall on the destination.
    }
    advanceTo(t);

    // --- issue slot allocation ---
    const bool isBranch = (row.traits & rowIsBranch) != 0;
    while (slots_ >= config_.machine.issueWidth ||
           (isBranch &&
            branchSlots_ >= config_.machine.branchesPerCycle)) {
        if (slots_ >= config_.machine.issueWidth)
            widthStallCycles_ += 1;
        else
            branchStallCycles_ += 1;
        advanceTo(cycle_ + 1);
    }
    slots_ += 1;
    if (isBranch)
        branchSlots_ += 1;

    // --- execution / destination readiness ---
    int latency = latByClass_[row.cls];
    issuedByClass_[row.cls] += 1;
    if (!nullified) {
        if ((row.traits & rowIsLoad) != 0) {
            result_.loads += 1;
            if (!config_.perfectCaches &&
                (flags & traceHasMemAddr) != 0 &&
                !dcache_.access(memAddr)) {
                result_.dcacheMisses += 1;
                latency += config_.cacheMissPenalty;
            }
        } else if ((row.traits & rowIsStore) != 0) {
            result_.stores += 1;
            if (!config_.perfectCaches &&
                (flags & traceHasMemAddr) != 0 &&
                !dcache_.writeAccess(memAddr)) {
                result_.dcacheMisses += 1;
                // Write-through with a write buffer: no stall.
            }
        }
        setReady(row, cycle_ + latency);
    }

    // --- control ---
    if (!nullified && isBranch)
        handleControl(row, (flags & traceTaken) != 0);
}

void
CycleModel::onChunk(const TraceEntry *entries, std::size_t count,
                    const std::int64_t *addrs)
{
    // One bounds check per chunk instead of two per record; the
    // address run was decoded once by the ChunkCursor, so the only
    // per-record memory-stream work left is a pointer bump. The
    // addrs == nullptr variant skips even that: perfect-cache
    // configs never read the address, so flagged entries price
    // against zero.
    if (addrs == nullptr) {
        for (std::size_t i = 0; i < count; ++i) {
            const TraceEntry entry = entries[i];
            priceRecord(row(entry.staticId()), entry.flags(), 0);
        }
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        const TraceEntry entry = entries[i];
        const std::uint32_t flags = entry.flags();
        std::int64_t memAddr = 0;
        if ((flags & traceHasMemAddr) != 0)
            memAddr = *addrs++;
        priceRecord(row(entry.staticId()), flags, memAddr);
    }
}

namespace
{

/** Counter-name leaf for each LatencyClass, in enum order. */
constexpr const char *latencyClassNames[] = {
    "int_alu", "int_mul", "int_div", "fp_alu", "fp_div",
    "load",    "store",   "branch",  "pred_define",
};

} // namespace

SimResult
CycleModel::finish(std::int64_t exitValue, std::string output)
{
    result_.cycles = static_cast<std::uint64_t>(cycle_ + 1);
    result_.exitValue = exitValue;
    result_.output = std::move(output);

    StatsSnapshot &stats = result_.stats;
    static_assert(std::size(latencyClassNames) == 9,
                  "one name per LatencyClass");
    for (std::size_t i = 0; i < numLatencyClasses; ++i) {
        stats.setCounter(std::string("sim.issue.") +
                             latencyClassNames[i],
                         issuedByClass_[i]);
    }
    stats.setCounter("sim.btb.lookups", btb_.lookups());
    stats.setCounter("sim.btb.mispredicts", result_.mispredicts);
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
                     widthStallCycles_);
    stats.setCounter("sim.slots.branch_stall_cycles",
                     branchStallCycles_);
    return result_;
}

void
CycleModel::setReady(const StaticOpRow &row, long when)
{
    if (row.dest.valid())
        scoreboard_.setDest(row.dest, when);
    const Reg *predDests = regPool_ + row.regBegin + row.srcRegCount;
    for (std::uint16_t i = 0; i < row.predDestCount; ++i) {
        // Accumulated predicates become ready when the *latest*
        // contribution completes.
        scoreboard_.accumulate(predDests[i], when);
    }
    if ((row.traits & rowIsPredAll) != 0) {
        // Whole-file write: conservatively mark every predicate
        // register known so far.
        scoreboard_.setAllPred(when);
    }
}

void
CycleModel::advanceTo(long target)
{
    if (target > cycle_) {
        cycle_ = target;
        slots_ = 0;
        branchSlots_ = 0;
    }
}

/** Drain outstanding writes (used at call boundaries). */
void
CycleModel::drain()
{
    long latest = scoreboard_.maxOutstanding(cycle_);
    scoreboard_.clear();
    advanceTo(latest);
}

void
CycleModel::handleControl(const StaticOpRow &row, bool taken)
{
    // A taken transfer redirects fetch: its target instructions
    // issue from the next cycle (they were not in this fetch
    // group). Mispredictions additionally cost the 2-cycle
    // penalty of §4.1. Correctly-predicted not-taken branches
    // are free beyond their branch slot.
    switch (static_cast<StaticOp::Kind>(row.kind)) {
      case StaticOp::Kind::CondBranch: {
        result_.branches += 1;
        result_.condBranches += 1;
        if (btb_.predictAndTrain(row.addr, taken) != taken) {
            result_.mispredicts += 1;
            advanceTo(cycle_ + 1 + config_.machine.mispredictPenalty);
        } else if (taken) {
            advanceTo(cycle_ + 1);
        }
        return;
      }
      case StaticOp::Kind::Jump:
        result_.branches += 1;
        advanceTo(cycle_ + 1);
        return;
      case StaticOp::Kind::CallRet:
        // Calls and returns: frame changes; drain outstanding
        // writes.
        drain();
        advanceTo(cycle_ + 1);
        return;
      case StaticOp::Kind::Plain:
        return;
    }
}

namespace
{

/**
 * Price one lane of configs with a single pass over the trace. The
 * address side stream is decoded only when some lane member models
 * real caches, and handed only to those members.
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
        for (CycleModel &model : models) {
            model.onChunk(entries, count,
                          model.readsAddresses() ? addrs : nullptr);
        }
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
