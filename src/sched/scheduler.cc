#include "sched/scheduler.hh"

#include <algorithm>

#include "sched/depgraph.hh"
#include "support/logging.hh"

namespace predilp
{

namespace
{

/** Schedule one block; @return its schedule length in cycles. */
long
scheduleBlock(Function &fn, BasicBlock &bb, const Liveness &liveness,
              const MachineConfig &config, bool allowSpeculation,
              ScheduleStats &stats)
{
    auto &instrs = bb.instrs();
    std::size_t n = instrs.size();
    if (n == 0)
        return 0;

    DepGraph graph(fn, bb, liveness, config, allowSpeculation);

    std::vector<int> remaining(n);
    std::vector<long> readyAt(n, 0);
    std::vector<bool> scheduled(n, false);
    for (std::size_t i = 0; i < n; ++i)
        remaining[i] = graph.predCount(i);

    std::vector<std::size_t> order; // emission order.
    std::vector<int> cycles(n, 0);
    order.reserve(n);

    long cycle = 0;
    int slots = 0;
    int branchSlots = 0;
    std::size_t done = 0;

    while (done < n) {
        // Pick the ready instruction with the greatest height.
        std::size_t best = n;
        long bestHeight = -1;
        if (slots < config.issueWidth) {
            for (std::size_t i = 0; i < n; ++i) {
                if (scheduled[i] || remaining[i] != 0 ||
                    readyAt[i] > cycle) {
                    continue;
                }
                bool isBranch = instrs[i].isControlTransfer() ||
                                instrs[i].isCall();
                if (isBranch &&
                    branchSlots >= config.branchesPerCycle) {
                    continue;
                }
                if (graph.height(i) > bestHeight) {
                    bestHeight = graph.height(i);
                    best = i;
                }
            }
        }

        if (best == n) {
            cycle += 1;
            slots = 0;
            branchSlots = 0;
            continue;
        }

        scheduled[best] = true;
        cycles[best] = static_cast<int>(cycle);
        order.push_back(best);
        slots += 1;
        if (instrs[best].isControlTransfer() ||
            instrs[best].isCall()) {
            branchSlots += 1;
        }
        done += 1;
        for (const auto &edge : graph.succs(best)) {
            remaining[static_cast<std::size_t>(edge.to)] -= 1;
            readyAt[static_cast<std::size_t>(edge.to)] = std::max(
                readyAt[static_cast<std::size_t>(edge.to)],
                cycle + edge.latency);
        }
    }

    // Rebuild the instruction list in emission order and annotate
    // issue cycles. Instructions that moved above a branch (their
    // original position was after it) become speculative.
    std::vector<Instruction> emitted;
    emitted.reserve(n);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        std::size_t idx = order[pos];
        Instruction instr = std::move(instrs[idx]);
        instr.setIssueCycle(cycles[idx]);
        emitted.push_back(std::move(instr));
    }

    // Mark hoisted trapping instructions silent: instruction with
    // original index oi emitted while some branch with original
    // index < oi is emitted later.
    std::vector<std::size_t> originalOf = order;
    for (std::size_t pos = 0; pos < emitted.size(); ++pos) {
        Instruction &instr = emitted[pos];
        if (!instr.info().canTrap || instr.speculative())
            continue;
        std::size_t oi = originalOf[pos];
        for (std::size_t later = pos + 1; later < emitted.size();
             ++later) {
            const Instruction &other = emitted[later];
            bool isBranch = other.isControlTransfer() ||
                            other.isCall();
            if (isBranch && originalOf[later] < oi) {
                instr.setSpeculative(true);
                stats.speculated += 1;
                break;
            }
        }
    }

    instrs = std::move(emitted);
    long length =
        instrs.empty() ? 0 : instrs.back().issueCycle() + 1;
    for (const auto &instr : instrs) {
        length = std::max(length,
                          static_cast<long>(instr.issueCycle()) + 1);
    }
    return length;
}

} // namespace

ScheduleStats
scheduleFunction(Function &fn, const MachineConfig &config,
                 bool allowSpeculation)
{
    ScheduleStats stats;
    CfgInfo cfg(fn);
    Liveness liveness(fn, cfg);
    for (BlockId id : fn.layout()) {
        BasicBlock *bb = fn.block(id);
        stats.totalCycles += scheduleBlock(fn, *bb, liveness, config,
                                           allowSpeculation, stats);
        stats.totalInstrs +=
            static_cast<long>(bb->instrs().size());
    }
    return stats;
}

ScheduleStats
scheduleProgram(Program &prog, const MachineConfig &config)
{
    ScheduleStats stats;
    for (auto &fn : prog.functions()) {
        ScheduleStats s = scheduleFunction(*fn, config);
        stats.totalCycles += s.totalCycles;
        stats.totalInstrs += s.totalInstrs;
        stats.speculated += s.speculated;
    }
    return stats;
}

} // namespace predilp
