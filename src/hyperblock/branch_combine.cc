#include <set>
#include <vector>

#include "analysis/liveness.hh"
#include "hyperblock/hyperblock.hh"
#include "support/logging.hh"

namespace predilp
{

namespace
{

/** Combine only exits taken with at most this probability. */
constexpr double maxTakenProb = 0.05;

/** Minimum number of combinable exits to bother. */
constexpr std::size_t minRun = 2;

/** One maximal combinable run of exit branches in a block. */
struct Run
{
    std::vector<std::size_t> branchPositions;
};

/**
 * Scan @p bb for runs of unlikely exit branches separated only by
 * instructions whose execution may be safely delayed past the exits:
 * no memory/IO/calls, no possible traps, and destinations dead at
 * every earlier combined target.
 */
std::vector<Run>
findRuns(const Function &fn, const BasicBlock &bb,
         const FunctionProfile &profile, const Liveness &liveness)
{
    const RegIndexer &indexer = liveness.indexer();
    std::vector<Run> runs;
    Run current;
    // Union of live-in sets at targets of branches in the current
    // run; intervening defs must avoid it.
    BitVector liveAtTargets(indexer.size());
    std::uint64_t entries = profile.blockCount(bb.id());

    // Guard predicates of combined jumps: the decode block
    // re-dispatches on them, so nothing between may redefine them.
    std::set<Reg> dispatchPreds;

    auto close = [&]() {
        if (current.branchPositions.size() >= minRun)
            runs.push_back(current);
        current = Run{};
        liveAtTargets.clearAll();
        dispatchPreds.clear();
    };

    std::vector<Reg> scratch;
    const auto &instrs = bb.instrs();
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction &instr = instrs[i];

        bool combinableExit =
            instr.isCondBranch() ||
            (instr.isJump() && instr.guarded());
        if (combinableExit) {
            double prob =
                entries == 0
                    ? 1.0
                    : static_cast<double>(
                          profile.takenCount(instr.id())) /
                          static_cast<double>(entries);
            if (prob <= maxTakenProb) {
                current.branchPositions.push_back(i);
                liveAtTargets.unionWith(
                    liveness.liveIn(instr.target()));
                if (instr.isJump())
                    dispatchPreds.insert(instr.guard());
                continue;
            }
            close();
            continue;
        }
        if (instr.isControlTransfer() || instr.isCall()) {
            close();
            continue;
        }
        if (current.branchPositions.empty())
            continue;

        // Legality of delaying the exits past this instruction.
        // Potentially-trapping instructions are fine: the machine
        // has non-excepting forms (§4.1), and applyRun switches any
        // such instruction in the run's span to its silent form.
        const auto &info = instr.info();
        bool legal = !info.sideEffect && !instr.isStore() &&
                     instr.op() != Opcode::GetC;
        if (legal) {
            scratch.clear();
            collectDefs(instr, fn, scratch);
            for (Reg reg : scratch) {
                if (liveAtTargets.test(indexer.index(reg)) ||
                    dispatchPreds.count(reg) != 0) {
                    legal = false;
                }
            }
        }
        if (!legal)
            close();
    }
    close();
    return runs;
}

/** Apply one run: defines + combined jump + decode block. */
void
applyRun(Function &fn, BlockId blockId, const Run &run)
{
    // Create the decode block first (block creation may reallocate).
    BasicBlock *decode = fn.newBlock(
        fn.block(blockId)->name() + ".decode");
    BlockId decodeId = decode->id();

    BasicBlock *bb = fn.block(blockId);
    auto &instrs = bb->instrs();

    Reg pcomb = fn.newPredReg();
    std::vector<Reg> linkPreds;
    std::vector<BlockId> targets;

    for (std::size_t pos : run.branchPositions) {
        Instruction &br = instrs[pos];
        targets.push_back(br.target());
        if (br.isCondBranch()) {
            Reg pj = fn.newPredReg();
            linkPreds.push_back(pj);
            Instruction def =
                fn.makeInstr(branchToPredDefine(br.op()));
            def.addPredDest(pj, PredType::U);
            def.addPredDest(pcomb, PredType::Or);
            def.addSrc(br.src(0));
            def.addSrc(br.src(1));
            def.setGuard(br.guard());
            instrs[pos] = std::move(def);
        } else {
            // Predicated exit jump: its guard already is the
            // dispatch predicate; only accumulate it into pcomb.
            panicIf(!br.isJump() || !br.guarded(),
                    "combine position is not an exit");
            linkPreds.push_back(br.guard());
            Instruction def = fn.makeInstr(Opcode::PredEq);
            def.addPredDest(pcomb, PredType::Or);
            def.addSrc(Operand::imm(0));
            def.addSrc(Operand::imm(0));
            def.setGuard(br.guard());
            instrs[pos] = std::move(def);
        }
    }

    // Instructions whose faults would now fire on the (delayed)
    // exit paths become silent.
    for (std::size_t i = run.branchPositions.front();
         i < run.branchPositions.back(); ++i) {
        Instruction &instr = instrs[i];
        if (instr.info().canTrap && !instr.isStore())
            instr.setSpeculative(true);
    }

    // Insert the combined jump right after the last define.
    Instruction jump = fn.makeInstr(Opcode::Jump);
    jump.setTarget(decodeId);
    jump.setGuard(pcomb);
    instrs.insert(instrs.begin() +
                      static_cast<std::ptrdiff_t>(
                          run.branchPositions.back() + 1),
                  std::move(jump));

    // Fill the decode block: re-dispatch in original priority order.
    decode = fn.block(decodeId);
    for (std::size_t j = 0; j < targets.size(); ++j) {
        Instruction dispatch = fn.makeInstr(Opcode::Jump);
        dispatch.setTarget(targets[j]);
        if (j + 1 < targets.size())
            dispatch.setGuard(linkPreds[j]);
        decode->instrs().push_back(std::move(dispatch));
    }

}

} // namespace

int
combineExitBranches(Function &fn, const FunctionProfile &profile)
{
    int combined = 0;
    // Snapshot: applyRun creates decode blocks; only scan the
    // original hyperblocks.
    std::vector<BlockId> blocks;
    for (BlockId id : fn.layout()) {
        if (fn.block(id)->kind() == BlockKind::Hyperblock)
            blocks.push_back(id);
    }

    for (BlockId id : blocks) {
        CfgInfo cfg(fn);
        Liveness liveness(fn, cfg);
        auto runs = findRuns(fn, *fn.block(id), profile, liveness);
        // Apply back-to-front so positions stay valid.
        bool applied = false;
        for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
            applyRun(fn, id, *it);
            applied = true;
            combined +=
                static_cast<int>(it->branchPositions.size());
        }
        // pcomb (OR type) must start each hyperblock entry at 0;
        // inserted once, after all runs, so scan positions stayed
        // valid during application.
        if (applied) {
            auto &instrs = fn.block(id)->instrs();
            if (instrs.empty() ||
                instrs.front().op() != Opcode::PredClear) {
                Instruction clear = fn.makeInstr(Opcode::PredClear);
                instrs.insert(instrs.begin(), std::move(clear));
            }
        }
    }
    return combined;
}

int
combineExitBranches(Program &prog, const ProgramProfile &profile)
{
    int combined = 0;
    for (auto &fn : prog.functions()) {
        const FunctionProfile *fp = profile.find(fn->name());
        if (fp == nullptr)
            continue;
        combined += combineExitBranches(*fn, *fp);
    }
    return combined;
}

} // namespace predilp
