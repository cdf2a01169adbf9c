#include <algorithm>

#include "analysis/cfg.hh"
#include "ir/function.hh"
#include "opt/transforms.hh"
#include "support/logging.hh"

namespace predilp
{

namespace
{

/**
 * Pick the successor most likely to execute next after @p bb: the
 * edge with the highest profile count, preferring the terminal
 * transfer on ties (it is the "rest of the weight" edge).
 */
BlockId
likelyNext(const FunctionProfile *profile, const BasicBlock &bb)
{
    std::uint64_t entries =
        profile != nullptr ? profile->blockCount(bb.id()) : 0;
    std::uint64_t remaining = entries;

    BlockId best = invalidBlock;
    std::uint64_t bestCount = 0;
    bool first = true;

    for (const auto &instr : bb.instrs()) {
        if (instr.isCondBranch() ||
            (instr.isJump() && instr.guarded())) {
            std::uint64_t taken =
                profile != nullptr
                    ? profile->takenCount(instr.id())
                    : 0;
            if (first || taken > bestCount) {
                best = instr.target();
                bestCount = taken;
                first = false;
            }
            remaining -= std::min(remaining, taken);
        } else if (instr.isJump()) {
            if (first || remaining >= bestCount)
                return instr.target();
            return best;
        } else if (instr.isRet() && !instr.guarded()) {
            return best;
        }
    }
    if (bb.fallthrough() != invalidBlock) {
        if (first || remaining >= bestCount)
            return bb.fallthrough();
    }
    return best;
}

} // namespace

void
layoutFunction(Function &fn, const FunctionProfile *profile)
{
    if (fn.layout().empty())
        return;

    // Step 1: make every fallthrough explicit so reordering is free.
    for (BlockId id : fn.layout()) {
        BasicBlock *bb = fn.block(id);
        if (bb->fallthrough() != invalidBlock) {
            if (!bb->endsInUnconditionalTransfer()) {
                Instruction jump = fn.makeInstr(Opcode::Jump);
                jump.setTarget(bb->fallthrough());
                bb->instrs().push_back(std::move(jump));
            }
            bb->setFallthrough(invalidBlock);
        }
    }

    // Step 2: order blocks in chains along likely successors.
    std::vector<bool> placed(fn.numBlockIds(), false);
    std::vector<BlockId> order;
    auto place = [&](BlockId seed) {
        BlockId cur = seed;
        while (cur != invalidBlock &&
               !placed[static_cast<std::size_t>(cur)]) {
            placed[static_cast<std::size_t>(cur)] = true;
            order.push_back(cur);
            cur = likelyNext(profile, *fn.block(cur));
        }
    };

    place(fn.layout().front());
    // Remaining seeds: heaviest blocks first.
    std::vector<BlockId> rest;
    for (BlockId id : fn.layout()) {
        if (!placed[static_cast<std::size_t>(id)])
            rest.push_back(id);
    }
    std::stable_sort(rest.begin(), rest.end(),
                     [&](BlockId a, BlockId b) {
                         std::uint64_t wa =
                             profile ? profile->blockCount(a) : 0;
                         std::uint64_t wb =
                             profile ? profile->blockCount(b) : 0;
                         return wa > wb;
                     });
    for (BlockId id : rest)
        place(id);
    fn.layout() = order;

    // Step 3: convert jumps-to-next into fallthroughs, inverting the
    // preceding conditional branch when that is what saves the jump.
    for (std::size_t i = 0; i < order.size(); ++i) {
        BasicBlock *bb = fn.block(order[i]);
        BlockId next =
            i + 1 < order.size() ? order[i + 1] : invalidBlock;
        auto &instrs = bb->instrs();
        if (instrs.empty())
            continue;
        Instruction &last = instrs.back();
        if (!last.isJump() || last.guarded())
            continue;

        if (last.target() == next) {
            instrs.pop_back();
            bb->setFallthrough(next);
            continue;
        }
        if (instrs.size() >= 2) {
            Instruction &prev = instrs[instrs.size() - 2];
            if (prev.isCondBranch() && !prev.guarded() &&
                prev.target() == next) {
                prev.setOp(invertBranch(prev.op()));
                prev.setTarget(last.target());
                instrs.pop_back();
                bb->setFallthrough(next);
            }
        }
    }
}

void
layoutProgram(Program &prog, const ProgramProfile *profile)
{
    for (auto &fn : prog.functions()) {
        const FunctionProfile *fp =
            profile != nullptr ? profile->find(fn->name()) : nullptr;
        layoutFunction(*fn, fp);
    }
}

} // namespace predilp
