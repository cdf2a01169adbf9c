#include "analysis/cfg.hh"
#include "ir/function.hh"
#include "opt/transforms.hh"

namespace predilp
{

namespace
{

/**
 * @return the final destination of an empty-jump chain starting at
 * @p id: while the target block contains only an unguarded jump,
 * follow it (cycle-bounded).
 */
BlockId
threadTarget(Function &fn, BlockId id)
{
    BlockId cur = id;
    for (int hops = 0; hops < 16; ++hops) {
        const BasicBlock *bb = fn.block(cur);
        if (bb->instrs().size() != 1)
            return cur;
        const Instruction &only = bb->instrs().front();
        if (!only.isJump() || only.guarded())
            return cur;
        if (only.target() == cur)
            return cur; // self loop.
        cur = only.target();
    }
    return cur;
}

int
threadJumps(Function &fn)
{
    int threaded = 0;
    for (BlockId id : fn.layout()) {
        BasicBlock *bb = fn.block(id);
        for (auto &instr : bb->instrs()) {
            if ((instr.isCondBranch() || instr.isJump()) &&
                instr.target() != invalidBlock) {
                BlockId dest = threadTarget(fn, instr.target());
                if (dest != instr.target()) {
                    instr.setTarget(dest);
                    threaded += 1;
                }
            }
        }
        if (bb->fallthrough() != invalidBlock) {
            BlockId dest = threadTarget(fn, bb->fallthrough());
            if (dest != bb->fallthrough()) {
                bb->setFallthrough(dest);
                threaded += 1;
            }
        }
    }
    return threaded;
}

/** Merge straight-line pairs: B -> C where C has exactly one pred. */
bool
mergePairs(Function &fn)
{
    CfgInfo cfg(fn);
    for (BlockId id : fn.layout()) {
        BasicBlock *bb = fn.block(id);
        if (bb->instrs().empty())
            continue;

        // B must transfer to exactly one block, unconditionally.
        BlockId succ = invalidBlock;
        bool viaJump = false;
        const Instruction &last = bb->instrs().back();
        if (last.isJump() && !last.guarded()) {
            // No other transfers before it?
            bool clean = true;
            for (std::size_t i = 0; i + 1 < bb->instrs().size(); ++i) {
                if (bb->instrs()[i].isControlTransfer())
                    clean = false;
            }
            if (clean) {
                succ = last.target();
                viaJump = true;
            }
        } else if (bb->fallthrough() != invalidBlock) {
            bool clean = true;
            for (const auto &instr : bb->instrs()) {
                if (instr.isControlTransfer())
                    clean = false;
            }
            if (clean)
                succ = bb->fallthrough();
        }
        if (succ == invalidBlock || succ == id)
            continue;
        if (succ == fn.layout().front())
            continue; // never merge the entry away.
        if (cfg.preds(succ).size() != 1)
            continue;

        BasicBlock *sb = fn.block(succ);
        if (viaJump)
            bb->instrs().pop_back();
        for (auto &instr : sb->instrs())
            bb->instrs().push_back(std::move(instr));
        sb->instrs().clear();
        bb->setFallthrough(sb->fallthrough());
        fn.pruneUnreachable();
        return true; // CFG changed; caller re-iterates.
    }
    return false;
}

} // namespace

int
simplifyCfg(Function &fn)
{
    int changes = threadJumps(fn);
    fn.pruneUnreachable();
    for (int iter = 0; iter < 200; ++iter) {
        if (!mergePairs(fn))
            break;
        changes += 1;
    }
    return changes;
}

} // namespace predilp
