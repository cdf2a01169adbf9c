#include <algorithm>

#include "analysis/profile.hh"
#include "ir/function.hh"
#include "opt/transforms.hh"
#include "support/logging.hh"

namespace predilp
{

namespace
{

/** Minimum profile count for a loop block to unroll. */
constexpr std::uint64_t minCount = 256;

/** Only tight loops of at most this many instructions unroll. */
constexpr std::size_t maxBodyInstrs = 40;

/** Instruction budget of the unrolled body. */
constexpr std::size_t targetInstrs = 96;

/** At most this many copies of the body. */
constexpr std::size_t maxFactor = 4;

/**
 * Recognize a self-loop block (a formed superblock/hyperblock loop
 * or a tight plain loop): the last instruction transfers to the
 * block itself, either as an unguarded jump (hyperblock backedge) or
 * as a conditional branch (superblock backedge).
 */
bool
selfLoopShape(const BasicBlock &bb, bool &condBackedge,
              bool &trailingJump, BlockId &jumpExit)
{
    if (bb.instrs().empty())
        return false;
    const Instruction &last = bb.instrs().back();
    if (last.isJump() && !last.guarded() &&
        last.target() == bb.id()) {
        condBackedge = false;
        trailingJump = false;
        return true;
    }
    if (last.isCondBranch() && !last.guarded() &&
        last.target() == bb.id()) {
        condBackedge = true;
        trailingJump = false;
        return true;
    }
    // [..., bcc -> self, jump exit]
    if (bb.instrs().size() >= 2 && last.isJump() &&
        !last.guarded()) {
        const Instruction &prev =
            bb.instrs()[bb.instrs().size() - 2];
        if (prev.isCondBranch() && !prev.guarded() &&
            prev.target() == bb.id()) {
            condBackedge = true;
            trailingJump = true;
            jumpExit = last.target();
            return true;
        }
    }
    return false;
}

int
unrollBlock(Function &fn, BasicBlock &bb, int factor)
{
    bool condBackedge = false;
    bool trailingJump = false;
    BlockId jumpExit = invalidBlock;
    if (!selfLoopShape(bb, condBackedge, trailingJump, jumpExit))
        return 0;

    // The loop-exit continuation: where control goes when the
    // conditional backedge falls through.
    BlockId exitTarget =
        trailingJump ? jumpExit : bb.fallthrough();
    if (condBackedge && exitTarget == invalidBlock)
        return 0;

    std::vector<Instruction> body = bb.instrs();
    Instruction trailer;
    bool hasTrailer = trailingJump;
    if (trailingJump) {
        trailer = body.back();
        body.pop_back();
    }
    Instruction backedge = body.back();
    body.pop_back();

    std::vector<Instruction> unrolled;
    unrolled.reserve((body.size() + 1) *
                     static_cast<std::size_t>(factor));
    for (int copy = 0; copy < factor; ++copy) {
        for (const Instruction &orig : body) {
            Instruction instr = orig;
            if (copy > 0)
                instr.setId(fn.nextInstrId());
            unrolled.push_back(std::move(instr));
        }
        if (copy + 1 < factor) {
            if (condBackedge) {
                // Iterations continue by falling into the next
                // copy; leaving the loop branches to the exit.
                Instruction exitBr(invertBranch(backedge.op()));
                exitBr.setId(fn.nextInstrId());
                exitBr.addSrc(backedge.src(0));
                exitBr.addSrc(backedge.src(1));
                exitBr.setTarget(exitTarget);
                unrolled.push_back(std::move(exitBr));
            }
            // Unconditional backedges simply fall into the next
            // copy: the predicated exit jumps inside the body are
            // the only way out.
        } else {
            unrolled.push_back(backedge);
            if (hasTrailer)
                unrolled.push_back(trailer);
        }
    }
    bb.instrs() = std::move(unrolled);
    return factor - 1;
}

} // namespace

int
unrollLoops(Function &fn, const FunctionProfile &profile)
{
    int unrolled = 0;
    for (BlockId id : fn.layout()) {
        BasicBlock *bb = fn.block(id);
        if (profile.blockCount(id) < minCount)
            continue;
        std::size_t size = bb->instrs().size();
        if (size < 2 || size > maxBodyInstrs)
            continue;
        int factor = static_cast<int>(
            std::min<std::size_t>(maxFactor, targetInstrs / size));
        if (factor < 2)
            continue;
        unrolled += unrollBlock(fn, *bb, factor);
    }
    return unrolled;
}

int
unrollLoops(Program &prog, const ProgramProfile &profile)
{
    int unrolled = 0;
    for (auto &fn : prog.functions()) {
        const FunctionProfile *fp = profile.find(fn->name());
        if (fp == nullptr)
            continue;
        unrolled += unrollLoops(*fn, *fp);
    }
    return unrolled;
}

} // namespace predilp
