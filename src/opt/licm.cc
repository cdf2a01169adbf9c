#include <algorithm>
#include <set>
#include <vector>

#include "analysis/loops.hh"
#include "ir/function.hh"
#include "opt/transforms.hh"

namespace predilp
{

namespace
{

void
retarget(Function &fn, BlockId from, BlockId oldTarget,
         BlockId newTarget)
{
    BasicBlock *bb = fn.block(from);
    for (auto &instr : bb->instrs()) {
        if ((instr.isCondBranch() || instr.isJump()) &&
            instr.target() == oldTarget) {
            instr.setTarget(newTarget);
        }
    }
    if (bb->fallthrough() == oldTarget)
        bb->setFallthrough(newTarget);
}

/** Hoist invariant header-resident instructions of one loop. */
int
hoistLoop(Function &fn, const Loop &loop, const CfgInfo &cfg)
{
    BlockId header = loop.header;
    std::set<BlockId> body(loop.body.begin(), loop.body.end());

    // Gather loop-defined registers, memory/call hazards, and use
    // positions of each register within the header.
    std::set<Reg> loopDefs;
    std::map<Reg, int> loopDefCount;
    bool hasStore = false;
    bool hasCall = false;
    std::vector<Reg> scratch;
    for (BlockId id : loop.body) {
        for (const auto &instr : fn.block(id)->instrs()) {
            scratch.clear();
            collectDefs(instr, fn, scratch);
            for (Reg reg : scratch) {
                loopDefs.insert(reg);
                loopDefCount[reg] += 1;
            }
            if (instr.isStore() ||
                instr.op() == Opcode::ReadBlock) {
                hasStore = true;
            }
            if (instr.isCall()) {
                hasCall = true;
                hasStore = true; // callee may store.
            }
        }
    }

    // Find candidate instructions: the prefix of the header before
    // any control transfer.
    BasicBlock *hb = fn.block(header);

    auto invariant = [&](const Instruction &instr) {
        const auto &info = instr.info();
        if (instr.isControlTransfer() || instr.isCall() ||
            info.sideEffect || instr.isStore() ||
            instr.isPredDefine() || instr.isPredAll() ||
            info.isCondMove || instr.guarded()) {
            return false;
        }
        if (!instr.dest().valid())
            return false;
        if (instr.isLoad() && (hasStore || hasCall))
            return false;
        for (const auto &src : instr.srcs()) {
            if (src.isReg() && loopDefs.count(src.reg()) != 0)
                return false;
        }
        if (loopDefCount[instr.dest()] != 1)
            return false;
        return true;
    };

    // Collect the hoist set iteratively (a hoisted def leaves the
    // loop-def set, enabling dependents).
    std::vector<std::size_t> toHoist;
    bool changed = true;
    std::set<std::size_t> chosen;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i < hb->instrs().size(); ++i) {
            const Instruction &instr = hb->instrs()[i];
            if (instr.isControlTransfer() || instr.isCall())
                break; // only the always-executed header prefix.
            if (chosen.count(i) != 0)
                continue;
            if (!invariant(instr))
                continue;
            // No use of dest earlier in the header (it would read
            // the previous iteration's value on entry).
            bool earlyUse = false;
            for (std::size_t k = 0; k < i; ++k) {
                scratch.clear();
                collectUses(hb->instrs()[k], scratch);
                for (Reg reg : scratch) {
                    if (reg == instr.dest())
                        earlyUse = true;
                }
            }
            if (earlyUse)
                continue;
            chosen.insert(i);
            toHoist.push_back(i);
            loopDefs.erase(instr.dest());
            changed = true;
        }
    }
    if (toHoist.empty())
        return 0;

    // Build (or find) the preheader.
    std::vector<BlockId> outsidePreds;
    for (BlockId pred : cfg.preds(header)) {
        if (body.count(pred) == 0)
            outsidePreds.push_back(pred);
    }
    BasicBlock *pre = fn.newBlock(hb->name() + ".pre");
    hb = fn.block(header); // newBlock may reallocate.
    Instruction jump = fn.makeInstr(Opcode::Jump);
    jump.setTarget(header);
    for (BlockId pred : outsidePreds)
        retarget(fn, pred, header, pre->id());

    // Move the hoisted instructions (in original order).
    std::sort(toHoist.begin(), toHoist.end());
    for (std::size_t idx : toHoist) {
        Instruction instr = hb->instrs()[idx];
        if (instr.info().canTrap)
            instr.setSpeculative(true);
        pre->instrs().push_back(std::move(instr));
    }
    pre->instrs().push_back(std::move(jump));
    for (auto it = toHoist.rbegin(); it != toHoist.rend(); ++it) {
        hb->instrs().erase(hb->instrs().begin() +
                           static_cast<std::ptrdiff_t>(*it));
    }

    // If the header was the function entry, the preheader becomes
    // the entry.
    auto &layout = fn.layout();
    if (layout.front() == header) {
        layout.erase(std::find(layout.begin(), layout.end(),
                               pre->id()));
        layout.insert(layout.begin(), pre->id());
    }
    return static_cast<int>(toHoist.size());
}

} // namespace

int
licmFunction(Function &fn)
{
    // One loop at a time, innermost first, recomputing the CFG and
    // loop nest after every change: preheader insertion invalidates
    // predecessor lists and loop membership.
    int total = 0;
    for (int iter = 0; iter < 64; ++iter) {
        CfgInfo cfg(fn);
        DominatorTree dom(fn, cfg);
        LoopInfo loops(fn, cfg, dom);
        int hoisted = 0;
        for (const Loop &loop : loops.loops()) {
            hoisted = hoistLoop(fn, loop, cfg);
            if (hoisted > 0)
                break;
        }
        if (hoisted == 0)
            break;
        total += hoisted;
    }
    return total;
}

int
licmProgram(Program &prog)
{
    int hoisted = 0;
    for (auto &fn : prog.functions())
        hoisted += licmFunction(*fn);
    return hoisted;
}

} // namespace predilp
