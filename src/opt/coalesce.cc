#include <map>
#include <vector>

#include "analysis/cfg.hh"
#include "ir/function.hh"
#include "opt/transforms.hh"

namespace predilp
{

namespace
{

/** Count defs and uses of every register across the function. */
void
countOccurrences(const Function &fn, std::map<Reg, int> &defs,
                 std::map<Reg, int> &uses)
{
    std::vector<Reg> scratch;
    for (BlockId id : fn.layout()) {
        for (const auto &instr : fn.block(id)->instrs()) {
            scratch.clear();
            collectDefs(instr, fn, scratch);
            for (Reg reg : scratch)
                defs[reg] += 1;
            scratch.clear();
            collectUses(instr, scratch);
            for (Reg reg : scratch)
                uses[reg] += 1;
        }
    }
}

bool
touchesReg(const Instruction &instr, const Function &fn, Reg reg)
{
    std::vector<Reg> scratch;
    collectUses(instr, scratch);
    for (Reg r : scratch) {
        if (r == reg)
            return true;
    }
    scratch.clear();
    collectDefs(instr, fn, scratch);
    for (Reg r : scratch) {
        if (r == reg)
            return true;
    }
    return false;
}

/** One coalescing sweep over @p bb; @return true on change. */
bool
coalesceBlock(Function &fn, BasicBlock &bb,
              const std::map<Reg, int> &defs,
              const std::map<Reg, int> &uses)
{
    auto &instrs = bb.instrs();
    for (std::size_t j = 0; j < instrs.size(); ++j) {
        const Instruction &mov = instrs[j];
        if (mov.op() != Opcode::Mov && mov.op() != Opcode::FMov)
            continue;
        if (!mov.src(0).isReg())
            continue;
        Reg temp = mov.src(0).reg();
        Reg target = mov.dest();
        if (temp == target)
            continue;

        // temp must be a pure single-def single-use temporary.
        auto dIt = defs.find(temp);
        auto uIt = uses.find(temp);
        if (dIt == defs.end() || dIt->second != 1)
            continue;
        if (uIt == uses.end() || uIt->second != 1)
            continue;

        // Find temp's def above the mov in this block.
        for (std::size_t step = 1; step <= j; ++step) {
            std::size_t i = j - step;
            Instruction &def = instrs[i];
            if (def.dest() != temp)
                continue;
            // The def must write temp outright under the same
            // guard; conditional moves merge and cannot be
            // retargeted.
            if (def.info().isCondMove || def.isCall() ||
                def.guard() != mov.guard()) {
                break;
            }
            // target must be untouched strictly between def and
            // mov, and no control transfer may separate them: on a
            // side-exit path the write to target would become
            // visible too early.
            bool clean = true;
            for (std::size_t k = i + 1; k < j; ++k) {
                if (touchesReg(instrs[k], fn, target) ||
                    instrs[k].isControlTransfer() ||
                    instrs[k].isCall()) {
                    clean = false;
                    break;
                }
            }
            if (!clean)
                break;
            def.setDest(target);
            instrs.erase(instrs.begin() +
                         static_cast<std::ptrdiff_t>(j));
            return true;
        }
    }
    return false;
}

} // namespace

int
coalesceCopies(Function &fn)
{
    int coalesced = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        std::map<Reg, int> defs;
        std::map<Reg, int> uses;
        countOccurrences(fn, defs, uses);
        for (BlockId id : fn.layout()) {
            if (coalesceBlock(fn, *fn.block(id), defs, uses)) {
                changed = true;
                coalesced += 1;
                break; // re-count occurrences.
            }
        }
    }
    return coalesced;
}

} // namespace predilp
