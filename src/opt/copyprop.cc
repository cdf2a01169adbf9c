#include <unordered_map>

#include "analysis/cfg.hh"
#include "ir/function.hh"
#include "opt/transforms.hh"

namespace predilp
{

namespace
{

/** Per-block forward copy/constant propagation environment. */
class CopyEnv
{
  public:
    /** Resolve @p op through the current copy map. */
    Operand
    resolve(Operand op) const
    {
        if (!op.isReg())
            return op;
        auto it = map_.find(op.reg());
        return it == map_.end() ? op : it->second;
    }

    /** Record dest := src after resolution. */
    void
    record(Reg dest, Operand src)
    {
        if (src.isReg() && src.reg() == dest)
            return;
        map_[dest] = src;
    }

    /** Kill every mapping reading or writing @p reg. */
    void
    invalidate(Reg reg)
    {
        map_.erase(reg);
        for (auto it = map_.begin(); it != map_.end();) {
            if (it->second.isReg() && it->second.reg() == reg)
                it = map_.erase(it);
            else
                ++it;
        }
    }

  private:
    std::unordered_map<Reg, Operand> map_;
};

} // namespace

int
copyPropagate(Function &fn)
{
    int changes = 0;
    std::vector<Reg> defs;

    for (BlockId id : fn.layout()) {
        CopyEnv env;
        for (auto &instr : fn.block(id)->instrs()) {
            // Rewrite sources first. Guards stay: a guard must be a
            // predicate register, and predicate copies are never
            // recorded here.
            for (std::size_t s = 0; s < instr.srcs().size(); ++s) {
                Operand resolved = env.resolve(instr.src(s));
                if (resolved != instr.src(s)) {
                    instr.setSrc(s, resolved);
                    changes += 1;
                }
            }

            // Invalidate mappings clobbered by this instruction.
            defs.clear();
            collectDefs(instr, fn, defs);
            for (Reg reg : defs)
                env.invalidate(reg);

            // Record new copies from unguarded moves.
            if ((instr.op() == Opcode::Mov ||
                 instr.op() == Opcode::FMov) &&
                !instr.guarded() && instr.dest().valid() &&
                instr.dest().cls() != RegClass::Pred) {
                env.record(instr.dest(), instr.src(0));
            }
        }
    }
    return changes;
}

} // namespace predilp
