#include "ir/function.hh"
#include "opt/transforms.hh"
#include "support/logging.hh"

namespace predilp
{

namespace
{

/** Evaluate a pure integer ALU op on constants. */
bool
foldIntOp(Opcode op, std::int64_t a, std::int64_t b,
          std::int64_t &out)
{
    auto u = [](std::int64_t v) {
        return static_cast<std::uint64_t>(v);
    };
    switch (op) {
      case Opcode::Add:
        out = static_cast<std::int64_t>(u(a) + u(b));
        return true;
      case Opcode::Sub:
        out = static_cast<std::int64_t>(u(a) - u(b));
        return true;
      case Opcode::Mul:
        out = static_cast<std::int64_t>(u(a) * u(b));
        return true;
      case Opcode::Div:
        if (b == 0 || (a == INT64_MIN && b == -1))
            return false;
        out = a / b;
        return true;
      case Opcode::Rem:
        if (b == 0 || (a == INT64_MIN && b == -1))
            return false;
        out = a % b;
        return true;
      case Opcode::And: out = a & b; return true;
      case Opcode::Or: out = a | b; return true;
      case Opcode::Xor: out = a ^ b; return true;
      case Opcode::AndNot: out = a & ~b; return true;
      case Opcode::OrNot: out = a | ~b; return true;
      case Opcode::Shl:
        out = static_cast<std::int64_t>(u(a) << (b & 63));
        return true;
      case Opcode::Shr:
        out = static_cast<std::int64_t>(u(a) >> (b & 63));
        return true;
      case Opcode::Sra:
        out = a >> (b & 63);
        return true;
      case Opcode::CmpEq: case Opcode::CmpNe: case Opcode::CmpLt:
      case Opcode::CmpLe: case Opcode::CmpGt: case Opcode::CmpGe:
      case Opcode::CmpLtu:
        out = evalIntCondition(op, a, b) ? 1 : 0;
        return true;
      default:
        return false;
    }
}

/** Identity simplifications with one constant operand. */
bool
simplifyIdentity(Instruction &instr)
{
    if (instr.srcs().size() != 2)
        return false;
    const Operand &a = instr.src(0);
    const Operand &b = instr.src(1);

    auto toMov = [&](Operand kept) {
        instr.setOp(Opcode::Mov);
        instr.srcs().clear();
        instr.addSrc(kept);
        return true;
    };

    switch (instr.op()) {
      case Opcode::Add:
        if (b.isImm() && b.immValue() == 0)
            return toMov(a);
        if (a.isImm() && a.immValue() == 0)
            return toMov(b);
        return false;
      case Opcode::Sub:
        if (b.isImm() && b.immValue() == 0)
            return toMov(a);
        return false;
      case Opcode::Mul: {
        if (b.isImm() && b.immValue() == 1)
            return toMov(a);
        if (a.isImm() && a.immValue() == 1)
            return toMov(b);
        // Strength reduction: multiply by a power of two becomes a
        // shift (1-cycle instead of the 3-cycle multiplier).
        auto powerOfTwo = [](std::int64_t v) {
            return v > 0 && (v & (v - 1)) == 0;
        };
        auto log2of = [](std::int64_t v) {
            int n = 0;
            while (v > 1) {
                v >>= 1;
                n += 1;
            }
            return n;
        };
        if (b.isImm() && powerOfTwo(b.immValue())) {
            Operand other = a;
            instr.setOp(Opcode::Shl);
            instr.srcs().clear();
            instr.addSrc(other);
            instr.addSrc(Operand::imm(log2of(b.immValue())));
            return true;
        }
        if (a.isImm() && powerOfTwo(a.immValue())) {
            Operand other = b;
            std::int64_t factor = a.immValue();
            instr.setOp(Opcode::Shl);
            instr.srcs().clear();
            instr.addSrc(other);
            instr.addSrc(Operand::imm(log2of(factor)));
            return true;
        }
        return false;
      }
      case Opcode::Or:
      case Opcode::Xor:
        if (b.isImm() && b.immValue() == 0)
            return toMov(a);
        if (a.isImm() && a.immValue() == 0)
            return toMov(b);
        return false;
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Sra:
        if (b.isImm() && b.immValue() == 0)
            return toMov(a);
        return false;
      default:
        return false;
    }
}

} // namespace

int
constantFold(Function &fn)
{
    int changes = 0;
    for (BlockId id : fn.layout()) {
        BasicBlock *bb = fn.block(id);
        auto &instrs = bb->instrs();
        for (std::size_t i = 0; i < instrs.size(); ++i) {
            Instruction &instr = instrs[i];

            // Constant-condition conditional branch -> jump / drop.
            if (instr.isCondBranch() && instr.src(0).isImm() &&
                instr.src(1).isImm() && !instr.guarded()) {
                bool taken = evalIntCondition(instr.op(),
                                              instr.src(0).immValue(),
                                              instr.src(1).immValue());
                if (taken) {
                    Instruction jump = fn.makeInstr(Opcode::Jump);
                    jump.setTarget(instr.target());
                    jump.setId(instr.id());
                    instrs[i] = std::move(jump);
                    // Everything after an unconditional jump in this
                    // block is dead.
                    instrs.resize(i + 1);
                    bb->setFallthrough(invalidBlock);
                } else {
                    instrs.erase(instrs.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                    i -= 1;
                }
                changes += 1;
                continue;
            }

            if (instr.guarded() || instr.isPredDefine())
                continue;

            // Pure two-source integer ops with constant sources.
            if (instr.srcs().size() == 2 && instr.src(0).isImm() &&
                instr.src(1).isImm() && instr.dest().valid() &&
                instr.dest().cls() == RegClass::Int &&
                !instr.isMemory()) {
                std::int64_t out;
                if (foldIntOp(instr.op(), instr.src(0).immValue(),
                              instr.src(1).immValue(), out)) {
                    instr.setOp(Opcode::Mov);
                    instr.srcs().clear();
                    instr.addSrc(Operand::imm(out));
                    changes += 1;
                    continue;
                }
            }

            if (!instr.isMemory() && simplifyIdentity(instr))
                changes += 1;
        }
    }
    return changes;
}

} // namespace predilp
