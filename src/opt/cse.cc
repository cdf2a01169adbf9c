#include <map>
#include <sstream>
#include <vector>

#include "analysis/cfg.hh"
#include "ir/function.hh"
#include "opt/transforms.hh"

namespace predilp
{

namespace
{

/** @return true when @p instr is eligible for value numbering. */
bool
cseEligible(const Instruction &instr)
{
    const auto &info = instr.info();
    if (!instr.dest().valid())
        return false;
    if (info.sideEffect || instr.isControlTransfer() ||
        instr.isCall() || instr.isPredDefine() || instr.isPredAll()) {
        return false;
    }
    if (instr.isStore())
        return false;
    if (instr.op() == Opcode::GetC)
        return false;
    // Conditional moves merge with the old destination value, so
    // their "result" is not a pure function of the sources.
    if (info.isCondMove)
        return false;
    return true;
}

std::string
makeKey(const Instruction &instr, int memEpoch)
{
    std::ostringstream os;
    os << static_cast<int>(instr.op()) << '|'
       << (instr.speculative() ? 1 : 0) << '|'
       << (instr.guarded() ? instr.guard().toString() : "-");
    for (const auto &src : instr.srcs())
        os << '|' << src.toString();
    if (instr.isLoad())
        os << "|mem" << memEpoch;
    os << '|'; // terminator so register tokens match exactly.
    return os.str();
}

} // namespace

int
localCSE(Function &fn)
{
    int changes = 0;
    std::vector<Reg> defs;

    for (BlockId id : fn.layout()) {
        std::map<std::string, Reg> available;
        int memEpoch = 0;

        for (auto &instr : fn.block(id)->instrs()) {
            std::string key;
            if (cseEligible(instr)) {
                key = makeKey(instr, memEpoch);
                auto it = available.find(key);
                if (it != available.end()) {
                    bool isFloat =
                        instr.dest().cls() == RegClass::Float;
                    Reg guard = instr.guard();
                    Reg dest = instr.dest();
                    Operand src(it->second);
                    instr.setOp(isFloat ? Opcode::FMov
                                        : Opcode::Mov);
                    instr.srcs().clear();
                    instr.addSrc(src);
                    instr.setDest(dest);
                    instr.setGuard(guard);
                    instr.setSpeculative(false);
                    changes += 1;
                    key.clear(); // the mov defines dest; fall through
                }
            }

            if (instr.isStore() || instr.isCall() ||
                instr.op() == Opcode::ReadBlock) {
                memEpoch += 1;
            }

            // Any definition invalidates expressions using or
            // producing the defined registers.
            defs.clear();
            collectDefs(instr, fn, defs);
            for (Reg reg : defs) {
                std::string regName = reg.toString();
                for (auto it = available.begin();
                     it != available.end();) {
                    bool kill = it->second == reg ||
                                it->first.find('|' + regName + '|') !=
                                    std::string::npos;
                    if (kill)
                        it = available.erase(it);
                    else
                        ++it;
                }
            }

            // Never record an instruction that reads its own
            // destination: the recorded key would describe the
            // pre-update value of the register.
            bool selfRef = false;
            for (const auto &src : instr.srcs()) {
                if (src.isReg() && src.reg() == instr.dest())
                    selfRef = true;
            }
            if (!key.empty() && !instr.guarded() && !selfRef)
                available[key] = instr.dest();
        }
    }
    return changes;
}

} // namespace predilp
