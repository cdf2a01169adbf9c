#include <map>

#include "ir/function.hh"
#include "ir/program.hh"
#include "opt/passes.hh"
#include "support/logging.hh"

namespace predilp
{

namespace
{

/** Only callees of at most this many instructions are inlined. */
constexpr std::size_t maxCalleeInstrs = 32;

/** @return true when @p fn is a leaf (no calls) small enough. */
bool
inlinable(const Function &fn)
{
    if (fn.instructionCount() > maxCalleeInstrs)
        return false;
    for (BlockId id : fn.layout()) {
        for (const auto &instr : fn.block(id)->instrs()) {
            if (instr.isCall())
                return false;
            // Predicated or region-formed callees are never seen
            // here (inlining runs before formation), but guard
            // against misuse.
            if (instr.guarded() || instr.isPredDefine() ||
                instr.isPredAll()) {
                return false;
            }
        }
    }
    return true;
}

/** Remap one callee register into the caller's register space. */
class RegMap
{
  public:
    RegMap(Function &caller) : caller_(caller) {}

    Reg
    map(Reg reg)
    {
        if (!reg.valid())
            return reg;
        auto it = map_.find(reg);
        if (it != map_.end())
            return it->second;
        Reg fresh;
        switch (reg.cls()) {
          case RegClass::Int:
            fresh = caller_.newIntReg();
            break;
          case RegClass::Float:
            fresh = caller_.newFloatReg();
            break;
          case RegClass::Pred:
            fresh = caller_.newPredReg();
            break;
        }
        map_[reg] = fresh;
        return fresh;
    }

  private:
    Function &caller_;
    std::map<Reg, Reg> map_;
};

/**
 * Inline the call at @p callIndex of block @p blockId in @p caller.
 */
void
inlineCall(Function &caller, BlockId blockId, std::size_t callIndex,
           const Function &callee)
{
    // Split the caller block: everything after the call moves to a
    // fresh continuation block.
    BasicBlock *cont = caller.newBlock(
        caller.block(blockId)->name() + ".ret");
    BasicBlock *site = caller.block(blockId);
    BlockId contId = cont->id();
    for (std::size_t i = callIndex + 1; i < site->instrs().size();
         ++i) {
        cont->instrs().push_back(std::move(site->instrs()[i]));
    }
    cont->setFallthrough(site->fallthrough());
    site->setFallthrough(invalidBlock);
    Instruction call = std::move(site->instrs()[callIndex]);
    site->instrs().resize(callIndex);

    RegMap regs(caller);

    // Bind arguments to the remapped parameter registers.
    {
        const auto &params = callee.params();
        for (std::size_t i = 0; i < params.size(); ++i) {
            Reg param = regs.map(params[i]);
            Instruction mv = caller.makeInstr(
                param.cls() == RegClass::Float ? Opcode::FMov
                                               : Opcode::Mov);
            mv.setDest(param);
            mv.addSrc(call.src(i));
            site->instrs().push_back(std::move(mv));
        }
    }

    // Clone the callee body.
    std::map<BlockId, BlockId> blockMap;
    for (BlockId id : callee.layout()) {
        BasicBlock *copy = caller.newBlock(
            callee.name() + "." + callee.block(id)->name());
        blockMap[id] = copy->id();
    }
    for (BlockId id : callee.layout()) {
        const BasicBlock *src = callee.block(id);
        BasicBlock *dst = caller.block(blockMap[id]);
        for (const auto &orig : src->instrs()) {
            if (orig.isRet()) {
                // Return: move the value into the call destination
                // and jump to the continuation.
                if (call.dest().valid()) {
                    panicIf(orig.srcs().empty(),
                            "void return feeding a call value");
                    Operand value = orig.src(0);
                    if (value.isReg())
                        value = Operand(regs.map(value.reg()));
                    Instruction mv = caller.makeInstr(
                        call.dest().cls() == RegClass::Float
                            ? Opcode::FMov
                            : Opcode::Mov);
                    mv.setDest(call.dest());
                    mv.addSrc(value);
                    dst->instrs().push_back(std::move(mv));
                }
                Instruction jump = caller.makeInstr(Opcode::Jump);
                jump.setTarget(contId);
                dst->instrs().push_back(std::move(jump));
                continue;
            }
            Instruction copy = orig;
            copy.setId(caller.nextInstrId());
            if (copy.dest().valid())
                copy.setDest(regs.map(copy.dest()));
            for (auto &pd : copy.predDests())
                pd.reg = regs.map(pd.reg);
            for (std::size_t s = 0; s < copy.srcs().size(); ++s) {
                if (copy.src(s).isReg()) {
                    copy.setSrc(
                        s, Operand(regs.map(copy.src(s).reg())));
                }
            }
            if (copy.guarded())
                copy.setGuard(regs.map(copy.guard()));
            if (copy.target() != invalidBlock)
                copy.setTarget(blockMap.at(copy.target()));
            dst->instrs().push_back(std::move(copy));
        }
        if (src->fallthrough() != invalidBlock) {
            dst->setFallthrough(blockMap.at(src->fallthrough()));
        }
    }

    // Enter the inlined body.
    Instruction enter = caller.makeInstr(Opcode::Jump);
    enter.setTarget(blockMap.at(callee.layout().front()));
    site->instrs().push_back(std::move(enter));
}

} // namespace

int
inlineFunctions(Program &prog)
{
    int inlined = 0;
    // A few rounds so chains of small functions collapse (leaf-ness
    // is re-evaluated each round).
    for (int round = 0; round < 4; ++round) {
        bool changed = false;
        for (auto &fnPtr : prog.functions()) {
            Function &fn = *fnPtr;
            bool localChange = true;
            while (localChange) {
                localChange = false;
                for (BlockId id : fn.layout()) {
                    auto &instrs = fn.block(id)->instrs();
                    for (std::size_t i = 0; i < instrs.size();
                         ++i) {
                        if (!instrs[i].isCall())
                            continue;
                        const Function *callee =
                            prog.function(instrs[i].callee());
                        panicIf(callee == nullptr,
                                "call to unknown function");
                        if (callee == &fn || !inlinable(*callee))
                            continue;
                        inlineCall(fn, id, i, *callee);
                        inlined += 1;
                        changed = true;
                        localChange = true;
                        break;
                    }
                    if (localChange)
                        break;
                }
            }
        }
        if (!changed)
            break;
    }
    return inlined;
}

namespace
{

class InlinePass : public Pass
{
  public:
    std::string name() const override { return "opt.inline"; }

    PassResult
    run(Program &prog, PassContext &ctx) override
    {
        PassResult result;
        result.changes = static_cast<std::uint64_t>(inlineFunctions(prog));
        if (result.changed())
            ctx.stats.counter("opt.inline.sites").add(result.changes);
        return result;
    }
};

} // namespace

std::unique_ptr<Pass>
createInlinePass()
{
    return std::make_unique<InlinePass>();
}

} // namespace predilp
