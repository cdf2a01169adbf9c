#include "emu/decoded.hh"

#include <bit>
#include <unordered_map>

#include "support/diag.hh"
#include "support/logging.hh"

namespace predilp
{

namespace
{

/** Lowers the instructions of one function. */
class Lowerer
{
  public:
    Lowerer(const Function &fn, const AddressMap &addresses,
            const std::unordered_map<const Function *, int> &ordinals)
        : fn_(fn), addresses_(addresses), ordinals_(ordinals)
    {}

    DecodedFunction take() { return std::move(df_); }

    DecodedFunction &df() { return df_; }

    std::uint32_t
    addMsg(std::string msg)
    {
        df_.msgs.push_back(std::move(msg));
        return static_cast<std::uint32_t>(df_.msgs.size() - 1);
    }

    void
    push(DecodedOp op, StaticOp proto)
    {
        df_.ops.push_back(op);
        df_.protos.push_back(proto);
    }

    /**
     * Lower one instruction. Any static malformation the interpreter
     * would only report when the instruction executes (its eval
     * helpers panic lazily) is deferred the same way: the op decays
     * into a badStatic handler carrying the panic message.
     */
    void
    lower(const Instruction &instr,
          const std::vector<std::int32_t> &offsets,
          const Program &prog)
    {
        StaticOp proto = staticOpOf(fn_, instr, addresses_);

        DecodedOp op;
        op.handler = hdl::of(instr.op());
        op.irId = instr.id();
        op.speculative = instr.speculative();

        op.regListBegin =
            static_cast<std::uint32_t>(df_.internRegs.size());
        appendStaticOperands(instr, df_.internRegs);

        bool guardOk = true;
        std::string failMsg;
        if (instr.guarded()) {
            try {
                op.guard = predSlot(instr.guard(),
                                    "guard is not a predicate "
                                    "register");
            } catch (const PanicError &e) {
                guardOk = false;
                failMsg = e.what();
            }
        }
        if (guardOk) {
            // Roll back pool growth if the body fails to resolve, so
            // a badStatic op leaves no dangling pool entries.
            const std::size_t argsMark = df_.args.size();
            const std::size_t predsMark = df_.predDests.size();
            const std::size_t msgsMark = df_.msgs.size();
            try {
                lowerBody(op, instr, offsets, prog);
                push(op, proto);
                return;
            } catch (const PanicError &e) {
                failMsg = e.what();
                df_.args.resize(argsMark);
                df_.predDests.resize(predsMark);
                df_.msgs.resize(msgsMark);
            }
        }

        DecodedOp bad;
        bad.handler = hdl::badStatic;
        bad.irId = instr.id();
        bad.regListBegin = op.regListBegin;
        bad.aux = addMsg(std::move(failMsg));
        // Pred defines consume their guard as Pin, never as a
        // nullifier, and a malformed guard panics during the guard
        // check itself — both cases must panic unconditionally.
        if (guardOk && !instr.isPredDefine())
            bad.guard = op.guard;
        push(bad, proto);
    }

  private:
    // --- operand resolution, mirroring the interpreter's lazy eval
    // helpers (same panic messages, same acceptance rules) ---

    std::int32_t
    checkedSlot(Reg reg, int bound)
    {
        panicIf(reg.idx() < 0 || reg.idx() >= bound,
                "register index out of range for its class");
        return reg.idx();
    }

    /** Predicate registers mirror into the int arena after the int
     * registers, so guards and pred reads are plain int loads. */
    std::int32_t
    predSlot(Reg reg, const char *notPredMsg)
    {
        panicIf(reg.cls() != RegClass::Pred, notPredMsg);
        return df_.numIntRegs + checkedSlot(reg, df_.numPredRegs);
    }

    /**
     * Intern an immediate into the per-function constant pool; the
     * engine copies the pools into fresh frames, so a fetch never
     * distinguishes immediates from registers. Pool entries interned
     * by an op that later decays to badStatic are left in place —
     * they become unread (but still initialized) slots.
     */
    std::int32_t
    intConst(std::int64_t v)
    {
        auto [it, fresh] = intConstSlots_.try_emplace(
            v, static_cast<std::int32_t>(df_.intConsts.size()));
        if (fresh)
            df_.intConsts.push_back(v);
        return df_.numIntRegs + df_.numPredRegs + it->second;
    }

    std::int32_t
    floatConst(double v)
    {
        // Key on bits so -0.0 and NaNs intern exactly.
        auto [it, fresh] = floatConstSlots_.try_emplace(
            std::bit_cast<std::uint64_t>(v),
            static_cast<std::int32_t>(df_.floatConsts.size()));
        if (fresh)
            df_.floatConsts.push_back(v);
        return df_.numFloatRegs + it->second;
    }

    DecodedSrc
    intSrc(const Operand &o)
    {
        if (o.isImm())
            return intConst(o.immValue());
        panicIf(!o.isReg(), "expected int operand");
        Reg reg = o.reg();
        switch (reg.cls()) {
          case RegClass::Int:
            return checkedSlot(reg, df_.numIntRegs);
          case RegClass::Pred:
            return df_.numIntRegs +
                   checkedSlot(reg, df_.numPredRegs);
          case RegClass::Float:
          default:
            panic("float register used as int operand");
        }
    }

    DecodedSrc
    floatSrc(const Operand &o)
    {
        if (o.isFImm())
            return floatConst(o.fimmValue());
        if (o.isImm())
            return floatConst(static_cast<double>(o.immValue()));
        panicIf(!o.isReg(), "expected float operand");
        Reg reg = o.reg();
        panicIf(reg.cls() != RegClass::Float,
                "non-float register used as float operand");
        return checkedSlot(reg, df_.numFloatRegs);
    }

    void
    intDest(DecodedOp &op, Reg reg)
    {
        panicIf(!reg.valid(),
                "instruction writes no destination register");
        if (reg.cls() == RegClass::Pred) {
            op.destCls = static_cast<std::uint8_t>(RegClass::Pred);
            op.dest = df_.numIntRegs +
                      checkedSlot(reg, df_.numPredRegs);
            return;
        }
        panicIf(reg.cls() != RegClass::Int,
                "writeInt to non-int register");
        op.destCls = static_cast<std::uint8_t>(RegClass::Int);
        op.dest = checkedSlot(reg, df_.numIntRegs);
    }

    void
    floatDest(DecodedOp &op, Reg reg)
    {
        panicIf(!reg.valid(),
                "instruction writes no destination register");
        panicIf(reg.cls() != RegClass::Float,
                "writeFloat to non-float register");
        op.destCls = static_cast<std::uint8_t>(RegClass::Float);
        op.dest = checkedSlot(reg, df_.numFloatRegs);
    }

    void
    intSrcs(DecodedOp &op, const Instruction &instr, int count)
    {
        for (int i = 0; i < count; ++i)
            op.src[static_cast<std::size_t>(i)] =
                intSrc(instr.src(static_cast<std::size_t>(i)));
        op.srcCount = static_cast<std::uint8_t>(count);
    }

    std::int32_t
    blockOffset(BlockId target,
                const std::vector<std::int32_t> &offsets)
    {
        panicIf(target < 0 ||
                    static_cast<std::size_t>(target) >=
                        offsets.size() ||
                    offsets[static_cast<std::size_t>(target)] < 0,
                "control transfer to a block outside the layout");
        return offsets[static_cast<std::size_t>(target)];
    }

    /** Trap-message suffix of execMemory()'s MemFault. */
    std::uint32_t
    memMsg(const Instruction &instr)
    {
        return addMsg(detail::formatMessage(" by '", instr.toString(),
                                            "' in ", fn_.name()));
    }

    void
    lowerBody(DecodedOp &op, const Instruction &instr,
              const std::vector<std::int32_t> &offsets,
              const Program &prog)
    {
        switch (instr.op()) {
          case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
          case Opcode::And: case Opcode::Or: case Opcode::Xor:
          case Opcode::AndNot: case Opcode::OrNot: case Opcode::Shl:
          case Opcode::Shr: case Opcode::Sra:
          case Opcode::CmpEq: case Opcode::CmpNe: case Opcode::CmpLt:
          case Opcode::CmpLe: case Opcode::CmpGt: case Opcode::CmpGe:
          case Opcode::CmpLtu:
            intDest(op, instr.dest());
            intSrcs(op, instr, 2);
            return;
          case Opcode::Div: case Opcode::Rem:
            intDest(op, instr.dest());
            intSrcs(op, instr, 2);
            op.aux = addMsg(detail::formatMessage(
                "division by zero in ", fn_.name(), ": '",
                instr.toString(), "'"));
            return;
          case Opcode::Mov:
            intDest(op, instr.dest());
            intSrcs(op, instr, 1);
            return;

          case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
            floatDest(op, instr.dest());
            op.src[0] = floatSrc(instr.src(0));
            op.src[1] = floatSrc(instr.src(1));
            op.srcCount = 2;
            return;
          case Opcode::FDiv:
            floatDest(op, instr.dest());
            op.src[0] = floatSrc(instr.src(0));
            op.src[1] = floatSrc(instr.src(1));
            op.srcCount = 2;
            op.aux = addMsg(detail::formatMessage(
                "floating divide by zero in ", fn_.name()));
            return;
          case Opcode::FMov:
            floatDest(op, instr.dest());
            op.src[0] = floatSrc(instr.src(0));
            op.srcCount = 1;
            return;
          case Opcode::CvtIf:
            floatDest(op, instr.dest());
            intSrcs(op, instr, 1);
            return;
          case Opcode::CvtFi:
            intDest(op, instr.dest());
            op.src[0] = floatSrc(instr.src(0));
            op.srcCount = 1;
            return;

          case Opcode::FCmpEq: case Opcode::FCmpNe:
          case Opcode::FCmpLt: case Opcode::FCmpLe:
          case Opcode::FCmpGt: case Opcode::FCmpGe:
            intDest(op, instr.dest());
            op.src[0] = floatSrc(instr.src(0));
            op.src[1] = floatSrc(instr.src(1));
            op.srcCount = 2;
            return;

          case Opcode::Ld: case Opcode::LdB: case Opcode::LdBu:
            intDest(op, instr.dest());
            intSrcs(op, instr, 2);
            op.aux = memMsg(instr);
            return;
          case Opcode::FLd:
            floatDest(op, instr.dest());
            intSrcs(op, instr, 2);
            op.aux = memMsg(instr);
            return;
          case Opcode::St: case Opcode::StB:
            intSrcs(op, instr, 3);
            op.aux = memMsg(instr);
            return;
          case Opcode::FSt:
            intSrcs(op, instr, 2);
            op.src[2] = floatSrc(instr.src(2));
            op.srcCount = 3;
            op.aux = memMsg(instr);
            return;

          case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
          case Opcode::Ble: case Opcode::Bgt: case Opcode::Bge:
            intSrcs(op, instr, 2);
            op.target = blockOffset(instr.target(), offsets);
            return;
          case Opcode::Jump:
            op.target = blockOffset(instr.target(), offsets);
            return;
          case Opcode::Call:
            lowerCall(op, instr, prog);
            return;
          case Opcode::Ret:
            if (!instr.srcs().empty()) {
                op.src[0] = fn_.retKind() == RetKind::Float
                                ? floatSrc(instr.src(0))
                                : intSrc(instr.src(0));
                op.srcCount = 1;
            }
            return;

          case Opcode::GetC:
            intDest(op, instr.dest());
            return;
          case Opcode::PutC:
            intSrcs(op, instr, 1);
            return;
          case Opcode::ReadBlock:
            intDest(op, instr.dest());
            intSrcs(op, instr, 3);
            return;

          case Opcode::PredClear: case Opcode::PredSet:
            return;

          case Opcode::PredEq: case Opcode::PredNe:
          case Opcode::PredLt: case Opcode::PredLe:
          case Opcode::PredGt: case Opcode::PredGe:
          case Opcode::PredLtu:
            intSrcs(op, instr, 2);
            op.aux = static_cast<std::uint32_t>(df_.predDests.size());
            for (const auto &pd : instr.predDests()) {
                // The interpreter indexes the pred file with the
                // destination's raw index, whatever its class; only
                // range is worth validating (it guards raw-array
                // accesses the interpreter leaves to the vector).
                DecodedPredDest dpd;
                dpd.slot = df_.numIntRegs +
                           checkedSlot(pd.reg, df_.numPredRegs);
                dpd.type = pd.type;
                df_.predDests.push_back(dpd);
            }
            op.predCount =
                static_cast<std::uint8_t>(instr.predDests().size());
            return;

          case Opcode::CMov: case Opcode::CMovCom:
            intDest(op, instr.dest());
            intSrcs(op, instr, 2);
            return;
          case Opcode::Select:
            intDest(op, instr.dest());
            intSrcs(op, instr, 3);
            return;
          case Opcode::FCMov: case Opcode::FCMovCom:
            floatDest(op, instr.dest());
            op.src[0] = floatSrc(instr.src(0));
            op.src[1] = intSrc(instr.src(1));
            op.srcCount = 2;
            return;
          case Opcode::FSelect:
            floatDest(op, instr.dest());
            op.src[0] = floatSrc(instr.src(0));
            op.src[1] = floatSrc(instr.src(1));
            op.src[2] = intSrc(instr.src(2));
            op.srcCount = 3;
            return;

          case Opcode::Nop:
            return;
        }
        panic("unhandled opcode in decoder");
    }

    void
    lowerCall(DecodedOp &op, const Instruction &instr,
              const Program &prog)
    {
        const Function *callee = prog.function(instr.callee());
        if (callee == nullptr) {
            // Trap at execution time, exactly like doCall() — and
            // like doCall(), before any argument evaluation.
            op.target = -1;
            op.aux = addMsg(detail::formatMessage(
                "call to unknown function ", instr.callee()));
            return;
        }
        op.target = ordinals_.at(callee);
        const auto &params = callee->params();
        panicIf(params.size() != instr.srcs().size(),
                "call arity mismatch at emulation time");
        panicIf(params.size() > 255,
                "call with more than 255 arguments");
        op.aux = static_cast<std::uint32_t>(df_.args.size());
        for (std::size_t i = 0; i < params.size(); ++i) {
            df_.args.push_back(params[i].cls() == RegClass::Float
                                   ? floatSrc(instr.src(i))
                                   : intSrc(instr.src(i)));
        }
        op.srcCount = static_cast<std::uint8_t>(params.size());
        if (instr.dest().valid()) {
            // doReturn() writes a float dest via writeFloat and any
            // other via writeInt; resolve with the matching rules.
            if (instr.dest().cls() == RegClass::Float)
                floatDest(op, instr.dest());
            else
                intDest(op, instr.dest());
        }
    }

    const Function &fn_;
    const AddressMap &addresses_;
    const std::unordered_map<const Function *, int> &ordinals_;
    DecodedFunction df_;
    /** Immediate dedup: value (or bits) -> constant-pool index. */
    std::unordered_map<std::int64_t, std::int32_t> intConstSlots_;
    std::unordered_map<std::uint64_t, std::int32_t> floatConstSlots_;
};

DecodedFunction
lowerFunction(const Function &fn, const Program &prog,
              const AddressMap &addresses,
              const std::unordered_map<const Function *, int> &ordinals)
{
    Lowerer lowerer(fn, addresses, ordinals);
    DecodedFunction &df = lowerer.df();
    df.name = fn.name();
    df.retKind = fn.retKind();
    df.numIntRegs = fn.numIntRegs();
    df.numFloatRegs = fn.numFloatRegs();
    df.numPredRegs = fn.numPredRegs();
    for (Reg param : fn.params()) {
        // The interpreter writes non-float params into the int file
        // at call time (predicate params included); validate against
        // the matching file here so the arena write cannot go out of
        // bounds. Decoding panics eagerly on such malformed IR.
        const int bound = param.cls() == RegClass::Float
                              ? df.numFloatRegs
                              : df.numIntRegs;
        panicIf(param.idx() < 0 || param.idx() >= bound,
                "function parameter register out of range: ",
                fn.name());
        DecodedParam p;
        p.slot = param.idx();
        p.cls = param.cls();
        df.params.push_back(p);
    }

    const auto &layout = fn.layout();

    // A block needs a synthetic terminator when control can run off
    // its end: none after an unconditional transfer, a fallOff trap
    // when there is no fallthrough successor, a fallthrough jump when
    // the successor is not the next block in the stream.
    enum class Term : std::uint8_t { None, Fallthrough, FallOff };
    auto termOf = [&](std::size_t i) {
        const BasicBlock *bb = fn.block(layout[i]);
        if (bb->endsInUnconditionalTransfer())
            return Term::None;
        BlockId ft = bb->fallthrough();
        if (ft == invalidBlock)
            return Term::FallOff;
        if (i + 1 < layout.size() && ft == layout[i + 1])
            return Term::None;
        return Term::Fallthrough;
    };

    // Pass 1: stream offsets of every block head.
    std::vector<std::int32_t> offsets(
        static_cast<std::size_t>(fn.numBlockIds()), -1);
    std::uint32_t cur = 0;
    for (std::size_t i = 0; i < layout.size(); ++i) {
        const BasicBlock *bb = fn.block(layout[i]);
        offsets[static_cast<std::size_t>(bb->id())] =
            static_cast<std::int32_t>(cur);
        cur += 1 + static_cast<std::uint32_t>(bb->instrs().size());
        if (termOf(i) != Term::None)
            cur += 1;
    }

    // Pass 2: emit.
    df.ops.reserve(cur);
    df.protos.reserve(cur);
    for (std::size_t i = 0; i < layout.size(); ++i) {
        const BasicBlock *bb = fn.block(layout[i]);
        DecodedOp head;
        head.handler = hdl::blockHead;
        head.target = bb->id();
        lowerer.push(head, StaticOp{});
        for (const auto &instr : bb->instrs())
            lowerer.lower(instr, offsets, prog);
        switch (termOf(i)) {
          case Term::None:
            break;
          case Term::Fallthrough: {
            DecodedOp jump;
            jump.handler = hdl::fallthrough;
            jump.target = offsets[
                static_cast<std::size_t>(bb->fallthrough())];
            lowerer.push(jump, StaticOp{});
            break;
          }
          case Term::FallOff: {
            DecodedOp off;
            off.handler = hdl::fallOff;
            off.aux = lowerer.addMsg(detail::formatMessage(
                "control fell off the end of block ", bb->name(),
                " in ", fn.name()));
            lowerer.push(off, StaticOp{});
            break;
          }
        }
    }

    const BasicBlock *entry = fn.entry();
    panicIf(entry == nullptr || layout.empty() ||
                offsets[static_cast<std::size_t>(entry->id())] < 0,
            "cannot decode a function without an entry block in its "
            "layout: ", fn.name());
    df.entryOffset = static_cast<std::uint32_t>(
        offsets[static_cast<std::size_t>(entry->id())]);
    DecodedFunction out = lowerer.take();
    out.numIntSlots =
        out.numIntRegs + out.numPredRegs +
        static_cast<std::int32_t>(out.intConsts.size());
    out.numFloatSlots =
        out.numFloatRegs +
        static_cast<std::int32_t>(out.floatConsts.size());
    return out;
}

} // namespace

DecodedProgram::DecodedProgram(const Program &prog)
    : regBounds_(registerBounds(prog))
{
    AddressMap addresses(prog);
    std::unordered_map<const Function *, int> ordinals;
    for (const auto &fn : prog.functions())
        ordinals.emplace(fn.get(), static_cast<int>(ordinals.size()));

    functions_.reserve(prog.functions().size());
    std::uint32_t idBase = 0;
    for (const auto &fn : prog.functions()) {
        DecodedFunction df =
            lowerFunction(*fn, prog, addresses, ordinals);
        df.idBase = idBase;
        idBase += static_cast<std::uint32_t>(df.ops.size());
        functions_.push_back(std::move(df));
    }
    totalOps_ = idBase;

    const Function *mainFn = prog.function("main");
    if (mainFn != nullptr) {
        mainOrdinal_ = ordinals.at(mainFn);
        mainHasParams_ = !mainFn->params().empty();
    }
    initialMemory_ = ExecContext::initialImage(prog);
}

std::uint64_t
DecodedProgram::memoryBytes() const
{
    std::uint64_t bytes = initialMemory_.capacity();
    for (const auto &fn : functions_) {
        bytes += fn.ops.capacity() * sizeof(DecodedOp);
        bytes += fn.protos.capacity() * sizeof(StaticOp);
        bytes += fn.internRegs.capacity() * sizeof(Reg);
        bytes += fn.args.capacity() * sizeof(DecodedSrc);
        bytes += fn.predDests.capacity() * sizeof(DecodedPredDest);
        bytes += fn.intConsts.capacity() * sizeof(std::int64_t);
        bytes += fn.floatConsts.capacity() * sizeof(double);
        for (const auto &msg : fn.msgs)
            bytes += msg.capacity();
    }
    return bytes;
}

} // namespace predilp
