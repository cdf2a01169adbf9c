/**
 * @file
 * The threaded-code execution engine for decoded programs
 * (emu/decoded.hh). One templated loop serves both run modes:
 * Engine<true> captures a trace through a TraceBuffer::Writer,
 * Engine<false> just executes (optionally filling a profile). On GCC
 * and Clang the dispatch is a computed goto per handler — each
 * handler ends in its own indirect branch, so the BTB learns the
 * common opcode successions; elsewhere it degrades to a switch.
 *
 * Bit-identity with the interpreter is the load-bearing invariant.
 * Every handler replicates emulator.cc's observable order exactly:
 * fuel is charged before the guard check, guard-nullified ops emit a
 * nullified record without executing, records are emitted after the
 * op's effect (and never when it traps), and static-instruction ids
 * are interned at first dynamic appearance via internDecoded().
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "emu/decoded.hh"
#include "support/diag.hh"
#include "support/faultpoint.hh"
#include "support/logging.hh"

#if defined(__GNUC__) || defined(__clang__)
#define PREDILP_CGOTO 1
#else
#define PREDILP_CGOTO 0
#endif

namespace predilp
{

namespace
{

std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

/** One activation record; registers live in the shared arenas. */
struct FrameInfo
{
    const DecodedFunction *fn = nullptr;
    std::size_t intBase = 0;
    std::size_t floatBase = 0;
    /** Resume state in the caller (null/unused for main's frame). */
    const DecodedFunction *retFn = nullptr;
    std::int32_t retPc = 0;
    std::int32_t retDest = -1;
    std::uint8_t retDestCls = 0;
    /** Cached per-function profile (forFunction is a map lookup). */
    FunctionProfile *profile = nullptr;
};

template <bool Capture>
class Engine
{
  public:
    Engine(const DecodedProgram &dp, const std::string &input,
           std::uint64_t fuel, ProgramProfile *profile,
           TraceBuffer *buffer)
        : dp_(dp), ctx_(dp.initialMemory(), input), fuel_(fuel),
          profile_(profile)
    {
        if constexpr (Capture) {
            // Capture runs never profile (compilation profiles in
            // runs of its own, on Engine<false>); Engine<true>
            // relies on this to drop the profile plumbing from the
            // hot loop.
            panicIf(profile != nullptr,
                    "capture runs do not take a profile");
            ids_.assign(dp.totalOps(), StaticIndex::invalidId);
            writer_.emplace(*buffer);
            buffer_ = buffer;
        }
    }

    RunResult run();

  private:
    void
    pushFrame(const DecodedFunction &callee,
              const DecodedFunction *retFn, std::int32_t retPc,
              std::int32_t retDest, std::uint8_t retDestCls)
    {
        FrameInfo fi;
        fi.fn = &callee;
        fi.intBase = ints_.size();
        fi.floatBase = floats_.size();
        fi.retFn = retFn;
        fi.retPc = retPc;
        fi.retDest = retDest;
        fi.retDestCls = retDestCls;
        if (profile_ != nullptr)
            fi.profile = &profile_->forFunction(callee.name);
        // Registers and pred mirrors zero-initialize; the constant
        // pools land after them (see DecodedSrc's layout note).
        ints_.resize(ints_.size() +
                         static_cast<std::size_t>(callee.numIntSlots),
                     0);
        std::copy(callee.intConsts.begin(), callee.intConsts.end(),
                  ints_.begin() +
                      static_cast<std::ptrdiff_t>(fi.intBase) +
                      callee.numIntRegs + callee.numPredRegs);
        floats_.resize(floats_.size() +
                           static_cast<std::size_t>(
                               callee.numFloatSlots),
                       0.0);
        std::copy(callee.floatConsts.begin(),
                  callee.floatConsts.end(),
                  floats_.begin() +
                      static_cast<std::ptrdiff_t>(fi.floatBase) +
                      callee.numFloatRegs);
        frames_.push_back(fi);
    }

    void
    popFrame()
    {
        const FrameInfo &fi = frames_.back();
        ints_.resize(fi.intBase);
        floats_.resize(fi.floatBase);
        frames_.pop_back();
    }

    /** Out-of-line trap throws keep the hot handlers small. */
    [[noreturn, gnu::noinline, gnu::cold]] void
    trapFuel(std::int32_t irId, std::uint64_t steps) const
    {
        throw EmuTrap(TrapKind::FuelExhausted, irId, steps,
                      detail::formatMessage(
                          "dynamic instruction budget exceeded (",
                          fuel_, ")"));
    }

    [[noreturn, gnu::noinline, gnu::cold]] static void
    trapMem(std::int32_t irId, std::uint64_t steps,
            std::int64_t addr, const std::string &site)
    {
        throw EmuTrap(TrapKind::MemFault, irId, steps,
                      detail::formatMessage(
                          "invalid memory access at address ", addr,
                          site));
    }

    /** Intern a decoded op on its first dynamic appearance (cold). */
    std::uint32_t
    internOp(const DecodedFunction &fn, std::uint32_t idx)
    {
        std::uint32_t id = buffer_->index().internDecoded(
            fn.protos[idx],
            fn.internRegs.data() + fn.ops[idx].regListBegin);
        ids_[fn.idBase + idx] = id;
        return id;
    }

    const DecodedProgram &dp_;
    ExecContext ctx_;
    const std::uint64_t fuel_;
    ProgramProfile *profile_ = nullptr;
    TraceBuffer *buffer_ = nullptr;
    std::optional<TraceBuffer::Writer> writer_;
    /** Interned id per decoded op, invalidId until first appearance. */
    std::vector<std::uint32_t> ids_;

    std::vector<FrameInfo> frames_;
    std::vector<std::int64_t> ints_;
    std::vector<double> floats_;
    /** Call argument scratch (caller-frame values, by position). */
    std::vector<std::int64_t> tmpInts_;
    std::vector<double> tmpFloats_;
};

template <bool Capture>
RunResult
Engine<Capture>::run()
{
    panicIf(dp_.mainOrdinal() < 0, "no main function");
    if (dp_.mainHasParams()) {
        throw EmuTrap(TrapKind::BadProgram, -1, 0,
                      "main must take no parameters");
    }

    constexpr auto intCls =
        static_cast<std::uint8_t>(RegClass::Int);
    constexpr auto floatCls =
        static_cast<std::uint8_t>(RegClass::Float);
    constexpr auto predCls =
        static_cast<std::uint8_t>(RegClass::Pred);
    (void)intCls;

    const DecodedFunction *fn =
        &dp_.functions()[static_cast<std::size_t>(dp_.mainOrdinal())];
    pushFrame(*fn, nullptr, 0, -1, 0);

    const DecodedOp *code = fn->ops.data();
    const DecodedOp *op = code;
    std::int32_t pc = static_cast<std::int32_t>(fn->entryOffset);
    std::int64_t *I = ints_.data() + frames_.back().intBase;
    double *F = floats_.data() + frames_.back().floatBase;
    // Profiles are only filled on plain runs; Engine<true> compiles
    // the profile plumbing out of the loop entirely (one register
    // back, and blockHead becomes a pure fallthrough).
    FunctionProfile *prof = nullptr;
    if constexpr (!Capture)
        prof = frames_.back().profile;
    (void)prof;
    // Fuel counts down so the budget costs one register; the
    // instruction count at any point is fuel - left.
    const std::uint64_t fuel = fuel_;
    std::uint64_t left = fuel_;
    std::int64_t exitValue = 0;
    // Capture hot-path state: the interned-id table slice for the
    // current function and the raw cursor into the active trace
    // chunk (see TraceBuffer::Writer). ids_ never reallocates, so
    // the slice pointer stays valid across internOp() calls.
    std::uint32_t *ids = nullptr;
    TraceEntry *tcur = nullptr;
    TraceEntry *tend = nullptr;
    if constexpr (Capture)
        ids = ids_.data() + fn->idBase;
    (void)ids;
    (void)tcur;
    (void)tend;

// --- dispatch plumbing ---

#if PREDILP_CGOTO
#define HANDLER_OP(NAME) H_##NAME:
#define HANDLER_S(NAME) H_##NAME:
#define DISPATCH()                                                    \
    do {                                                              \
        op = code + pc;                                               \
        goto *labels[op->handler];                                    \
    } while (0)
#else
#define HANDLER_OP(NAME) case hdl::of(Opcode::NAME):
#define HANDLER_S(NAME) case hdl::NAME:
#define DISPATCH() goto dispatchTop
#endif

#define NEXT()                                                        \
    do {                                                              \
        pc += 1;                                                      \
        DISPATCH();                                                   \
    } while (0)

#define SYNC()                                                        \
    do {                                                              \
        const FrameInfo &top_ = frames_.back();                       \
        I = ints_.data() + top_.intBase;                              \
        F = floats_.data() + top_.floatBase;                          \
        if constexpr (Capture)                                        \
            ids = ids_.data() + top_.fn->idBase;                      \
        else                                                          \
            prof = top_.profile;                                      \
    } while (0)

// Fuel is charged before the guard check, as in Interp::step(). The
// count after FUEL() includes the current instruction, matching the
// interpreter's dyn.
#define DYN() (fuel - left)
#define FUEL()                                                        \
    do {                                                              \
        if (left == 0) [[unlikely]]                                   \
            trapFuel(op->irId, fuel + 1);                             \
        left -= 1;                                                    \
    } while (0)

#define GUARD()                                                       \
    do {                                                              \
        if (op->guard >= 0 && I[op->guard] == 0)                      \
            goto nullifiedOp;                                         \
    } while (0)

// Decoding registerizes immediates and predicate mirrors into the
// arenas, so a fetch is always one indexed load (decoded.hh).
#define FETCH_I(S) (I[(S)])

#define FETCH_F(S) (F[(S)])

#define WRITE_I(V)                                                    \
    do {                                                              \
        const std::int64_t wv_ = (V);                                 \
        if (op->destCls == predCls) [[unlikely]]                      \
            I[op->dest] = wv_ != 0;                                   \
        else                                                          \
            I[op->dest] = wv_;                                        \
    } while (0)

#define WRITE_F(V) (F[op->dest] = (V))

// Ids come from internDecoded(), which already rejects anything over
// traceMaxStaticId, so the packer skips makeTraceEntry's range check.
#define EMIT(FLAGS)                                                   \
    do {                                                              \
        if constexpr (Capture) {                                      \
            std::uint32_t id_ = ids[pc];                              \
            if (id_ == StaticIndex::invalidId) [[unlikely]]           \
                id_ = internOp(*fn,                                   \
                               static_cast<std::uint32_t>(pc));       \
            if (tcur == tend) [[unlikely]]                            \
                tcur = writer_->rollChunk(&tend);                     \
            *tcur++ = TraceEntry{                                     \
                (static_cast<std::uint32_t>(FLAGS)                    \
                 << traceIdBits) |                                    \
                id_};                                                 \
        }                                                             \
    } while (0)

#define EMIT_MEM(ADDR)                                                \
    do {                                                              \
        if constexpr (Capture) {                                      \
            EMIT(traceHasMemAddr);                                    \
            writer_->noteMem(ADDR);                                   \
        }                                                             \
    } while (0)

#define H_INT_BINOP(NAME, EXPR)                                       \
    HANDLER_OP(NAME)                                                  \
    {                                                                 \
        FUEL();                                                       \
        GUARD();                                                      \
        const std::int64_t a = FETCH_I(op->src[0]);                   \
        const std::int64_t b = FETCH_I(op->src[1]);                   \
        WRITE_I(EXPR);                                                \
        EMIT(0);                                                      \
        NEXT();                                                       \
    }

#define H_INT_CMP(NAME, EXPR)                                         \
    HANDLER_OP(NAME)                                                  \
    {                                                                 \
        FUEL();                                                       \
        GUARD();                                                      \
        const std::int64_t a = FETCH_I(op->src[0]);                   \
        const std::int64_t b = FETCH_I(op->src[1]);                   \
        WRITE_I((EXPR) ? 1 : 0);                                      \
        EMIT(0);                                                      \
        NEXT();                                                       \
    }

#define H_FLT_BINOP(NAME, EXPR)                                       \
    HANDLER_OP(NAME)                                                  \
    {                                                                 \
        FUEL();                                                       \
        GUARD();                                                      \
        const double a = FETCH_F(op->src[0]);                         \
        const double b = FETCH_F(op->src[1]);                         \
        WRITE_F(EXPR);                                                \
        EMIT(0);                                                      \
        NEXT();                                                       \
    }

#define H_FLT_CMP(NAME, EXPR)                                         \
    HANDLER_OP(NAME)                                                  \
    {                                                                 \
        FUEL();                                                       \
        GUARD();                                                      \
        const double a = FETCH_F(op->src[0]);                         \
        const double b = FETCH_F(op->src[1]);                         \
        WRITE_I((EXPR) ? 1 : 0);                                      \
        EMIT(0);                                                      \
        NEXT();                                                       \
    }

#define H_DIVIDE(NAME, ISREM)                                         \
    HANDLER_OP(NAME)                                                  \
    {                                                                 \
        FUEL();                                                       \
        GUARD();                                                      \
        const std::int64_t a = FETCH_I(op->src[0]);                   \
        const std::int64_t b = FETCH_I(op->src[1]);                   \
        std::int64_t q_;                                              \
        if (b == 0) [[unlikely]] {                                    \
            if (!op->speculative) {                                   \
                throw EmuTrap(TrapKind::DivideByZero, op->irId,       \
                              DYN(), fn->msgs[op->aux]);              \
            }                                                         \
            q_ = 0;                                                   \
        } else if (a == INT64_MIN && b == -1) {                       \
            q_ = (ISREM) ? 0 : INT64_MIN;                             \
        } else {                                                      \
            q_ = (ISREM) ? a % b : a / b;                             \
        }                                                             \
        WRITE_I(q_);                                                  \
        EMIT(0);                                                      \
        NEXT();                                                       \
    }

// Loads silently produce 0 on a faulting speculative access — and
// still emit a record carrying the faulting address, exactly like
// execMemory(). Stores always trap.
#define H_LOAD(NAME, WIDTH, LOADSTMT, ZEROSTMT)                       \
    HANDLER_OP(NAME)                                                  \
    {                                                                 \
        FUEL();                                                       \
        GUARD();                                                      \
        const std::int64_t addr =                                     \
            wrapAdd(FETCH_I(op->src[0]), FETCH_I(op->src[1]));        \
        if (!ctx_.validAccess(addr, WIDTH)) [[unlikely]] {            \
            if (op->speculative) {                                    \
                ZEROSTMT;                                             \
                EMIT_MEM(addr);                                       \
                NEXT();                                               \
            }                                                         \
            trapMem(op->irId, DYN(), addr, fn->msgs[op->aux]);        \
        }                                                             \
        LOADSTMT;                                                     \
        EMIT_MEM(addr);                                               \
        NEXT();                                                       \
    }

#define H_STORE(NAME, WIDTH, STORESTMT)                               \
    HANDLER_OP(NAME)                                                  \
    {                                                                 \
        FUEL();                                                       \
        GUARD();                                                      \
        const std::int64_t addr =                                     \
            wrapAdd(FETCH_I(op->src[0]), FETCH_I(op->src[1]));        \
        if (!ctx_.validAccess(addr, WIDTH)) [[unlikely]] {            \
            trapMem(op->irId, DYN(), addr, fn->msgs[op->aux]);        \
        }                                                             \
        STORESTMT;                                                    \
        EMIT_MEM(addr);                                               \
        NEXT();                                                       \
    }

#define H_BRANCH(NAME, EXPR)                                          \
    HANDLER_OP(NAME)                                                  \
    {                                                                 \
        FUEL();                                                       \
        GUARD();                                                      \
        const std::int64_t a = FETCH_I(op->src[0]);                   \
        const std::int64_t b = FETCH_I(op->src[1]);                   \
        if (EXPR) {                                                   \
            if constexpr (!Capture) {                                 \
                if (prof != nullptr)                                  \
                    prof->addTaken(op->irId);                         \
            }                                                         \
            EMIT(traceTaken);                                         \
            pc = op->target;                                          \
            DISPATCH();                                               \
        }                                                             \
        EMIT(0);                                                      \
        NEXT();                                                       \
    }

#define H_PRED_DEF(NAME, EXPR)                                        \
    HANDLER_OP(NAME)                                                  \
    {                                                                 \
        FUEL();                                                       \
        /* Never nullified: the guard participates as Pin. */         \
        const bool pin = op->guard < 0 || I[op->guard] != 0;          \
        const std::int64_t a = FETCH_I(op->src[0]);                   \
        const std::int64_t b = FETCH_I(op->src[1]);                   \
        const bool cmp = (EXPR);                                      \
        const DecodedPredDest *pd =                                   \
            fn->predDests.data() + op->aux;                           \
        for (std::uint32_t n = op->predCount; n != 0; --n, ++pd) {    \
            const bool old = I[pd->slot] != 0;                        \
            I[pd->slot] = applyPredType(pd->type, pin, cmp, old);     \
        }                                                             \
        EMIT(0);                                                      \
        NEXT();                                                       \
    }

#if PREDILP_CGOTO
    const void *labels[hdl::count];
#define LABEL(NAME) labels[hdl::of(Opcode::NAME)] = &&H_##NAME
    LABEL(Add); LABEL(Sub); LABEL(Mul); LABEL(Div); LABEL(Rem);
    LABEL(And); LABEL(Or); LABEL(Xor); LABEL(AndNot); LABEL(OrNot);
    LABEL(Shl); LABEL(Shr); LABEL(Sra); LABEL(Mov);
    LABEL(CmpEq); LABEL(CmpNe); LABEL(CmpLt); LABEL(CmpLe);
    LABEL(CmpGt); LABEL(CmpGe); LABEL(CmpLtu);
    LABEL(FAdd); LABEL(FSub); LABEL(FMul); LABEL(FDiv); LABEL(FMov);
    LABEL(CvtIf); LABEL(CvtFi);
    LABEL(FCmpEq); LABEL(FCmpNe); LABEL(FCmpLt); LABEL(FCmpLe);
    LABEL(FCmpGt); LABEL(FCmpGe);
    LABEL(Ld); LABEL(LdB); LABEL(LdBu); LABEL(St); LABEL(StB);
    LABEL(FLd); LABEL(FSt);
    LABEL(Beq); LABEL(Bne); LABEL(Blt); LABEL(Ble); LABEL(Bgt);
    LABEL(Bge);
    LABEL(Jump); LABEL(Call); LABEL(Ret);
    LABEL(GetC); LABEL(PutC); LABEL(ReadBlock);
    LABEL(PredClear); LABEL(PredSet);
    LABEL(PredEq); LABEL(PredNe); LABEL(PredLt); LABEL(PredLe);
    LABEL(PredGt); LABEL(PredGe); LABEL(PredLtu);
    LABEL(CMov); LABEL(CMovCom); LABEL(Select);
    LABEL(FCMov); LABEL(FCMovCom); LABEL(FSelect);
    LABEL(Nop);
#undef LABEL
    labels[hdl::blockHead] = &&H_blockHead;
    labels[hdl::fallthrough] = &&H_fallthrough;
    labels[hdl::fallOff] = &&H_fallOff;
    labels[hdl::badStatic] = &&H_badStatic;
#endif

    DISPATCH();

#if !PREDILP_CGOTO
dispatchTop:
    op = code + pc;
    switch (op->handler) {
#endif

    H_INT_BINOP(Add, wrapAdd(a, b))
    H_INT_BINOP(Sub, wrapSub(a, b))
    H_INT_BINOP(Mul, wrapMul(a, b))
    H_DIVIDE(Div, false)
    H_DIVIDE(Rem, true)
    H_INT_BINOP(And, a & b)
    H_INT_BINOP(Or, a | b)
    H_INT_BINOP(Xor, a ^ b)
    H_INT_BINOP(AndNot, a & ~b)
    H_INT_BINOP(OrNot, a | ~b)
    H_INT_BINOP(Shl, static_cast<std::int64_t>(
                         static_cast<std::uint64_t>(a) << (b & 63)))
    H_INT_BINOP(Shr, static_cast<std::int64_t>(
                         static_cast<std::uint64_t>(a) >> (b & 63)))
    H_INT_BINOP(Sra, a >> (b & 63))

    HANDLER_OP(Mov)
    {
        FUEL();
        GUARD();
        WRITE_I(FETCH_I(op->src[0]));
        EMIT(0);
        NEXT();
    }

    H_INT_CMP(CmpEq, a == b)
    H_INT_CMP(CmpNe, a != b)
    H_INT_CMP(CmpLt, a < b)
    H_INT_CMP(CmpLe, a <= b)
    H_INT_CMP(CmpGt, a > b)
    H_INT_CMP(CmpGe, a >= b)
    H_INT_CMP(CmpLtu, static_cast<std::uint64_t>(a) <
                          static_cast<std::uint64_t>(b))

    H_FLT_BINOP(FAdd, a + b)
    H_FLT_BINOP(FSub, a - b)
    H_FLT_BINOP(FMul, a * b)

    HANDLER_OP(FDiv)
    {
        FUEL();
        GUARD();
        const double a = FETCH_F(op->src[0]);
        const double b = FETCH_F(op->src[1]);
        if (b == 0.0 && !op->speculative) [[unlikely]] {
            throw EmuTrap(TrapKind::DivideByZero, op->irId, DYN(),
                          fn->msgs[op->aux]);
        }
        WRITE_F(b == 0.0 ? 0.0 : a / b);
        EMIT(0);
        NEXT();
    }

    HANDLER_OP(FMov)
    {
        FUEL();
        GUARD();
        WRITE_F(FETCH_F(op->src[0]));
        EMIT(0);
        NEXT();
    }

    HANDLER_OP(CvtIf)
    {
        FUEL();
        GUARD();
        WRITE_F(static_cast<double>(FETCH_I(op->src[0])));
        EMIT(0);
        NEXT();
    }

    HANDLER_OP(CvtFi)
    {
        FUEL();
        GUARD();
        const double v = FETCH_F(op->src[0]);
        std::int64_t out = 0;
        if (std::isfinite(v) && v >= -9.2e18 && v <= 9.2e18)
            out = static_cast<std::int64_t>(v);
        WRITE_I(out);
        EMIT(0);
        NEXT();
    }

    H_FLT_CMP(FCmpEq, a == b)
    H_FLT_CMP(FCmpNe, a != b)
    H_FLT_CMP(FCmpLt, a < b)
    H_FLT_CMP(FCmpLe, a <= b)
    H_FLT_CMP(FCmpGt, a > b)
    H_FLT_CMP(FCmpGe, a >= b)

    H_LOAD(Ld, 8, WRITE_I(ctx_.loadWord(addr)), WRITE_I(0))
    H_LOAD(LdB, 1, WRITE_I(ctx_.loadByteSigned(addr)), WRITE_I(0))
    H_LOAD(LdBu, 1, WRITE_I(ctx_.loadByteUnsigned(addr)), WRITE_I(0))
    H_LOAD(FLd, 8, WRITE_F(ctx_.loadDouble(addr)), WRITE_F(0.0))
    H_STORE(St, 8, ctx_.storeWord(addr, FETCH_I(op->src[2])))
    H_STORE(StB, 1, ctx_.storeByte(addr, FETCH_I(op->src[2])))
    H_STORE(FSt, 8, ctx_.storeDouble(addr, FETCH_F(op->src[2])))

    H_BRANCH(Beq, a == b)
    H_BRANCH(Bne, a != b)
    H_BRANCH(Blt, a < b)
    H_BRANCH(Ble, a <= b)
    H_BRANCH(Bgt, a > b)
    H_BRANCH(Bge, a >= b)

    HANDLER_OP(Jump)
    {
        FUEL();
        GUARD();
        if constexpr (!Capture) {
            if (prof != nullptr)
                prof->addTaken(op->irId);
        }
        EMIT(traceTaken);
        pc = op->target;
        DISPATCH();
    }

    HANDLER_OP(Call)
    {
        FUEL();
        GUARD();
        if (op->target < 0) [[unlikely]] {
            throw EmuTrap(TrapKind::BadControl, op->irId, DYN(),
                          fn->msgs[op->aux]);
        }
        if (frames_.size() >= 65536) [[unlikely]] {
            throw EmuTrap(TrapKind::StackOverflow, op->irId, DYN(),
                          "call stack overflow in emulated program");
        }
        const DecodedFunction &callee =
            dp_.functions()[static_cast<std::size_t>(op->target)];
        // Evaluate arguments in the caller frame first.
        const std::uint32_t argc = op->srcCount;
        const DecodedSrc *args = fn->args.data() + op->aux;
        tmpInts_.clear();
        tmpFloats_.clear();
        for (std::uint32_t i = 0; i < argc; ++i) {
            if (callee.params[i].cls == RegClass::Float) {
                tmpFloats_.push_back(FETCH_F(args[i]));
                tmpInts_.push_back(0);
            } else {
                tmpInts_.push_back(FETCH_I(args[i]));
                tmpFloats_.push_back(0.0);
            }
        }
        // The call's record precedes the callee's records, as in the
        // interpreter (sink fires after execute()).
        EMIT(traceTaken);
        pushFrame(callee, fn, pc + 1, op->dest, op->destCls);
        const FrameInfo &top = frames_.back();
        for (std::uint32_t i = 0; i < argc; ++i) {
            const DecodedParam &param = callee.params[i];
            // Non-float params land in the int file, mirroring
            // doCall() (predicate params included).
            if (param.cls == RegClass::Float) {
                floats_[top.floatBase +
                        static_cast<std::size_t>(param.slot)] =
                    tmpFloats_[i];
            } else {
                ints_[top.intBase +
                      static_cast<std::size_t>(param.slot)] =
                    tmpInts_[i];
            }
        }
        fn = &callee;
        code = fn->ops.data();
        pc = static_cast<std::int32_t>(fn->entryOffset);
        SYNC();
        DISPATCH();
    }

    HANDLER_OP(Ret)
    {
        FUEL();
        GUARD();
        std::int64_t intValue = 0;
        double floatValue = 0.0;
        if (op->srcCount != 0) {
            if (fn->retKind == RetKind::Float)
                floatValue = FETCH_F(op->src[0]);
            else
                intValue = FETCH_I(op->src[0]);
        }
        EMIT(traceTaken);
        if (frames_.size() == 1) {
            exitValue = intValue;
            goto runDone;
        }
        const FrameInfo fi = frames_.back();
        popFrame();
        fn = fi.retFn;
        code = fn->ops.data();
        pc = fi.retPc;
        SYNC();
        if (fi.retDest >= 0) {
            if (fi.retDestCls == floatCls)
                F[fi.retDest] = floatValue;
            else if (fi.retDestCls == predCls)
                I[fi.retDest] = intValue != 0;
            else
                I[fi.retDest] = intValue;
        }
        DISPATCH();
    }

    HANDLER_OP(GetC)
    {
        FUEL();
        GUARD();
        WRITE_I(ctx_.getChar());
        EMIT(0);
        NEXT();
    }

    HANDLER_OP(PutC)
    {
        FUEL();
        GUARD();
        ctx_.putChar(FETCH_I(op->src[0]));
        EMIT(0);
        NEXT();
    }

    HANDLER_OP(ReadBlock)
    {
        FUEL();
        GUARD();
        const std::int64_t addr =
            wrapAdd(FETCH_I(op->src[0]), FETCH_I(op->src[1]));
        const std::int64_t maxLen = FETCH_I(op->src[2]);
        if (maxLen < 0 ||
            !ctx_.validAccess(
                addr, static_cast<int>(
                          std::min<std::int64_t>(maxLen, 1)))) {
            throw EmuTrap(TrapKind::MemFault, op->irId, DYN(),
                          "readblock with invalid buffer");
        }
        const std::int64_t avail =
            static_cast<std::int64_t>(ctx_.inputRemaining());
        const std::int64_t count = std::min(maxLen, avail);
        if (!ctx_.validAccess(addr, static_cast<int>(count))) {
            throw EmuTrap(TrapKind::MemFault, op->irId, DYN(),
                          "readblock past end of memory");
        }
        WRITE_I(ctx_.readBlock(addr, maxLen));
        EMIT_MEM(addr);
        NEXT();
    }

    HANDLER_OP(PredClear)
    {
        FUEL();
        GUARD();
        std::fill_n(I + fn->numIntRegs,
                    static_cast<std::size_t>(fn->numPredRegs),
                    std::int64_t{0});
        EMIT(0);
        NEXT();
    }

    HANDLER_OP(PredSet)
    {
        FUEL();
        GUARD();
        std::fill_n(I + fn->numIntRegs,
                    static_cast<std::size_t>(fn->numPredRegs),
                    std::int64_t{1});
        EMIT(0);
        NEXT();
    }

    H_PRED_DEF(PredEq, a == b)
    H_PRED_DEF(PredNe, a != b)
    H_PRED_DEF(PredLt, a < b)
    H_PRED_DEF(PredLe, a <= b)
    H_PRED_DEF(PredGt, a > b)
    H_PRED_DEF(PredGe, a >= b)
    H_PRED_DEF(PredLtu, static_cast<std::uint64_t>(a) <
                            static_cast<std::uint64_t>(b))

    HANDLER_OP(CMov)
    {
        FUEL();
        GUARD();
        if (FETCH_I(op->src[1]) != 0)
            WRITE_I(FETCH_I(op->src[0]));
        EMIT(0);
        NEXT();
    }

    HANDLER_OP(CMovCom)
    {
        FUEL();
        GUARD();
        if (FETCH_I(op->src[1]) == 0)
            WRITE_I(FETCH_I(op->src[0]));
        EMIT(0);
        NEXT();
    }

    HANDLER_OP(Select)
    {
        FUEL();
        GUARD();
        WRITE_I(FETCH_I(op->src[2]) != 0 ? FETCH_I(op->src[0])
                                         : FETCH_I(op->src[1]));
        EMIT(0);
        NEXT();
    }

    HANDLER_OP(FCMov)
    {
        FUEL();
        GUARD();
        if (FETCH_I(op->src[1]) != 0)
            WRITE_F(FETCH_F(op->src[0]));
        EMIT(0);
        NEXT();
    }

    HANDLER_OP(FCMovCom)
    {
        FUEL();
        GUARD();
        if (FETCH_I(op->src[1]) == 0)
            WRITE_F(FETCH_F(op->src[0]));
        EMIT(0);
        NEXT();
    }

    HANDLER_OP(FSelect)
    {
        FUEL();
        GUARD();
        WRITE_F(FETCH_I(op->src[2]) != 0 ? FETCH_F(op->src[0])
                                         : FETCH_F(op->src[1]));
        EMIT(0);
        NEXT();
    }

    HANDLER_OP(Nop)
    {
        FUEL();
        GUARD();
        EMIT(0);
        NEXT();
    }

    // --- synthetic handlers (invisible to the trace) ---

    HANDLER_S(blockHead)
    {
        if constexpr (!Capture) {
            if (prof != nullptr)
                prof->addBlockEntry(op->target);
        }
        NEXT();
    }

    HANDLER_S(fallthrough)
    {
        pc = op->target;
        DISPATCH();
    }

    HANDLER_S(fallOff)
    {
        throw EmuTrap(TrapKind::BadControl, -1, DYN(),
                      fn->msgs[op->aux]);
    }

    HANDLER_S(badStatic)
    {
        FUEL();
        GUARD();
        throw PanicError(fn->msgs[op->aux]);
    }

#if !PREDILP_CGOTO
      default:
        panic("corrupt decoded stream: unknown handler index");
    }
#endif

nullifiedOp:
    EMIT(traceNullified);
    NEXT();

runDone:
    if constexpr (Capture)
        writer_->finish(tcur);
    RunResult result;
    result.exitValue = exitValue;
    result.dynInstrs = DYN();
    result.output = ctx_.output();
    result.memHash = ctx_.memoryHash();
    return result;

#undef HANDLER_OP
#undef HANDLER_S
#undef DISPATCH
#undef NEXT
#undef SYNC
#undef DYN
#undef FUEL
#undef GUARD
#undef FETCH_I
#undef FETCH_F
#undef WRITE_I
#undef WRITE_F
#undef EMIT
#undef EMIT_MEM
#undef H_INT_BINOP
#undef H_INT_CMP
#undef H_FLT_BINOP
#undef H_FLT_CMP
#undef H_DIVIDE
#undef H_LOAD
#undef H_STORE
#undef H_BRANCH
#undef H_PRED_DEF
}

} // namespace

RunResult
runDecoded(const DecodedProgram &dp, const std::string &input,
           const EmuOptions &opts)
{
    panicIf(opts.sink != nullptr,
            "the threaded backend cannot stream to a generic "
            "TraceSink; use the interpreter");
    Engine<false> engine(dp, input, opts.maxDynInstrs, opts.profile,
                         nullptr);
    return engine.run();
}

std::unique_ptr<TraceBuffer>
captureDecoded(const DecodedProgram &dp, const std::string &input,
               std::uint64_t maxDynInstrs)
{
    // Cold entry (once per capture, never per record): a trap here
    // fails the capture's trace group, which the evaluator retries
    // one cell at a time.
    FAULT_POINT("emu.threaded.capture");
    auto buffer =
        std::make_unique<TraceBuffer>(StaticIndex(dp.regBounds()));
    Engine<true> engine(dp, input, maxDynInstrs, nullptr,
                        buffer.get());
    buffer->setRun(engine.run());
    return buffer;
}

} // namespace predilp
