/**
 * @file
 * The pre-decoded threaded-code emulator backend.
 *
 * The interpreter in emulator.cc re-discovers everything about an
 * instruction on every dynamic execution: operand kinds, register
 * classes, block boundaries, callee lookups. Capture is the dominant
 * cold-path cost of a figures sweep, so this backend pays that work
 * exactly once per compiled program: decodeProgram() lowers each
 * Function into a flat stream of fixed-size DecodedOps — a handler
 * index for the dispatch table, operand register slots resolved to
 * dense per-frame array offsets, immediates inlined, branch targets
 * resolved to stream offsets — and the engine in threaded.cc then
 * runs the stream with a computed-goto dispatch loop that appends
 * packed TraceEntries straight into a TraceBuffer with no virtual
 * calls, hash lookups, or IR pointer chasing per record.
 *
 * A DecodedProgram is fully self-contained: it snapshots the initial
 * memory image, the static-instruction prototypes the trace interner
 * needs (trace/trace.hh's staticOpOf), and every string a trap
 * message can mention, so it may outlive the Program it was decoded
 * from.
 *
 * Invariant: for any program and input, the threaded backend and the
 * interpreter produce bit-identical traces, identical RunResults, and
 * identical EmuTrap kinds/pcs/step counts. The interpreter stays the
 * reference oracle; tests/emu/backend_diff_test.cc enforces this.
 * Static-instruction ids are assigned on first *dynamic* appearance,
 * so the engine interns lazily through StaticIndex::internDecoded()
 * using prototypes prepared here — never eagerly at decode time.
 */

#ifndef PREDILP_EMU_DECODED_HH
#define PREDILP_EMU_DECODED_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "emu/emulator.hh"
#include "ir/program.hh"
#include "trace/trace.hh"

namespace predilp
{

/**
 * One resolved source operand: an index into the current frame's int
 * or float arena (which of the two is implied by the operand's
 * position in its opcode, exactly as the interpreter's eval helpers
 * imply it). There are no operand kinds at execution time: decoding
 * registerizes everything into the arenas —
 *  - int registers occupy arena slots [0, numIntRegs);
 *  - predicate registers live at [numIntRegs, numIntRegs +
 *    numPredRegs) as 0/1 int64 values, so guard tests and
 *    pred-as-int reads are plain loads;
 *  - integer immediates are interned into a per-function constant
 *    pool at [numIntRegs + numPredRegs, numIntSlots), written once
 *    at frame entry and read-only after;
 *  - float immediates likewise occupy float arena slots
 *    [numFloatRegs, numFloatSlots).
 * A fetch is then always one indexed load with no branches.
 */
using DecodedSrc = std::int32_t;

/**
 * Handler indices for the dispatch table. Real opcodes map to their
 * own Opcode value (one handler per opcode keeps each dispatch site's
 * indirect branch well predicted); four synthetic handlers implement
 * control flow the IR keeps implicit.
 */
namespace hdl
{

constexpr std::uint8_t
of(Opcode op)
{
    return static_cast<std::uint8_t>(op);
}

constexpr std::uint8_t opcodeCount = of(Opcode::Nop) + 1;

/** Dynamic block entry: profile hook only, no record, no fuel. */
constexpr std::uint8_t blockHead = opcodeCount + 0;
/** Fallthrough to a non-adjacent block (synthetic, invisible). */
constexpr std::uint8_t fallthrough = opcodeCount + 1;
/** Fallthrough off a block with no successor: BadControl trap. */
constexpr std::uint8_t fallOff = opcodeCount + 2;
/**
 * Statically malformed instruction (e.g. a float register in an int
 * operand position). The interpreter only panics when such an
 * instruction actually executes, so decoding defers the panic into
 * this handler instead of failing the whole decode.
 */
constexpr std::uint8_t badStatic = opcodeCount + 3;

constexpr std::uint8_t count = opcodeCount + 4;

} // namespace hdl

/**
 * One decoded instruction. Fixed size, stored contiguously per
 * function; everything the execution loop touches per dynamic
 * instruction lives here or in the frame register arrays.
 *
 * Field overloading (kept simple on purpose — one u32 of context per
 * handler family):
 *  - target: branch/jump/fallthrough = destination stream offset;
 *    Call = callee function ordinal (-1 when unknown);
 *    blockHead = IR BlockId (for profile counting).
 *  - aux: Call = args pool begin (or message index when the callee is
 *    unknown); pred defines = predDests pool begin; memory ops and
 *    Div/Rem/FDiv = trap message index; fallOff/badStatic = message
 *    index.
 */
struct DecodedOp
{
    std::uint8_t handler = hdl::of(Opcode::Nop);
    std::uint8_t srcCount = 0; ///< inline srcs, or call arg count.
    std::uint8_t destCls = 0;  ///< RegClass of dest (writeInt seam).
    std::uint8_t predCount = 0; ///< pred-define destinations.
    bool speculative = false;   ///< silent (non-excepting) form.
    /** Guard's int-arena slot (pred mirror range); -1 = unguarded. */
    std::int32_t guard = -1;
    std::int32_t dest = -1;     ///< dest slot; -1 = none.
    std::int32_t target = -1;   ///< see field-overloading note.
    std::int32_t irId = -1;     ///< IR instruction id (traps/profile).
    std::uint32_t aux = 0;      ///< see field-overloading note.
    std::uint32_t regListBegin = 0; ///< internRegs begin (interning).
    std::array<DecodedSrc, 3> src{};
};

/** One pred-define destination, slot-resolved. */
struct DecodedPredDest
{
    std::int32_t slot = 0;
    PredType type = PredType::U;
};

/** A function parameter's register slot. */
struct DecodedParam
{
    std::int32_t slot = 0;
    RegClass cls = RegClass::Int;
};

/** One lowered function: the op stream plus its constant pools. */
struct DecodedFunction
{
    std::string name;
    RetKind retKind = RetKind::None;
    std::int32_t numIntRegs = 0;
    std::int32_t numFloatRegs = 0;
    std::int32_t numPredRegs = 0;
    /** Int arena size: regs + pred mirrors + int constant pool. */
    std::int32_t numIntSlots = 0;
    /** Float arena size: regs + float constant pool. */
    std::int32_t numFloatSlots = 0;
    std::uint32_t entryOffset = 0; ///< stream offset of the entry.
    /** Base of this function's ops in the per-run interned-id array. */
    std::uint32_t idBase = 0;

    std::vector<DecodedParam> params;
    std::vector<DecodedOp> ops;
    /**
     * Static-instruction prototypes, parallel to ops (cold: only read
     * the first time an op appears dynamically). regBegin is left
     * unset; StaticIndex::internDecoded() assigns it. Synthetic ops
     * have default prototypes that are never interned.
     */
    std::vector<StaticOp> protos;
    /** Register operands for interning, indexed by regListBegin. */
    std::vector<Reg> internRegs;
    /** Call argument pool (DecodedOp::aux for Call). */
    std::vector<DecodedSrc> args;
    /** Pred-define destination pool (DecodedOp::aux). */
    std::vector<DecodedPredDest> predDests;
    /** Trap/panic message texts (DecodedOp::aux). */
    std::vector<std::string> msgs;
    /** Interned integer immediates (copied in at frame entry). */
    std::vector<std::int64_t> intConsts;
    /** Interned float immediates (copied in at frame entry). */
    std::vector<double> floatConsts;
};

/**
 * A whole program lowered for the threaded engine. Immutable and
 * self-contained after construction; safely shareable across threads.
 */
class DecodedProgram
{
  public:
    /** Lower @p prog. The Program is not referenced afterwards. */
    explicit DecodedProgram(const Program &prog);

    const std::vector<DecodedFunction> &
    functions() const
    {
        return functions_;
    }

    /** Ordinal of main(), -1 when absent. */
    int mainOrdinal() const { return mainOrdinal_; }

    /** main() declared parameters (a BadProgram trap at run time). */
    bool mainHasParams() const { return mainHasParams_; }

    /** Initial data-memory image (ExecContext::initialImage). */
    const std::vector<std::uint8_t> &
    initialMemory() const
    {
        return initialMemory_;
    }

    /** The program's registerBounds() (trace/trace.hh). */
    const std::array<int, 3> &regBounds() const { return regBounds_; }

    /** Total decoded ops across all functions (id-array size). */
    std::uint32_t totalOps() const { return totalOps_; }

    /** Approximate resident bytes (cache accounting). */
    std::uint64_t memoryBytes() const;

  private:
    std::vector<DecodedFunction> functions_;
    std::vector<std::uint8_t> initialMemory_;
    std::array<int, 3> regBounds_{};
    std::uint32_t totalOps_ = 0;
    int mainOrdinal_ = -1;
    bool mainHasParams_ = false;
};

/**
 * Execute @p dp to completion on the threaded engine.
 * Supports profiles but not generic sinks: opts.sink must be null
 * (Emulator::run() falls back to the interpreter for sinks).
 */
RunResult runDecoded(const DecodedProgram &dp, const std::string &input,
                     const EmuOptions &opts = {});

/**
 * Capture a trace with the threaded engine. Bit-identical to
 * capture() with the interpreter backend at ~3x its throughput
 * (~150-175 vs ~55 Mrec/s on the espresso capture kernel) — fast
 * enough that cold capture beats warm mmap'd replay. The returned
 * buffer is self-contained and shares nothing with @p dp.
 */
std::unique_ptr<TraceBuffer>
captureDecoded(const DecodedProgram &dp, const std::string &input,
               std::uint64_t maxDynInstrs = 2'000'000'000ull);

} // namespace predilp

#endif // PREDILP_EMU_DECODED_HH
