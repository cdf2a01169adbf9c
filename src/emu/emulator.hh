/**
 * @file
 * Functional emulator for PredILP IR. Executes any program in any
 * compilation state — unscheduled, superblock-formed, fully
 * predicated hyperblocks, or lowered partial-predication code — and
 * optionally streams dynamic instruction records to a sink (the
 * timing simulator) and/or collects an execution profile.
 *
 * This stands in for the paper's HP PA-RISC emulation (§4.1,
 * Figure 7): they rewrote predicated code into PA-RISC bit
 * manipulation so a real machine could trace it; we execute the
 * predicated IR natively, which is functionally identical.
 *
 * Two backends implement it. Every profile, reference run and
 * capture runs on the pre-decoded threaded engine (emu/decoded.hh);
 * the tree-walking interpreter is its oracle, run only where a
 * caller names EmuBackend::Interp or streams to a generic TraceSink.
 */

#ifndef PREDILP_EMU_EMULATOR_HH
#define PREDILP_EMU_EMULATOR_HH

#include <cstdint>
#include <string>

#include "analysis/profile.hh"
#include "emu/context.hh"
#include "ir/program.hh"

namespace predilp
{

/**
 * One dynamic instruction event streamed to the timing simulator.
 */
struct DynRecord
{
    const Function *fn = nullptr;
    const Instruction *instr = nullptr;
    bool nullified = false;  ///< guard predicate was false.
    bool taken = false;      ///< control transfer fired.
    bool hasMemAddr = false; ///< memAddr below is meaningful.
    std::int64_t memAddr = 0;
    bool blockEntry = false; ///< first instruction after a transfer.
};

/** Consumer of the dynamic instruction stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once per dynamic instruction, in execution order. */
    virtual void onInstr(const DynRecord &record) = 0;
};

/** Result of one emulation run. */
struct RunResult
{
    std::int64_t exitValue = 0;    ///< main's return value.
    std::uint64_t dynInstrs = 0;   ///< dynamic instruction count.
    std::string output;            ///< bytes written via putc.
    /**
     * FNV-1a hash of the final data-memory image. Together with
     * exitValue and output this is the architectural result the
     * differential oracle compares across processor models.
     */
    std::uint64_t memHash = 0;
};

/**
 * Emulator backend selection. Both backends implement the same
 * architectural semantics; the interpreter walks the IR directly and
 * is the reference oracle, the threaded backend executes a flat
 * pre-decoded instruction stream an order of magnitude faster. Their
 * traces are bit-identical by construction, which
 * tests/emu/backend_diff_test.cc checks on every trace the figure
 * benches capture.
 */
enum class EmuBackend : std::uint8_t
{
    Interp,   ///< tree-walking reference interpreter.
    Threaded, ///< pre-decoded threaded-code engine.
};

/** The backend every run uses unless it names one: Threaded. */
constexpr EmuBackend
defaultEmuBackend()
{
    return EmuBackend::Threaded;
}

/** @return "interp" or "threaded". */
const char *emuBackendName(EmuBackend backend);

/** Knobs for one emulation run. */
struct EmuOptions
{
    /**
     * Dynamic-instruction budget for this run; exceeding it throws
     * EmuTrap{TrapKind::FuelExhausted} so harnesses can classify
     * infinite loops apart from genuine failures. Configurable per
     * run — the fuzz oracle and the evaluator set tight budgets.
     */
    std::uint64_t maxDynInstrs = 2'000'000'000ull;

    /** Optional profile to fill (sized for the program). */
    ProgramProfile *profile = nullptr;

    /** Optional dynamic-trace consumer. */
    TraceSink *sink = nullptr;

    /**
     * Backend to execute with. Runs that stream records to a generic
     * TraceSink always use the interpreter (the threaded engine has
     * no per-record virtual-call seam by design; its only sink is the
     * TraceBuffer writer used by capture()).
     */
    EmuBackend backend = defaultEmuBackend();
};

/**
 * The emulator. Stateless between runs; construct once per program.
 */
class Emulator
{
  public:
    /** @param prog program to execute; must outlive the emulator. */
    explicit Emulator(const Program &prog) : prog_(prog) {}

    /**
     * Execute main() to completion.
     *
     * @param input byte stream served to getc.
     * @param opts run options (profile / trace sink / fuel).
     * @return exit value, instruction count, and program output.
     */
    RunResult run(const std::string &input,
                  const EmuOptions &opts = {}) const;

  private:
    const Program &prog_;
};

} // namespace predilp

#endif // PREDILP_EMU_EMULATOR_HH
