/**
 * @file
 * The differential oracle: compile one generated ILC program under
 * every processor model (plus seed-rotated ablation flips), run the
 * IR verifier after every pass, emulate each compiled program, and
 * assert that all of them agree bit-for-bit on the architectural
 * result — exit value, output bytes, and the final-memory hash —
 * with the classically-optimized reference run, and that pricing a
 * captured trace reproduces the capturing run's result.
 *
 * Any disagreement or abnormal path surfaces as a typed exception
 * (CompileError, VerifyError, EmuTrap, DivergenceError), which the
 * oracle converts into an OracleFailure record plus a self-contained
 * reproducer file, so a failing seed is diagnosable offline.
 */

#ifndef PREDILP_FUZZ_ORACLE_HH
#define PREDILP_FUZZ_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.hh"

namespace predilp
{

/** Knobs for one oracle invocation. */
struct OracleOptions
{
    /** Emulator fuel per run; generated programs stay far under. */
    std::uint64_t fuel = 50'000'000ull;
    /** Run the IR verifier after every compiler pass. */
    bool verifyEachPass = true;
    /**
     * Also compile under two seed-rotated single-flag ablation
     * flips (on top of the three default-flag models), so every
     * optional optimization is differentially exercised across the
     * seed corpus without a per-seed config explosion.
     */
    bool checkAblations = true;
    /** Directory for reproducer files ("" = don't write any). */
    std::string reproducerDir;
    GeneratorOptions generator;
};

/** One failing (seed, configuration) cell. */
struct OracleFailure
{
    std::uint64_t seed = 0;
    std::string config; ///< e.g. "FullPred" or "Cond. Move/flip-orTree".
    /** Taxonomy label from classifyException(). */
    std::string kind;
    std::string message;
    std::string reproducerPath; ///< "" when none was written.
};

/** Everything one seed's oracle run produced. */
struct OracleResult
{
    std::uint64_t seed = 0;
    std::uint64_t configsRun = 0; ///< configurations compared.
    std::vector<OracleFailure> failures;

    bool ok() const { return failures.empty(); }
};

/** Run the full differential comparison for @p seed. */
OracleResult runDifferentialOracle(std::uint64_t seed,
                                   const OracleOptions &opts = {});

} // namespace predilp

#endif // PREDILP_FUZZ_ORACLE_HH
