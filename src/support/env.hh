/**
 * @file
 * EnvConfig: the one documented place every PREDILP_* environment
 * variable is read. Callers used to scatter getenv() calls
 * (SuiteEvaluator for the store, ThreadPool for parallelism, the
 * emulator for backend selection); they all go through
 * EnvConfig::fromEnvironment() now, so the full environment surface
 * is this struct's field list:
 *
 *   PREDILP_STORE       artifact-store root directory ("" = store
 *                       tier off unless set programmatically).
 *   PREDILP_STORE_MODE  "ro" = read-only; "rw", empty or unset =
 *                       read-write.
 *   PREDILP_THREADS     worker-thread override for auto-sized
 *                       ThreadPools; <= 0 or unparsable values are
 *                       warned about and ignored.
 *   PREDILP_EMU         emulator backend: "interp" forces the
 *                       switch-dispatch interpreter; "threaded",
 *                       empty or unset = the pre-decoded threaded
 *                       engine.
 *   PREDILP_FAULTS      deterministic fault-injection spec (see
 *                       support/faultpoint.hh for the grammar);
 *                       unset/empty = no fault points armed.
 *
 * fromEnvironment() throws FatalError naming any other
 * PREDILP_STORE_MODE or PREDILP_EMU value, as arming a bad
 * PREDILP_FAULTS spec does, so a typo never silently selects the
 * default.
 *
 * fromEnvironment() re-reads the environment on every call (tests
 * setenv() between constructions); callers that want one-time
 * resolution cache the result themselves, as defaultEmuBackend()
 * does.
 */

#ifndef PREDILP_SUPPORT_ENV_HH
#define PREDILP_SUPPORT_ENV_HH

#include <string>

namespace predilp
{

/** Snapshot of the PREDILP_* environment; see file comment. */
struct EnvConfig
{
    /** PREDILP_STORE ("" when unset). */
    std::string storeDir;

    /** PREDILP_STORE_MODE == "ro" (else "rw", empty or unset). */
    bool storeReadOnly = false;

    /** Validated PREDILP_THREADS (0 = unset/invalid = auto). */
    int threads = 0;

    /** PREDILP_EMU: "interp", "threaded" or "" (unset). */
    std::string emuBackend;

    /** Raw PREDILP_FAULTS spec ("" when unset). */
    std::string faultSpec;

    /** Read (and validate) the current environment. */
    static EnvConfig fromEnvironment();
};

} // namespace predilp

#endif // PREDILP_SUPPORT_ENV_HH
