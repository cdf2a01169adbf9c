/**
 * @file
 * EnvConfig: the one documented place every PREDILP_* environment
 * variable is read. Callers used to scatter getenv() calls
 * (SuiteEvaluator for the store, ThreadPool for parallelism); they
 * all go through EnvConfig::fromEnvironment() now, so the full
 * environment surface is this struct's field list:
 *
 *   PREDILP_STORE       artifact-store root directory ("" = store
 *                       tier off unless set programmatically); the
 *                       store is read-write whenever it is on.
 *   PREDILP_THREADS     worker-thread override for auto-sized
 *                       ThreadPools; <= 0 or unparsable values are
 *                       warned about and ignored.
 *   PREDILP_FAULTS      deterministic fault-injection spec (see
 *                       support/faultpoint.hh for the grammar);
 *                       unset/empty = no fault points armed. Arming
 *                       a bad spec throws FatalError naming it.
 *
 * Every capture, profile and reference run executes on the
 * pre-decoded threaded engine; no setting selects the interpreter
 * (emu/emulator.hh).
 *
 * fromEnvironment() re-reads the environment on every call (tests
 * setenv() between constructions); callers that want one-time
 * resolution cache the result themselves.
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

    /** Validated PREDILP_THREADS (0 = unset/invalid = auto). */
    int threads = 0;

    /** Raw PREDILP_FAULTS spec ("" when unset). */
    std::string faultSpec;

    /** Read (and validate) the current environment. */
    static EnvConfig fromEnvironment();
};

} // namespace predilp

#endif // PREDILP_SUPPORT_ENV_HH
