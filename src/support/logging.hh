/**
 * @file
 * Error-reporting and diagnostic helpers, in the spirit of gem5's
 * logging.hh: fatal() for user errors, panic() for internal bugs.
 * The error types themselves — including the typed compile/emulate
 * taxonomy (CompileError, EmuTrap, VerifyError, DivergenceError) —
 * live in support/diag.hh.
 */

#ifndef PREDILP_SUPPORT_LOGGING_HH
#define PREDILP_SUPPORT_LOGGING_HH

#include <string>

#include "support/diag.hh"

namespace predilp
{

/** Report an unrecoverable user-level error. Never returns. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::formatMessage(std::forward<Args>(args)...));
}

/** Report an internal invariant violation. Never returns. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw PanicError(detail::formatMessage(std::forward<Args>(args)...));
}

/**
 * Check an internal invariant; panics with the given message when the
 * condition does not hold. Unlike assert() this is always enabled.
 */
template <typename... Args>
void
panicIf(bool condition, Args &&...args)
{
    if (condition)
        panic(std::forward<Args>(args)...);
}

/** Emit a non-fatal warning to stderr. */
void warn(const std::string &msg);

} // namespace predilp

#endif // PREDILP_SUPPORT_LOGGING_HH
