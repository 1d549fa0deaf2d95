/**
 * @file
 * Error and status reporting helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant violations
 * (a bug in this library), fatal() for unrecoverable user errors (bad
 * configuration), warn()/inform()/debug() for non-fatal status messages.
 *
 * Messages go through a leveled sink so threaded runs and chaos lanes
 * produce attributable, filterable logs: every line carries a
 * process-relative timestamp and a stable per-thread id
 * (`[   1.042s t03] warn: ...`), assembled into one write so lines
 * from concurrent threads never interleave. The threshold comes from
 * the CAC_LOG environment variable (error|warn|info|debug, default
 * info) or setLogLevel(); panic/fatal always print.
 */

#ifndef CAC_COMMON_LOGGING_HH
#define CAC_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace cac
{

/** Sink threshold, in increasing verbosity. */
enum class LogLevel
{
    Error = 0, ///< only panic/fatal
    Warn = 1,
    Info = 2, ///< the default
    Debug = 3
};

/** Override the CAC_LOG threshold programmatically (thread-safe). */
void setLogLevel(LogLevel level);

/** The active threshold (CAC_LOG env unless setLogLevel() ran). */
LogLevel logLevel();

/**
 * Small process-wide id of the calling thread, assigned in first-use
 * order and stable for the thread's lifetime. Log lines print it as
 * `tNN`; trace spans carry it as their tid.
 */
unsigned threadId();

/**
 * Report an internal invariant violation and abort.
 *
 * Use for conditions that can never happen unless the library itself is
 * broken, regardless of user input.
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void panic(const char *fmt, ...);

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments) and exit with status 1.
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void fatal(const char *fmt, ...);

/** Print a warning to stderr. Simulation continues. */
void warn(const char *fmt, ...);

/** Print an informational message to stderr. */
void inform(const char *fmt, ...);

/** Print a debug message to stderr (CAC_LOG=debug only). */
void debug(const char *fmt, ...);

/**
 * Check a library invariant; panic with the stringized condition when it
 * does not hold. Enabled in all build types (simulation correctness is
 * worth more to us than the branch).
 */
#define CAC_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::cac::panic("assertion '%s' failed at %s:%d",                  \
                         #cond, __FILE__, __LINE__);                        \
        }                                                                   \
    } while (0)

} // namespace cac

#endif // CAC_COMMON_LOGGING_HH
