/**
 * @file
 * gem5-style debug-flag tracing.
 *
 * Every traceable subsystem owns one named Flag; DPRINTF(flag, eq,
 * fmt, ...) compiles to a single branch on the flag's bool when the
 * flag is off, so instrumented hot paths cost one predictable-taken
 * test and nothing else.  Enabled flags emit sim-time-stamped lines
 * (`--debug-flags mesi,dram`), optionally restricted to a tick window
 * (`--debug-start` / `--debug-end`).
 *
 * Trace output goes to stderr (never stdout, which carries reports),
 * or to the installable sink so tests can capture lines.  Tracing is
 * independent of logVerbosity: -q silences inform(), not DPRINTF.
 */

#ifndef WASTESIM_OBS_DEBUG_HH
#define WASTESIM_OBS_DEBUG_HH

#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace wastesim
{
namespace debug
{

/** One named trace category.  The enabled bool is the entire runtime
 *  cost of a disabled DPRINTF site. */
struct Flag
{
    const char *name; //!< CLI name ("mesi", "noc", ...)
    const char *desc; //!< one-line help text
    bool enabled = false;
};

extern Flag Mesi;   //!< directory transactions, invalidations, recalls
extern Flag DeNovo; //!< DeNovo L2 registrations and recalls
extern Flag Noc;    //!< every Network::send with route and flits
extern Flag Dram;   //!< per-request DRAM issue with row outcome
extern Flag Queue;  //!< event-queue occupancy milestones
extern Flag Sweep;  //!< sweep-engine cell lifecycle (wall clock)
extern Flag Supervisor; //!< worker-pool spawn/reap/retry decisions

/** Tick window outside which enabled flags stay silent:
 *  [windowStart, windowEnd). */
extern Tick windowStart;
extern Tick windowEnd;

/** Every registered flag, in help order. */
const std::vector<Flag *> &allFlags();

/**
 * Enable exactly the comma-separated flags in @p csv (all others are
 * disabled; empty @p csv disables everything; the pseudo-flag "all"
 * enables every flag).  Unknown names fail with @p err listing the
 * valid flags.
 */
bool setFlags(const std::string &csv, std::string *err = nullptr);

/** Disable every flag and reset the tick window. */
void clearFlags();

/** Comma-separated list of all flag names (for help/errors). */
std::string flagList();

/** True when @p now falls inside the trace window. */
inline bool
inWindow(Tick now)
{
    return now >= windowStart && now < windowEnd;
}

/**
 * Test hook: when set, trace lines go here instead of stderr.  The
 * line includes its trailing newline.
 */
extern std::function<void(const std::string &)> sink;

/** Emit one trace line for @p f at sim time @p now (window-gated). */
void print(const Flag &f, Tick now, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Emit one tickless trace line (wall-clock domains, e.g. sweep). */
void printNoTick(const Flag &f, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace debug
} // namespace wastesim

/** True when trace flag @p flag is enabled (gem5's DTRACE). */
#define DTRACE(flag) (::wastesim::debug::flag.enabled)

/**
 * Trace through flag @p flag with the sim time of @p eq (anything
 * with a .now()).  Disabled: one branch, arguments unevaluated.
 */
#define DPRINTF(flag, eq, ...)                                              \
    do {                                                                    \
        if (DTRACE(flag))                                                   \
            ::wastesim::debug::print(::wastesim::debug::flag, (eq).now(),   \
                                     __VA_ARGS__);                          \
    } while (0)

/** DPRINTF without a sim-time stamp (wall-clock contexts). */
#define DPRINTF_NT(flag, ...)                                               \
    do {                                                                    \
        if (DTRACE(flag))                                                   \
            ::wastesim::debug::printNoTick(::wastesim::debug::flag,         \
                                           __VA_ARGS__);                    \
    } while (0)

#endif // WASTESIM_OBS_DEBUG_HH
