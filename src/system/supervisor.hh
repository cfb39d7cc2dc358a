/**
 * @file
 * Process slots of the sweep loop: what `sweep --supervise N` adds
 * to SweepEngine::run (sweep_engine.hh), and the `wastesim cell`
 * worker's side of the hand-off.
 *
 * A thread slot shares the engine's address space, so a SIGSEGV, OOM
 * kill or abort() in one cell takes down the whole sweep.  A process
 * slot instead runs a re-exec'd `wastesim cell` child on a WorkerPool
 * (worker_pool.hh) and trades a few milliseconds of exec overhead per
 * cell for crash isolation.  The pool spawns, deadline-kills and
 * reaps the workers and verifies their checksummed hand-off files;
 * the engine's one loop adds the policy only a process slot needs,
 * since only a process slot can fail:
 *
 *  - **Crash isolation**: a dying worker loses exactly one cell; the
 *    loop logs the wait status and reschedules it.
 *  - **Hard deadlines**: a cell exceeding the explicit deadlineMs,
 *    or 4x the median finished cell (at least 30 s) once three cells
 *    have finished, is SIGKILLed and counts as a failure.
 *  - **Retry with backoff**: failed cells are retried up to
 *    maxRetries times with exponential backoff plus deterministic
 *    jitter (seeded per cell and attempt, so reruns behave alike).
 *  - **Poison-cell quarantine**: a cell that exhausts its retries is
 *    recorded in the CellCache with its attempt count and last
 *    failure reason; reports render it as an annotated hole, and only
 *    `--retry-quarantined` re-runs it.
 *  - **Checksummed hand-off**: workers echo their cell key inside the
 *    CRC-covered payload, so a corrupt or mismatched output file is
 *    detected and counts as a failure, never cached.
 *
 * Workers ignore the terminal's SIGINT/SIGTERM; draining is the
 * loop's job, for both slot kinds.
 *
 * A seeded fault-injection harness (FaultSpec) exercises every one of
 * these paths deterministically: workers draw their fate from
 * hash(seed, cell key, attempt) and crash, hang or corrupt themselves
 * on demand, so tests and CI can prove that a faulty supervised sweep
 * converges to a cache byte-identical to a fault-free run.
 */

#ifndef WASTESIM_SYSTEM_SUPERVISOR_HH
#define WASTESIM_SYSTEM_SUPERVISOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "system/runner.hh"

namespace wastesim
{

/**
 * Injected fault probabilities, per worker attempt:
 * crash (SIGSEGV / SIGKILL / nonzero exit, picked deterministically),
 * hang (sleep forever; the deadline reaps it), corrupt (flip bytes in
 * the output file after checksumming).  Parsed from the CLI spec
 * "crash:P,hang:P,corrupt:P" (any subset).
 */
struct FaultSpec
{
    double crash = 0;
    double hang = 0;
    double corrupt = 0;

    bool any() const { return crash > 0 || hang > 0 || corrupt > 0; }

    /** Canonical spec string (round-trips through parse()). */
    std::string describe() const;

    static bool parse(const std::string &spec, FaultSpec &out,
                      std::string *err = nullptr);
};

/** What an injected-fault draw decided a worker attempt should do. */
enum class FaultKind
{
    None,
    CrashSegv, //!< raise(SIGSEGV)
    CrashKill, //!< raise(SIGKILL) — also covers external kill -9
    CrashExit, //!< _exit(3), a spurious nonzero exit
    Hang,      //!< pause forever; only the deadline reaps it
    Corrupt,   //!< damage the output file after the CRC header
};

/**
 * Deterministic fault draw for (cell, attempt): the same seed, cell
 * key and attempt index always produce the same fate, in the parent
 * (tests predicting outcomes) and the child (acting them out) alike.
 */
FaultKind faultDraw(const FaultSpec &faults, std::uint64_t seed,
                    const std::string &cell_id, unsigned attempt);

/** Hand-off magic of `wastesim cell` output files. */
constexpr const char *cellOutputMagic = "wastesim-cell-v1";

/**
 * The hand-off file `wastesim cell --out` writes (formatHandoff()
 * with cellOutputMagic) around this payload:
 *
 *   <cell key>\n
 *   <kernel events executed>\n
 *   <RunResult block>
 *
 * The echoed key lets the parent verify the child simulated the
 * configuration it was asked for; the event count, which the cache
 * format leaves out, feeds the sweep heartbeat's events/sec.
 */
std::string formatWorkerOutput(const std::string &cell_id,
                               const RunResult &r);

/** Deterministically flip payload bytes of a formatted output (the
 *  Corrupt fault): the header CRC no longer matches, so the parent
 *  must detect it. */
void corruptWorkerOutput(std::string &file_bytes, std::uint64_t seed,
                         unsigned attempt);

/** Parse a verified hand-off payload; on failure @p err explains
 *  (wrong cell, bad result block). */
bool parseWorkerOutput(const std::string &payload,
                       const std::string &expect_cell_id,
                       RunResult &out, std::string *err);

/** The process slots of a sweep (SweepEngine::setSupervise); the
 *  defaults match the CLI defaults. */
struct SupervisorConfig
{
    /** Concurrent worker processes; 0 (the default) computes cells
     *  on thread slots instead. */
    unsigned workers = 0;
    unsigned maxRetries = 3;      //!< retries after the first failure
    unsigned backoffBaseMs = 200; //!< first retry delay (doubles)
    /** Explicit per-cell hard deadline; 0 adapts it to 4x the median
     *  finished cell, at least 30 s, once 3 cells have finished. */
    unsigned deadlineMs = 0;
    std::uint64_t faultSeed = 0;
    FaultSpec faults; //!< forwarded to workers
    /** Worker binary; empty resolves /proc/self/exe (re-exec). */
    std::string program;
    /** Arguments appended to every worker's command line: the
     *  simulation parameters the topology flags do not cover
     *  (--scale N, --full-size), so the child bit-reproduces the
     *  parent's SweepSpec, and the per-run observability flags. */
    std::vector<std::string> workerArgs;
};

/** Delay before retrying a cell whose attempt @p failed_attempt
 *  (0-based) failed: backoffBaseMs doubling per attempt, with jitter
 *  drawn deterministically from (faultSeed, cell, attempt). */
std::uint64_t retryBackoffMs(const SupervisorConfig &cfg,
                             const std::string &cell_id,
                             unsigned failed_attempt);

} // namespace wastesim

#endif // WASTESIM_SYSTEM_SUPERVISOR_HH
