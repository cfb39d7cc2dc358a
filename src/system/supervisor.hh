/**
 * @file
 * Fault-tolerant sweep supervisor: runs a SweepSpec on a WorkerPool
 * (worker_pool.hh) whose workers are re-exec'd `wastesim cell`
 * children computing one grid cell at a time.
 *
 * The threaded SweepEngine shares one address space, so a SIGSEGV,
 * OOM kill or abort() in any single cell takes down the whole sweep
 * and every in-flight result with it.  The supervisor trades a few
 * milliseconds of exec overhead per cell for crash isolation.  The
 * pool spawns, deadline-kills and reaps the workers and verifies
 * their checksummed hand-off files; the supervisor keeps the policy:
 *
 *  - **Crash isolation**: a dying worker loses exactly one cell; the
 *    supervisor logs the wait status and reschedules.
 *  - **Hard deadlines**: the stall detector promoted from warning to
 *    kill — a cell exceeding the explicit `--cell-deadline-ms`, or 4x
 *    the median completed-cell time once enough samples exist, is
 *    SIGKILLed and treated as a failure.
 *  - **Retry with backoff**: failed cells are retried up to
 *    maxRetries times with exponential backoff plus deterministic
 *    jitter (seeded per cell/attempt, so reruns behave identically).
 *  - **Poison-cell quarantine**: a cell that exhausts its retries is
 *    recorded in the CellCache with its attempt count and last
 *    failure reason; reports render it as an annotated hole instead
 *    of erroring, and only `--retry-quarantined` re-runs it.
 *  - **Checksummed hand-off**: workers echo their cell key inside the
 *    CRC-covered payload, so a corrupt or mismatched output file is
 *    detected and counts as a failure — never silently cached.
 *  - **Graceful drain**: the first SIGINT/SIGTERM stops spawning and
 *    lets in-flight workers finish (their cells autosave as usual;
 *    workers ignore the terminal's SIGINT); a second signal kills the
 *    remaining workers immediately.
 *
 * A seeded fault-injection harness (FaultSpec) exercises every one of
 * these paths deterministically: workers draw their fate from
 * hash(seed, cell key, attempt) and crash/hang/corrupt themselves on
 * demand, so tests and CI can prove that a faulty supervised sweep
 * converges to a cache byte-identical to a fault-free run.
 */

#ifndef WASTESIM_SYSTEM_SUPERVISOR_HH
#define WASTESIM_SYSTEM_SUPERVISOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "system/sweep_engine.hh"
#include "system/worker_pool.hh"

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
 *   <RunResult block>
 *
 * The echoed key lets the parent verify the child simulated the
 * configuration it was asked for.
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

/** Supervisor knobs; the defaults match the CLI defaults. */
struct SupervisorConfig
{
    unsigned workers = 2;       //!< concurrent worker processes
    unsigned maxRetries = 3;    //!< retries after the first failure
    unsigned backoffBaseMs = 200; //!< first retry delay (doubles)
    /** Explicit per-cell hard deadline; 0 enables the adaptive one
     *  (stallKillFactor x median completed cell, floored at
     *  minAdaptiveDeadlineMs, once 3 cells completed). */
    unsigned deadlineMs = 0;
    double stallKillFactor = 4.0;
    unsigned minAdaptiveDeadlineMs = 30000;
    std::uint64_t faultSeed = 0;
    FaultSpec faults;           //!< forwarded to workers
    bool retryQuarantined = false;
    unsigned progressMs = 0;    //!< heartbeat period; 0 = off
    std::string autosavePath;   //!< cache persisted per cell; "" = off
    std::string timelinePath;   //!< worker-lane trace JSON; "" = off
    /** Worker binary; empty resolves /proc/self/exe (re-exec). */
    std::string program;
    /** Extra args fixing the simulation parameters the topology flags
     *  do not cover (--scale N, --full-size); built by the CLI so the
     *  child bit-reproduces the parent's SweepSpec. */
    std::vector<std::string> workerParamArgs;
    unsigned shard = 0;
    unsigned numShards = 1;
};

/**
 * Runs a SweepSpec like SweepEngine::run, but on child processes.
 * The final cache is byte-identical to an engine run of the same spec
 * (same cells, same canonical serialization); only the failure
 * handling differs.
 */
class SweepSupervisor
{
  public:
    SweepSupervisor(SweepSpec spec, SupervisorConfig cfg);

    /** Serve hits, spawn workers for misses, retry/quarantine
     *  failures.  Returns figure-ordered Sweeps with quarantined
     *  cells annotated as holes. */
    std::vector<Sweep> run(CellCache &cache);

    std::size_t cellsTotal() const { return statTotal_; }
    std::size_t cellsHit() const { return statHit_; }
    std::size_t cellsComputed() const { return statComputed_; }
    std::size_t cellsQuarantined() const { return statQuarantined_; }
    /** Failed attempts that were rescheduled. */
    std::size_t retries() const { return statRetries_; }
    /** Workers killed for exceeding their deadline. */
    std::size_t deadlineKills() const { return statKills_; }
    /** True when a drain signal cut the run short. */
    bool interrupted() const { return interrupted_; }

  private:
    SweepSpec spec_;
    SupervisorConfig cfg_;

    std::size_t statTotal_ = 0;
    std::size_t statHit_ = 0;
    std::size_t statComputed_ = 0;
    std::size_t statQuarantined_ = 0;
    std::size_t statRetries_ = 0;
    std::size_t statKills_ = 0;
    bool interrupted_ = false;
};

} // namespace wastesim

#endif // WASTESIM_SYSTEM_SUPERVISOR_HH
