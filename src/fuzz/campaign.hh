/**
 * @file
 * Fuzz campaign driver: draw N seeded scenarios, run each under the
 * invariant checker in a crash-isolated `wastesim fuzzone` child — a
 * one-slot WorkerPool (system/worker_pool.hh), so scenarios stay
 * serial and the report order is fixed — and produce a deterministic
 * report.  A crashing or hanging scenario is captured
 * (exit/signal/deadline recorded against its one-line reproducer)
 * instead of killing the campaign.  `wastesim fuzzone --scenario
 * LINE` re-checks one reproducer in-process for debugging.
 *
 * Failing scenarios can be delta-minimized on the spot and emitted
 * into a regression corpus directory, where the ctest harness replays
 * every committed scenario against its pinned verdict.
 */

#ifndef WASTESIM_FUZZ_CAMPAIGN_HH
#define WASTESIM_FUZZ_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/invariants.hh"
#include "fuzz/scenario.hh"
#include "system/worker_pool.hh"

namespace wastesim
{

/** Campaign knobs; defaults match the `wastesim fuzz` CLI. */
struct FuzzOptions
{
    std::uint64_t seed = 1;
    std::uint64_t runs = 100;
    double timeBudgetSec = 0;  //!< stop drawing after this; 0 = off
    bool minimize = false;     //!< delta-minimize failing scenarios
    std::string corpusDir;     //!< emit minimized anomalies here
    unsigned deadlineMs = 120000; //!< per-scenario child deadline
    bool checkReplay = true;   //!< run twice, compare byte-identity
    Tick maxTicks = 500'000'000ULL;
    /** Worker binary; empty re-execs /proc/self/exe. */
    std::string program;
    unsigned minimizeMaxTests = 64;
};

enum class FuzzVerdict
{
    Pass,
    Violation, //!< invariant violation (checker report in detail)
    Crash      //!< child died / hung (wait status in detail)
};

const char *fuzzVerdictName(FuzzVerdict v);

/** One scenario's fate. */
struct FuzzOutcome
{
    std::uint64_t index = 0;
    std::string line;        //!< one-line reproducer
    FuzzVerdict verdict = FuzzVerdict::Pass;
    std::string invariant;   //!< first violated law (Violation only)
    std::string detail;      //!< checker report / wait status
    std::string resultCrc;   //!< CRC-32 of the serialized RunResult
    std::string minimizedLine; //!< after --minimize (failures only)
    unsigned shrunkAxes = 0; //!< axes strictly smaller than original
};

/** Everything a campaign produced. */
struct FuzzReport
{
    std::uint64_t seed = 0;
    std::uint64_t runsRequested = 0;
    bool timeBudgetHit = false;
    bool interrupted = false;
    std::vector<FuzzOutcome> outcomes;

    std::size_t passes = 0, violations = 0, crashes = 0;

    bool clean() const { return violations == 0 && crashes == 0; }

    /** Deterministic text report (same seed -> same bytes, modulo
     *  nondeterministic failures it would then be reporting). */
    std::string toText() const;
};

/**
 * Run @p s in-process under the full invariant checker: simulate
 * (twice when @p check_replay), run the System/RunResult laws, and
 * compare the replays field-by-field.  @p result_crc (optional)
 * receives the CRC-32 of the first run's serialized RunResult — the
 * corpus's pinned-result fingerprint.
 */
InvariantReport checkScenario(const Scenario &s, Tick max_ticks,
                              bool check_replay,
                              std::string *result_crc = nullptr);

/**
 * Worker-side entry for `wastesim fuzzone`: parse @p line, run
 * checkScenario, write the checksummed hand-off file to @p out_path.
 * Returns the process exit code (0 pass, 1 violation, 2 bad input).
 */
int fuzzWorkerMain(const std::string &line, const std::string &out_path,
                   Tick max_ticks, bool check_replay);

/** The campaign proper. */
class FuzzCampaign
{
  public:
    explicit FuzzCampaign(FuzzOptions opts);

    FuzzReport run();

  private:
    /** Check @p line in a worker; false when a second drain signal
     *  stopped it (@p o is then not a verdict). */
    bool runScenario(std::uint64_t index, const std::string &line,
                     FuzzOutcome &o);
    void minimizeOutcome(FuzzOutcome &o, const Scenario &s);

    FuzzOptions opts_;
    WorkerPool pool_;
};

// --- regression corpus -------------------------------------------------

/** One committed corpus scenario with its pinned verdict. */
struct CorpusEntry
{
    std::string scenarioLine;
    FuzzVerdict verdict = FuzzVerdict::Pass; //!< Pass or Violation
    std::string invariant;  //!< pinned law name (Violation only)
    std::string resultCrc;  //!< pinned result CRC ("" = unpinned)
};

/** Write @p e as a tests/corpus .scn file. */
bool writeCorpusFile(const std::string &path, const CorpusEntry &e,
                     std::string *err = nullptr);

/** Parse a corpus file ("#" comments, key lines). */
bool readCorpusFile(const std::string &path, CorpusEntry &e,
                    std::string *err = nullptr);

/**
 * Replay @p e in-process and compare against its pinned verdict,
 * invariant and result CRC.  False (with @p err naming the mismatch)
 * on any divergence.
 */
bool replayCorpusEntry(const CorpusEntry &e, Tick max_ticks,
                       std::string *err = nullptr);

} // namespace wastesim

#endif // WASTESIM_FUZZ_CAMPAIGN_HH
