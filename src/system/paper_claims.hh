/**
 * @file
 * The paper's quantitative claims as data: every number this
 * repository quotes from Smolinski et al. (ISPASS 2015), with the
 * figure it belongs to and how to measure it from a sweep.  The
 * `headline` report shows the entries marked headline; the `paper`
 * report shows all of them next to the measured values.
 *
 * A claim has one of two shapes: the mean reduction of a RunResult
 * metric from one protocol to another, or the mean share part/whole
 * under one protocol.  Sentences neither shape expresses (a range,
 * which benchmarks a mechanism helps, where residual waste comes
 * from) live in README.md next to their figure.
 */

#ifndef WASTESIM_SYSTEM_PAPER_CLAIMS_HH
#define WASTESIM_SYSTEM_PAPER_CLAIMS_HH

#include <optional>
#include <vector>

#include "system/runner.hh"

namespace wastesim
{

/** How a claim's measured value is computed. */
enum class ClaimShape
{
    /** Mean over benchmarks of 1 - metric(to) / metric(from). */
    Reduction,
    /** Mean over benchmarks of metric / whole under `from`. */
    Share,
};

/** One quantitative claim of the paper. */
struct PaperClaim
{
    const char *figure; //!< report id of the figure ("fig5.2", ...)
    const char *label;  //!< row label in the headline and paper reports
    double paper;       //!< the paper's value, as a fraction
    ClaimShape shape;

    /** RunResult metric path (run_result_schema.hh): the reduced
     *  metric, or the share's part. */
    const char *metric;
    const char *whole; //!< Share: denominator path; else nullptr
    const char *from;  //!< Reduction: baseline; Share: the protocol
    const char *to;    //!< Reduction: compared protocol; else nullptr
    const char *bench; //!< only this benchmark; nullptr = every one
    bool headline;     //!< a row of the `headline` report
};

/** Every claim: the headline rows first, in headline order, then the
 *  rest in figure order. */
const std::vector<PaperClaim> &paperClaims();

/**
 * The measured value of @p c over @p s: std::nullopt when a protocol
 * the claim reads is not in the sweep.  Benchmarks with a quarantined
 * cell under either protocol drop out of the mean (as does, for a
 * Reduction, a benchmark whose baseline metric is 0); NaN when no
 * benchmark is left.
 */
std::optional<double> measureClaim(const PaperClaim &c, const Sweep &s);

} // namespace wastesim

#endif // WASTESIM_SYSTEM_PAPER_CLAIMS_HH
