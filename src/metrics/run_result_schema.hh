/**
 * @file
 * The metric registry for RunResult: every counter a simulation
 * produces, registered with its hierarchy path, unit, value kind and
 * its position in the sweep-cache cell format.  This table is the
 * single source of truth for
 *
 *  - sweep-cache serialization (writeRunResultBlock /
 *    readRunResultBlock implement the versioned cell format by
 *    iterating the registry, so the on-disk layout can never drift
 *    from the schema);
 *  - MetricSet publication (runResultMetrics turns a RunResult — and
 *    optionally the topology-aware EnergyModel — into named metrics
 *    for the JSON/CSV emitters and bench rows);
 *  - schema introspection (metricsSchema / metricsSchemaFingerprint
 *    back the `wastesim report --schema` CI stability check).
 */

#ifndef WASTESIM_METRICS_RUN_RESULT_SCHEMA_HH
#define WASTESIM_METRICS_RUN_RESULT_SCHEMA_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "metrics/metric_set.hh"

namespace wastesim
{

struct RunResult;
class EnergyModel;

/** One registered RunResult counter. */
struct RunResultField
{
    const char *path; //!< metric hierarchy path
    const char *unit;
    MetricKind kind;

    /**
     * Line of the serialized cell block this field lives on (0-based,
     * after the protocol/benchmark header line); -1 for fields that
     * are deliberately not part of the cache format (eventsExecuted).
     * Fields serialize in registry order within their line.
     */
    int line;

    double (*getF)(const RunResult &);
    void (*setF)(RunResult &, double);

    /** Exact accessors for U64 fields (null for F64 fields). */
    std::uint64_t (*getU)(const RunResult &);
    void (*setU)(RunResult &, std::uint64_t);
};

/** A derived (computed, never serialized) metric definition. */
struct DerivedMetric
{
    const char *path;
    const char *unit;
    double (*compute)(const RunResult &);
};

/** The registry of stored RunResult counters, in cell-format order. */
const std::vector<RunResultField> &runResultFields();

/** Derived aggregate metrics (traffic class totals, waste fractions,
 *  time total) computed from the stored counters. */
const std::vector<DerivedMetric> &runResultDerivedMetrics();

/**
 * Cell-block format version of the current sweep caches
 * (wastesim-cells-v1 and -v2 both carry version-1 blocks, as do the
 * `wastesim cell` worker hand-off files).
 */
constexpr unsigned runResultBlockVersion = 1;

/**
 * Serialize @p r as one cell block of format @p version: the
 * protocol/benchmark header line followed by the registry fields in
 * line order.  Byte-identical to the historical hand-rolled format
 * for version 1 (the caller sets the stream precision; the caches use
 * 17 so doubles round-trip).  fatal() on an unknown version.
 */
void writeRunResultBlock(std::ostream &os, const RunResult &r,
                         unsigned version = runResultBlockVersion);

/** Parse a cell block written by writeRunResultBlock(). */
bool readRunResultBlock(std::istream &is, RunResult &r,
                        unsigned version = runResultBlockVersion);

/**
 * Publish every registered counter plus the derived aggregates of
 * @p r into a MetricSet, in schema order.  With @p energy, the
 * topology-aware energy estimate is appended as first-class
 * energy.* metrics.
 */
MetricSet runResultMetrics(const RunResult &r,
                           const EnergyModel *energy = nullptr);

/**
 * The full metric schema (stored fields, derived aggregates, energy
 * metrics) as descriptors, in emission order.
 */
std::vector<Metric> metricsSchema();

/**
 * FNV-1a fingerprint over (path, unit, kind) of the full schema, as
 * a 16-hex-digit string.  CI pins this against a committed reference:
 * any rename, unit change or reorder of the metric schema fails the
 * check and forces a deliberate reference update.
 */
std::string metricsSchemaFingerprint();

} // namespace wastesim

#endif // WASTESIM_METRICS_RUN_RESULT_SCHEMA_HH
