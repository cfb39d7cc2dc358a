/**
 * @file
 * Layer drivers of the benchmark suite: small loops that call one
 * simulator layer's public functions directly and time them, so a
 * change to one layer shows up in that layer's own number as well as
 * in the end-to-end workloads.
 */

#ifndef WASTESIM_BENCH_SUITE_LAYERS_HH
#define WASTESIM_BENCH_SUITE_LAYERS_HH

#include <string>
#include <vector>

namespace suite
{

/** One layer-driver metric (BENCHMARK.json per_layer name). */
struct LayerMetric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/**
 * Run every layer driver.  Each ns-per-operation value is the median
 * of five repeats.  A driver whose output is wrong (lost messages, a
 * missing Bloom hit, ...) ends the process with exit code 1.
 *
 * @param smoke tiny operation counts (checks wiring, not speed)
 */
std::vector<LayerMetric> runLayerDrivers(bool smoke);

} // namespace suite

#endif // WASTESIM_BENCH_SUITE_LAYERS_HH
