/**
 * @file
 * Trace capture and replay on top of the Workload interface.
 *
 * TraceRecorder serializes any built Workload (Table-4.2 generator,
 * SyntheticWorkload, or a hand-rolled one) to a trace file;
 * TraceWorkload loads such a file and presents it as a Workload, so
 * recorded or externally generated access streams flow through
 * runOne/runSweep and every protocol variant unchanged.  Replaying a
 * recording reproduces the source workload's RunResult exactly: the
 * simulation is a pure function of ops, regions and barriers, all of
 * which round-trip bit-identically.
 */

#ifndef WASTESIM_TRACE_TRACE_WORKLOAD_HH
#define WASTESIM_TRACE_TRACE_WORKLOAD_HH

#include <memory>
#include <string>

#include "trace/trace_io.hh"
#include "workload/workload.hh"

namespace wastesim
{

/** Writes Workloads to trace files, draining a stream of each. */
class TraceRecorder
{
  public:
    /** @param path destination trace file. */
    explicit TraceRecorder(std::string path) : path_(std::move(path)) {}

    /** Serialize @p wl; returns false (with error() set) on failure. */
    bool record(const Workload &wl);

    const std::string &error() const { return error_; }

    /** The header of the last trace record() wrote. */
    const TraceHeader &written() const { return written_; }

  private:
    std::string path_;
    std::string error_;
    TraceHeader written_;
};

/** A Workload deserialized from a trace file, held whole. */
class TraceWorkload : public HeldWorkload
{
  public:
    /**
     * Load a trace file for replay on @p topo.  A trace records the
     * per-core streams of the topology it was captured on; replaying
     * it on a mismatched system is rejected with a clear error rather
     * than producing out-of-bounds or mis-routed streams: the full
     * recorded geometry (mesh dims + MC placement) must match.
     *
     * @return the workload, or nullptr with @p err set (when given).
     */
    static std::unique_ptr<TraceWorkload>
    load(const std::string &path, Topology topo,
         std::string *err = nullptr);

    /** Load for the default (paper) topology. */
    static std::unique_ptr<TraceWorkload>
    load(const std::string &path, std::string *err = nullptr)
    {
        return load(path, Topology{}, err);
    }

    /**
     * Load on the recorded topology, whatever it is: topo() is the
     * capture topology (`wastesim info`, and `replay` without
     * topology flags).
     */
    static std::unique_ptr<TraceWorkload>
    loadAnyTopology(const std::string &path, std::string *err = nullptr);

    std::string name() const override { return name_; }
    std::string inputDesc() const override { return inputDesc_; }

    /** Path the trace was loaded from. */
    const std::string &path() const { return path_; }

  private:
    explicit TraceWorkload(Topology topo) : HeldWorkload(std::move(topo))
    {
    }

    std::string name_;
    std::string inputDesc_;
    std::string path_;
};

} // namespace wastesim

#endif // WASTESIM_TRACE_TRACE_WORKLOAD_HH
