#include "trace/trace_workload.hh"

#include <fstream>

#include "trace/trace_io.hh"

namespace wastesim
{

bool
TraceRecorder::record(const Workload &wl)
{
    std::ofstream os(path_, std::ios::binary);
    if (!os) {
        error_ = "cannot open '" + path_ + "' for writing";
        return false;
    }

    TraceWriter w(os);

    TraceHeader h;
    h.numCores = wl.numCores();
    h.meshX = wl.topo().meshX();
    h.meshY = wl.topo().meshY();
    h.mcTiles.assign(wl.topo().memCtrlTiles().begin(),
                     wl.topo().memCtrlTiles().end());
    h.name = wl.name();
    h.inputDesc = wl.inputDesc();
    h.numRegions = wl.regions().numRegions();
    h.numBarriers = wl.barriers().size();
    h.totalOps = wl.totalOps();
    w.writeHeader(h);

    for (std::size_t i = 0; i < wl.regions().numRegions(); ++i)
        w.writeRegion(wl.regions().region(static_cast<RegionId>(i)));
    for (const BarrierInfo &b : wl.barriers())
        w.writeBarrier(b);
    for (const Trace &t : wl.traces())
        w.writeTrace(t);
    w.writeTrailer();

    if (!w.ok()) {
        error_ = "write error on '" + path_ + "'";
        return false;
    }
    return true;
}

namespace
{

/** nullptr return with a diagnostic, shared by both load paths. */
std::unique_ptr<TraceWorkload>
loadError(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return nullptr;
}

} // namespace

std::unique_ptr<TraceWorkload>
TraceWorkload::load(const std::string &path, Topology topo,
                    std::string *err)
{
    auto wl = loadAnyTopology(path, err);
    if (!wl)
        return nullptr;
    if (wl->numCores() != topo.numTiles()) {
        return loadError(
            err, path + ": trace was recorded for " +
                     std::to_string(wl->numCores()) +
                     " cores; the active topology " + topo.describe() +
                     " has " + std::to_string(topo.numTiles()) +
                     " (re-record the trace or pass a matching "
                     "--mesh)");
    }
    // v2 traces are self-describing: the full recorded geometry —
    // mesh shape and MC placement, not just the core count — must
    // match, or the replay would route traffic over a different NoC
    // and memory system than the capture.  v1 traces never recorded
    // geometry, so the core-count check above is all they can offer.
    if (wl->hasRecordedTopology() && wl->topo() != topo) {
        return loadError(
            err, path + ": trace was recorded on " +
                     wl->topo().describe() +
                     "; the active topology is " + topo.describe() +
                     " (re-record the trace or pass a matching "
                     "--mesh/--mc-tiles)");
    }
    wl->topo_ = std::move(topo);
    return wl;
}

std::unique_ptr<TraceWorkload>
TraceWorkload::loadAnyTopology(const std::string &path,
                               std::string *err)
{
    auto set_err = [&](const std::string &msg) {
        return loadError(err, msg);
    };

    std::ifstream is(path, std::ios::binary);
    if (!is)
        return set_err("cannot open '" + path + "'");

    TraceReader r(is);
    TraceHeader h;
    if (!r.readHeader(h))
        return set_err(path + ": " + r.error());

    // Cannot use make_unique: the constructor is private.  The
    // recorded core count, not the default topology, sizes the
    // streams; load() installs the caller's topology after checking.
    std::unique_ptr<TraceWorkload> wl(new TraceWorkload(Topology{}));
    wl->traces_.clear();
    wl->traces_.resize(h.numCores);
    wl->name_ = h.name;
    wl->inputDesc_ = h.inputDesc;
    wl->path_ = path;
    if (h.hasTopology()) {
        // v2: rebuild the recorded geometry (the reader validated
        // dims and MC tiles, so construction cannot fatal).
        std::vector<NodeId> mcs(h.mcTiles.begin(), h.mcTiles.end());
        wl->topo_ = Topology(h.meshX, h.meshY, std::move(mcs));
        wl->hasRecordedTopo_ = true;
    }

    for (std::uint64_t i = 0; i < h.numRegions; ++i) {
        Region reg;
        if (!r.readRegion(reg))
            return set_err(path + ": " + r.error());
        // RegionTable::add() reassigns sequential ids, matching the
        // id-ordered layout TraceRecorder wrote.
        wl->regions_.add(std::move(reg));
    }

    wl->barriers_.resize(h.numBarriers);
    for (auto &b : wl->barriers_)
        if (!r.readBarrier(b, h.numRegions))
            return set_err(path + ": " + r.error());

    std::uint64_t total_ops = 0;
    for (auto &t : wl->traces_) {
        if (!r.readTrace(t, h.numBarriers))
            return set_err(path + ": " + r.error());
        t.trim();
        total_ops += t.size();
    }

    if (!r.readTrailer())
        return set_err(path + ": " + r.error());
    if (total_ops != h.totalOps)
        return set_err(path + ": op count mismatch (header says " +
                       std::to_string(h.totalOps) + ", streams hold " +
                       std::to_string(total_ops) + ")");
    return wl;
}

} // namespace wastesim
