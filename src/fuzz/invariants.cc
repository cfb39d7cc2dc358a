#include "fuzz/invariants.hh"

#include <cmath>
#include <sstream>

#include "metrics/metric_set.hh"
#include "metrics/run_result_schema.hh"

namespace wastesim
{

std::string
Violation::describe() const
{
    std::ostringstream os;
    os << invariant << ": " << path
       << " expected=" << formatDouble(expected)
       << " actual=" << formatDouble(actual)
       << " delta=" << formatDouble(delta());
    if (!detail.empty())
        os << " (" << detail << ")";
    return os.str();
}

std::string
InvariantReport::describe() const
{
    if (ok())
        return "ok";
    std::ostringstream os;
    for (std::size_t i = 0; i < violations.size(); ++i) {
        if (i)
            os << '\n';
        os << violations[i].describe();
    }
    return os.str();
}

void
workloadOpCounts(const Workload &wl, std::uint64_t &loads,
                 std::uint64_t &stores)
{
    const OpCounts &n = wl.opCounts();
    loads = n.loads;
    stores = n.stores;
}

void
checkResultInvariants(const RunResult &r, InvariantReport &rep)
{
    std::uint64_t chan_reads = 0, chan_writes = 0;
    for (const auto &s : r.dramChan) {
        chan_reads += s.reads;
        chan_writes += s.writes;
    }
    if (chan_reads != r.dramReads)
        rep.add("dram.chan-sum", "dram.reads",
                static_cast<double>(r.dramReads),
                static_cast<double>(chan_reads),
                "sum of dram.chan.*.reads over " +
                    std::to_string(r.dramChan.size()) + " channels");
    if (chan_writes != r.dramWrites)
        rep.add("dram.chan-sum", "dram.writes",
                static_cast<double>(r.dramWrites),
                static_cast<double>(chan_writes),
                "sum of dram.chan.*.writes over " +
                    std::to_string(r.dramChan.size()) + " channels");
}

void
checkSystemInvariants(const System &sys, const Workload &wl,
                      const RunResult &r, InvariantReport &rep)
{
    const SystemProbe p = sys.probe();

    // Attributed traffic classes are epoch-windowed; data in flight
    // at the epoch marker is attributed at arrival after its raw
    // charge was zeroed, so the windowed raw total is not a valid
    // ceiling.  The whole-run injection total is: nothing can ever be
    // attributed that was never charged onto a link.
    const double charged = static_cast<double>(p.flitHopsCharged);
    if (r.traffic.total() > charged * (1 + 1e-9) + 1e-6)
        rep.add("traffic.attribution", "traffic.total", charged,
                r.traffic.total(),
                "windowed attributed classes vs whole-run flit-hops "
                "charged at injection");

    if (p.linkFlitsTotal != p.flitHopsCharged)
        rep.add("noc.link-conservation", "noc.link.total",
                static_cast<double>(p.flitHopsCharged),
                static_cast<double>(p.linkFlitsTotal),
                "per-link counter sum vs flits x hops charged at "
                "injection (whole run)");

    if (p.msgPoolFree != p.msgPoolSlots)
        rep.add("pool.steady-state", "noc.msgpool.free",
                static_cast<double>(p.msgPoolSlots),
                static_cast<double>(p.msgPoolFree),
                "message slots still in flight after drain");
    if (p.eqPending != 0)
        rep.add("pool.steady-state", "sim.eq.pending", 0,
                static_cast<double>(p.eqPending),
                "events still queued after drain");
    if (p.eqOverflow != 0)
        rep.add("pool.steady-state", "sim.eq.overflow", 0,
                static_cast<double>(p.eqOverflow),
                "overflow-heap residue after drain");

    std::uint64_t loads = 0, stores = 0;
    workloadOpCounts(wl, loads, stores);
    if (p.demandLoads != loads)
        rep.add("core.issue-counts", "l1.demand.loads",
                static_cast<double>(loads),
                static_cast<double>(p.demandLoads),
                "trace Load ops vs loads accepted at the L1s");
    if (p.demandStores != stores)
        rep.add("core.issue-counts", "l1.demand.stores",
                static_cast<double>(stores),
                static_cast<double>(p.demandStores),
                "trace Store ops vs stores accepted at the L1s");
}

std::string
serializeResult(const RunResult &r)
{
    std::ostringstream os;
    os.precision(17);
    writeRunResultBlock(os, r);
    return os.str();
}

void
compareResults(const RunResult &first, const RunResult &second,
               InvariantReport &rep)
{
    for (const RunResultField &f : runResultFields()) {
        if (f.getU) {
            const std::uint64_t a = f.getU(first);
            const std::uint64_t b = f.getU(second);
            if (a != b)
                rep.add("replay.determinism", f.path,
                        static_cast<double>(a),
                        static_cast<double>(b),
                        "run 1 vs run 2 of the same scenario");
        } else {
            const double a = f.getF(first);
            const double b = f.getF(second);
            if (a != b)
                rep.add("replay.determinism", f.path, a, b,
                        "run 1 vs run 2 of the same scenario");
        }
    }
    // Belt and braces: the registry fields above single-source the
    // serialized block, but compare the bytes too so a schema gap
    // can't hide nondeterminism.
    if (rep.ok() && serializeResult(first) != serializeResult(second))
        rep.add("replay.determinism", "cell.block", 0, 1,
                "serialized blocks differ outside registered fields");
}

} // namespace wastesim
