/**
 * @file
 * Top-level simulated system: 16 tiles (core + L1 + L2 slice), four
 * corner memory controllers with DRAM channels, the mesh network, the
 * waste profilers and the traffic recorder — assembled for one of the
 * nine protocol configurations and one workload.
 */

#ifndef WASTESIM_SYSTEM_SYSTEM_HH
#define WASTESIM_SYSTEM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "core/barrier.hh"
#include "core/core.hh"
#include "dram/dram_channel.hh"
#include "dram/memory_controller.hh"
#include "noc/network.hh"
#include "profile/mem_profiler.hh"
#include "profile/traffic.hh"
#include "profile/word_profiler.hh"
#include "protocol/denovo/denovo_l1.hh"
#include "protocol/denovo/denovo_l2.hh"
#include "protocol/mesi/mesi_dir.hh"
#include "protocol/mesi/mesi_l1.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"
#include "workload/workload.hh"

namespace wastesim
{

/** Everything one simulation produces. */
struct RunResult
{
    std::string protocol;
    std::string benchmark;

    TrafficStats traffic;       //!< flit-hops (measurement window)
    WasteCounts l1Waste;        //!< words fetched into L1s (Fig. 5.3a)
    WasteCounts l2Waste;        //!< words fetched into L2s (Fig. 5.3b)
    WasteCounts memWaste;       //!< words fetched from memory (5.3c)
    TimeBreakdown time;         //!< summed core breakdown (Fig. 5.2)
    Tick cycles = 0;            //!< measured execution time

    double rawFlitHops = 0;     //!< conservation reference
    std::uint64_t messages = 0;
    std::uint64_t l1Accesses = 0;   //!< loads + stores at the L1s
    std::uint64_t l2Accesses = 0;   //!< requests handled by L2 slices
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t nacks = 0;
    std::uint64_t recalls = 0;
    std::uint64_t bypassDirect = 0;
    std::uint64_t selfInvalidations = 0;
    std::uint64_t wordsFromMemory = 0;
    std::uint64_t maxLinkFlits = 0; //!< NoC hotspot load

    /** Kernel events executed over the WHOLE run, warmup included —
     *  deliberately not an epoch delta like the stats above, because
     *  bench_kernel divides it by wall time, which also covers
     *  warmup.  Not figure data; not serialized into the sweep
     *  cache. */
    std::uint64_t eventsExecuted = 0;

    /** One DRAM channel's demand-side statistics (reads/writes are
     *  epoch deltas like the aggregate above; row hits and the queue
     *  peak cover the whole run). */
    struct DramChanStats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t rowHits = 0;
        std::uint64_t queuePeak = 0;
    };

    /** Per-channel DRAM stats, published as dynamic dram.chan.<i>.*
     *  metric paths only.  NOT in the serialized cell format: sweep
     *  cache bytes stay identical with observability compiled in. */
    std::vector<DramChanStats> dramChan;
};

/**
 * End-of-run structural state snapshot for the fuzzer's invariant
 * checker: demand-request totals to balance against the workload's
 * trace op counts, pool/queue occupancy for the alloc-free
 * steady-state law, and the network's two independently maintained
 * flit-hop totals for per-link conservation.
 */
struct SystemProbe
{
    std::uint64_t demandLoads = 0;  //!< ops accepted at the L1s
    std::uint64_t demandStores = 0;
    std::size_t msgPoolSlots = 0;   //!< network message pool size
    std::size_t msgPoolFree = 0;    //!< free-listed slots (== size when idle)
    std::size_t eqPending = 0;      //!< events still queued
    std::size_t eqOverflow = 0;     //!< overflow-heap residue
    std::uint64_t linkFlitsTotal = 0; //!< sum of the per-link matrix
    std::uint64_t flitHopsCharged = 0; //!< flits x hops at injection
};

/** One protocol x workload simulation instance. */
class System
{
  public:
    /**
     * @param threads must be 1 (the kernel is serial); kept so
     *        existing four-argument callers still compile.
     */
    System(ProtocolName protocol, const Workload &workload,
           SimParams params = SimParams{}, unsigned threads = 1);
    ~System();

    /**
     * Run to completion.
     * @param max_ticks safety limit
     * @return the collected results
     */
    RunResult run(Tick max_ticks = 2'000'000'000ULL);

    // --- testing hooks ---
    EventQueue &eventQueue() { return eq_; }
    Network &network() { return *net_; }
    MemProfiler &memProfiler() { return memProf_; }
    L1Cache &l1(CoreId c) { return *l1Ifaces_[c]; }
    const MesiDir *mesiDir(NodeId s) const
    {
        return cfg_.isMesi() ? mesiDirs_[s].get() : nullptr;
    }
    const DenovoL2 *denovoL2(NodeId s) const
    {
        return cfg_.isDeNovo() ? dnL2s_[s].get() : nullptr;
    }
    const Core &core(CoreId c) const { return *cores_[c]; }
    const ProtocolConfig &config() const { return cfg_; }
    bool coresDone() const;

    /** Coherence invariant check (property tests): at most one MESI
     *  owner per line; a DeNovo word registered to at most one L1. */
    void checkInvariants() const;

    /** Structural end-of-run snapshot for checkSystemInvariants(). */
    SystemProbe probe() const;

  private:
    void onEpoch();

    /** Register counters/gauges and thread names on @p o. */
    void registerObservables(class SimObserver &o);

    ProtocolName protocolName_;
    ProtocolConfig cfg_;
    SimParams params_;
    const Workload &workload_;

    EventQueue eq_;
    TrafficRecorder traffic_;
    std::unique_ptr<Network> net_;
    MemProfiler memProf_;
    std::vector<WordProfiler> l1Profs_;
    std::vector<WordProfiler> l2Profs_;

    // Protocol controllers (one family populated).
    std::vector<std::unique_ptr<MesiL1>> mesiL1s_;
    std::vector<std::unique_ptr<MesiDir>> mesiDirs_;
    std::vector<std::unique_ptr<DenovoL1>> dnL1s_;
    std::vector<std::unique_ptr<DenovoL2>> dnL2s_;
    std::vector<L1Cache *> l1Ifaces_;

    std::vector<std::unique_ptr<DramChannel>> drams_;
    std::vector<std::unique_ptr<MemoryController>> mcs_;

    Barrier barrier_;
    std::vector<std::unique_ptr<Core>> cores_;

    bool epochMarked_ = false;
    Tick epochStart_ = 0;
    Tick lastDone_ = 0;
    unsigned coresDone_ = 0;
    std::uint64_t dramReadsAtEpoch_ = 0, dramWritesAtEpoch_ = 0;
    std::vector<std::uint64_t> dramChanReadsAtEpoch_;
    std::vector<std::uint64_t> dramChanWritesAtEpoch_;
    std::uint64_t msgsAtEpoch_ = 0;
};

} // namespace wastesim

#endif // WASTESIM_SYSTEM_SYSTEM_HH
