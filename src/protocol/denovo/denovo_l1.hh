/**
 * @file
 * DeNovo L1 cache controller (Chapter 2 + Section 3.1).
 *
 * Word-granularity coherence: a word is readable if Valid (fetched)
 * or Registered (written by this core).  Stores use write-validate —
 * no fetch — and batch registrations through the write-combining
 * table.  Barriers self-invalidate phase-written regions without any
 * network traffic.  With the optimizations enabled this controller
 * also composes Flex communication-region requests, routes bypass
 * requests straight to the memory controller guarded by the L1 Bloom
 * shadow, and maintains that shadow.
 */

#ifndef WASTESIM_PROTOCOL_DENOVO_DENOVO_L1_HH
#define WASTESIM_PROTOCOL_DENOVO_DENOVO_L1_HH

#include <unordered_map>
#include <vector>

#include "bloom/bloom_bank.hh"
#include "cache/cache_array.hh"
#include "noc/network.hh"
#include "profile/mem_profiler.hh"
#include "profile/word_profiler.hh"
#include "protocol/denovo/write_combine.hh"
#include "protocol/protocol.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"
#include "workload/region_table.hh"

namespace wastesim
{

/** A DeNovo L1 line: the common metadata plus its registered words. */
struct DenovoL1Line : CacheLine
{
    WordMask regWords; //!< words this core registered

    void
    resetTo(Addr line_addr)
    {
        CacheLine::resetTo(line_addr);
        regWords = WordMask::none();
    }
};
static_assert(sizeof(DenovoL1Line) == 112);

/** Per-core DeNovo L1 data cache. */
class DenovoL1 : public L1Cache
{
  public:
    DenovoL1(CoreId id, const ProtocolConfig &cfg,
             const SimParams &params, EventQueue &eq, Network &net,
             WordProfiler &prof, MemProfiler &mem_prof,
             const RegionTable &regions);

    // L1Cache interface.
    void load(Addr a, LoadCallback done) override;
    void store(Addr a, PlainCallback accepted) override;
    void drainWrites(PlainCallback done) override;
    void barrierRelease(const std::vector<RegionId> &inv_regions)
        override;

    // Network interface.
    void handle(Message msg) override;

    // Statistics.
    std::uint64_t loadHits() const { return loadHits_; }
    std::uint64_t loadMisses() const { return loadMisses_; }
    std::uint64_t demandLoads() const override { return demandLoads_; }
    std::uint64_t demandStores() const override { return demandStores_; }
    std::uint64_t bypassDirect() const { return bypassDirect_; }
    std::uint64_t bypassViaL2() const { return bypassViaL2_; }
    std::uint64_t selfInvalidated() const { return selfInvalidated_; }
    const WriteCombineTable &writeCombine() const { return wc_; }
    const BloomShadow &bloom() const { return bloom_; }

    const CacheArray<DenovoL1Line> &array() const { return array_; }

    /** Debug: print this L1's view of a line. */
    void dumpLine(Addr line_addr) const;

  private:
    struct LoadMshr
    {
        Addr line = 0;
        bool usedMemory = false;
        Tick issued = 0;
        Tick tMcArrive = 0, tMemDone = 0;
        /** (word number, callback) pairs blocked on this line. */
        std::vector<std::pair<Addr, LoadCallback>> waiters;
        bool retryPending = false;
        unsigned retries = 0; //!< livelock detector
    };

    /** Readable = Valid or Registered. */
    static WordMask
    readable(const DenovoL1Line &cl)
    {
        return cl.validWords | cl.regWords;
    }

    bool isReadable(Addr a) const;

    void missLoad(Addr a, LoadCallback done);

    /** Compose the wanted word set (Flex-aware) for a missing word. */
    Payload composeWanted(Addr a);

    /** Route a composed request: via the L2 slices or straight to the
     *  memory controllers when the Bloom shadow proves it safe. */
    void sendLoadRequest(Addr critical, const Payload &wanted);

    void requestBloomCopy(Addr line_addr);

    /** Install words delivered by a response; complete waiters. */
    void installResponse(Message &msg);
    void completeWaiters(Addr line_addr);
    void scheduleRetry(Addr line_addr);

    DenovoL1Line &ensureSlot(Addr line_addr);
    void evictLine(DenovoL1Line &cl);

    void flushRegistration(Addr line_addr, WordMask words);
    void maybeFireDrain();

    void handleFwdLoadReq(const Message &msg);
    void handleRegInv(const Message &msg);
    void handleRecall(const Message &msg);
    void handleNack(const Message &msg);

    CoreId id_;
    ProtocolConfig cfg_;
    const SimParams &params_;
    EventQueue &eq_;
    Network &net_;
    WordProfiler &prof_;
    MemProfiler &memProf_;
    const RegionTable &regions_;
    CacheArray<DenovoL1Line> array_;
    WriteCombineTable wc_;
    BloomShadow bloom_;

    std::unordered_map<Addr, LoadMshr> loadMshrs_;
    /** Registrations issued, awaiting ack (release fence tracking). */
    std::unordered_map<Addr, WordMask> inflightRegs_;
    /** Evicted lines awaiting writeback ack; forwards served here. */
    std::unordered_map<Addr, DenovoL1Line> evictBuf_;
    std::unordered_map<Addr, unsigned> pendingWbAcks_;
    /** Filters whose copy has been requested but not received. */
    std::unordered_map<Addr, bool> bloomCopyPending_;

    std::vector<PlainCallback> drainWaiters_;

    std::uint64_t loadHits_ = 0, loadMisses_ = 0;
    std::uint64_t demandLoads_ = 0, demandStores_ = 0;
    std::uint64_t bypassDirect_ = 0, bypassViaL2_ = 0;
    std::uint64_t selfInvalidated_ = 0;
};

} // namespace wastesim

#endif // WASTESIM_PROTOCOL_DENOVO_DENOVO_L1_HH
