/**
 * @file
 * MESI L1 cache controller (GEMS-style, Section 3.3).
 *
 * Non-blocking writes: up to 32 outstanding store transactions
 * (GetX/Upgrade) per core.  Works with the blocking directory in
 * mesi_dir.hh: conflicting requests are NACKed and retried.  In the
 * MMemL1 configuration, memory data arrives directly from the memory
 * controller and is forwarded to the L2 as unblock+data (loads) or a
 * plain unblock (stores).
 */

#ifndef WASTESIM_PROTOCOL_MESI_MESI_L1_HH
#define WASTESIM_PROTOCOL_MESI_MESI_L1_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "cache/cache_array.hh"
#include "noc/network.hh"
#include "profile/mem_profiler.hh"
#include "profile/word_profiler.hh"
#include "protocol/protocol.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"

namespace wastesim
{

/** MESI L1 line states (the directory tracks its own). */
enum class MesiState : unsigned char { I, S, E, M };

/** A MESI L1 line: the common metadata plus its MESI state. */
struct MesiL1Line : CacheLine
{
    MesiState mesi = MesiState::I;

    void
    resetTo(Addr line_addr)
    {
        CacheLine::resetTo(line_addr);
        mesi = MesiState::I;
    }
};
static_assert(sizeof(MesiL1Line) == 112);

/** Per-core MESI L1 data cache. */
class MesiL1 : public L1Cache
{
  public:
    MesiL1(CoreId id, const ProtocolConfig &cfg, const SimParams &params,
           EventQueue &eq, Network &net, WordProfiler &prof,
           MemProfiler &mem_prof);

    // L1Cache interface.
    void load(Addr a, LoadCallback done) override;
    void store(Addr a, PlainCallback accepted) override;
    void drainWrites(PlainCallback done) override;
    void barrierRelease(const std::vector<RegionId> &) override {}

    // Network interface.
    void handle(Message msg) override;

    // Statistics.
    std::uint64_t loadHits() const { return loadHits_; }
    std::uint64_t loadMisses() const { return loadMisses_; }
    std::uint64_t storeHits() const { return storeHits_; }
    std::uint64_t storeMisses() const { return storeMisses_; }
    std::uint64_t demandLoads() const override { return demandLoads_; }
    std::uint64_t demandStores() const override { return demandStores_; }

    /** Testing hook. */
    const CacheArray<MesiL1Line> &array() const { return array_; }

  private:
    struct Mshr
    {
        Addr line = 0;
        bool isStore = false;
        bool isUpgrade = false;
        WordMask storeWords;
        bool dataArrived = false;
        bool ackCountKnown = false;
        unsigned acksNeeded = 0;
        unsigned acksGot = 0;
        bool usedMemory = false;
        Tick issued = 0;
        Tick tMcArrive = 0, tMemDone = 0;
        /** Loads blocked on this transaction: (word addr, callback). */
        std::vector<std::pair<Addr, LoadCallback>> loadWaiters;
        /** Stores to replay once the transaction retires. */
        std::vector<Addr> storeReplays;
    };

    void hitLoad(MesiL1Line &cl, Addr a, const LoadCallback &done);
    void hitStore(MesiL1Line &cl, Addr a);
    void sendRequest(const Mshr &m);
    void installData(Message &msg, Mshr &m);
    void maybeComplete(Addr line_addr);
    void completeLoadWaiter(Addr a, const LoadCallback &done,
                            const Mshr &m);

    /** Find or create the slot for @p line_addr, evicting a victim. */
    MesiL1Line &ensureSlot(Addr line_addr);
    void evictLine(MesiL1Line &cl);

    void invalidateLine(MesiL1Line &cl);
    void respondToFwd(const Message &msg, bool exclusive);
    void handleInv(const Message &msg);
    void handleNack(const Message &msg);

    void maybeFireDrain();
    void retireStoreSlot();

    MemTiming
    timingOf(const Mshr &m) const
    {
        MemTiming t;
        t.immediate = false;
        t.usedMemory = m.usedMemory;
        t.issued = m.issued;
        t.tMcArrive = m.tMcArrive;
        t.tMemDone = m.tMemDone;
        t.tEnd = eq_.now();
        return t;
    }

    CoreId id_;
    ProtocolConfig cfg_;
    const SimParams &params_;
    EventQueue &eq_;
    Network &net_;
    WordProfiler &prof_;
    MemProfiler &memProf_;
    CacheArray<MesiL1Line> array_;

    std::unordered_map<Addr, Mshr> mshrs_;
    unsigned storeSlotsUsed_ = 0;
    /** Dirty lines evicted but not yet acknowledged by the directory;
     *  forwards are answered from here. */
    std::unordered_map<Addr, MesiL1Line> evictBuf_;
    /** Clean evictions awaiting WbAck (retried on NACK). */
    std::unordered_map<Addr, bool> pendingCleanEvicts_;

    std::deque<std::pair<Addr, PlainCallback>> stalledStores_;
    std::vector<PlainCallback> drainWaiters_;

    std::uint64_t loadHits_ = 0, loadMisses_ = 0;
    std::uint64_t storeHits_ = 0, storeMisses_ = 0;
    std::uint64_t demandLoads_ = 0, demandStores_ = 0;
};

} // namespace wastesim

#endif // WASTESIM_PROTOCOL_MESI_MESI_L1_HH
