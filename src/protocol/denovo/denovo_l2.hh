/**
 * @file
 * DeNovo shared L2 slice (Chapter 2 + Section 3.1).
 *
 * Word-granularity state: each word is Valid (data present),
 * Registered to an L1 (the registrant holds the up-to-date copy), or
 * Invalid.  There are no sharer lists and no transient states; the
 * only "blocking" is a per-line MSHR for outstanding memory fetches,
 * which merges later requesters.
 *
 * Optimizations implemented here: L2 write-validate (no
 * fetch-on-write), dirty-words-only writebacks to memory, L2 Flex
 * memory requests (word-filtered, same-DRAM-row), L2 response bypass
 * (memory data not installed), and the counting Bloom filters backing
 * L2 request bypass.
 */

#ifndef WASTESIM_PROTOCOL_DENOVO_DENOVO_L2_HH
#define WASTESIM_PROTOCOL_DENOVO_DENOVO_L2_HH

#include <functional>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_bank.hh"
#include "cache/cache_array.hh"
#include "common/inline_vec.hh"
#include "noc/network.hh"
#include "profile/mem_profiler.hh"
#include "profile/word_profiler.hh"
#include "protocol/message.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"

namespace wastesim
{

/** Words of one line that the L2 sends to one registrant. */
struct OwnerWords
{
    NodeId owner;
    Addr line;
    WordMask words;
};

/**
 * Registrant word masks kept in ascending owner order (and, per
 * owner, in the order lines were first seen), so an L2 sends its
 * invalidations, forwards and recalls in owner order rather than in a
 * hash table's layout order.  One line has at most wordsPerLine
 * registrants.
 */
using LineOwners = InlineVec<OwnerWords, wordsPerLine>;

/**
 * A DeNovo L2 line: the common metadata plus the L1 each word is
 * registered to.  A registrant is stored in one byte, valid where its
 * bit in the registered mask is set.
 */
struct DenovoL2Line : CacheLine
{
    static_assert(maxTiles <= 256, "registrants are stored in a byte");

    bool inBloom = false; //!< tracked by the slice's Bloom bank

    /** Registrant L1 of word @p w, or invalidNode if none. */
    NodeId
    regOwner(unsigned w) const
    {
        return regMask_.test(w) ? regNode_[w] : invalidNode;
    }

    /** Register word @p w to @p n (invalidNode: unregister it). */
    void
    setRegOwner(unsigned w, NodeId n)
    {
        if (n == invalidNode) {
            regMask_.clear(w);
            return;
        }
        panic_if(n >= maxTiles, "registrant %u out of range", n);
        regNode_[w] = static_cast<std::uint8_t>(n);
        regMask_.set(w);
    }

    /** Words registered to any L1. */
    WordMask registeredMask() const { return regMask_; }

    void
    resetTo(Addr line_addr)
    {
        CacheLine::resetTo(line_addr);
        regMask_ = WordMask::none();
        inBloom = false;
    }

  private:
    std::array<std::uint8_t, wordsPerLine> regNode_{};
    WordMask regMask_;
};
static_assert(sizeof(DenovoL2Line) == 136);

/** One DeNovo L2 slice. */
class DenovoL2 : public MessageHandler
{
  public:
    DenovoL2(NodeId slice, const ProtocolConfig &cfg,
             const SimParams &params, EventQueue &eq, Network &net,
             WordProfiler &prof, MemProfiler &mem_prof);

    void handle(Message msg) override;

    /** MC presence oracle: the words of the line valid in this slice. */
    WordMask
    validWordsOf(Addr line_addr) const
    {
        const DenovoL2Line *cl = array_.find(line_addr);
        return cl ? cl->validWords : WordMask::none();
    }

    const BloomBank &bloom() const { return bloom_; }

    // Statistics.
    std::uint64_t wordHits() const { return wordHits_; }
    std::uint64_t memFetches() const { return memFetches_; }
    std::uint64_t registrations() const { return registrations_; }
    std::uint64_t recallsIssued() const { return recallsIssued_; }
    std::uint64_t nacks() const { return nacks_; }

    const CacheArray<DenovoL2Line> &array() const { return array_; }

    /** Debug: print this slice's view of a line. */
    void dumpLine(Addr line_addr) const;

  private:
    struct MemMshr
    {
        struct Waiter
        {
            CoreId core;
            WordMask want;
        };
        std::vector<Waiter> waiters;
        /** Pending registrations for the fetch-on-write path. */
        std::vector<std::pair<CoreId, WordMask>> pendingRegs;
        /** Requester that gets the MC->L1 copy (DMemL1). */
        CoreId directTo = invalidNode;
    };

    struct RecallTxn
    {
        unsigned pending = 0;
        std::vector<std::function<void()>> conts;
    };

    void handleLoadReq(Message &msg);
    void handleReg(Message &msg);
    void handleWb(Message &msg);
    void handleMemData(Message &msg);
    void handleBloomReq(const Message &msg);

    /**
     * Ensure a memory fetch covering @p missing of @p line_addr is in
     * flight, allocating (and recalling a victim) as needed.
     */
    void startMemFetch(Addr line_addr, WordMask missing, CoreId requester,
                       TrafficClass cls, bool flex_request);

    void applyRegistration(DenovoL2Line &cl, CoreId req, WordMask mask);

    void recallVictim(DenovoL2Line &victim, std::function<void()> cont);
    void progressRecall(Addr victim_line);
    void finishVictim(Addr victim_line);

    void sendLoadResp(CoreId to, Payload &&chunks, Tick t_mc = 0,
                      Tick t_mem = 0);
    void sendRegInvs(const LineOwners &invs);
    void nack(Endpoint to, MsgKind orig, Addr line_addr, WordMask mask);

    void syncBloom(DenovoL2Line &cl);

    NodeId slice_;
    ProtocolConfig cfg_;
    const SimParams &params_;
    EventQueue &eq_;
    Network &net_;
    WordProfiler &prof_;
    MemProfiler &memProf_;
    CacheArray<DenovoL2Line> array_;
    BloomBank bloom_;

    std::unordered_map<Addr, MemMshr> memMshrs_;
    std::unordered_map<Addr, RecallTxn> recalls_;

    std::uint64_t wordHits_ = 0, memFetches_ = 0, registrations_ = 0;
    std::uint64_t recallsIssued_ = 0, nacks_ = 0;
};

} // namespace wastesim

#endif // WASTESIM_PROTOCOL_DENOVO_DENOVO_L2_HH
