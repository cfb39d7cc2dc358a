/**
 * @file
 * MESI blocking directory + inclusive shared L2 slice (Section 3.3).
 *
 * One instance per tile.  The directory state (sharer vector,
 * exclusive owner) is embedded in the L2 tags; a line with an active
 * transaction NACKs conflicting requests, which is what makes the
 * protocol "blocking" and the unblock messages necessary — the
 * overhead traffic the paper quantifies in Section 5.2.4.
 */

#ifndef WASTESIM_PROTOCOL_MESI_MESI_DIR_HH
#define WASTESIM_PROTOCOL_MESI_MESI_DIR_HH

#include <unordered_map>

#include "cache/cache_array.hh"
#include "common/sharer_mask.hh"
#include "noc/network.hh"
#include "profile/mem_profiler.hh"
#include "profile/word_profiler.hh"
#include "protocol/message.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"

namespace wastesim
{

/** A MESI L2 line with its directory entry. */
struct MesiDirLine : CacheLine
{
    SharerMask sharers;         //!< L1 sharer bit vector
    NodeId owner = invalidNode; //!< exclusive/modified owner; an owned
                                //!< line has no sharer bits

    void
    resetTo(Addr line_addr)
    {
        CacheLine::resetTo(line_addr);
        sharers.reset();
        owner = invalidNode;
    }
};
static_assert(sizeof(MesiDirLine) == 152);

/** One L2 slice with its directory controller. */
class MesiDir : public MessageHandler
{
  public:
    MesiDir(NodeId slice, const ProtocolConfig &cfg,
            const SimParams &params, EventQueue &eq, Network &net,
            WordProfiler &prof, MemProfiler &mem_prof);

    void handle(Message msg) override;

    /** MC presence oracle: the words of the line valid in this slice. */
    WordMask
    validWordsOf(Addr line_addr) const
    {
        const MesiDirLine *cl = array_.find(line_addr);
        return cl ? cl->validWords : WordMask::none();
    }

    // Statistics.
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t recalls() const { return recalls_; }
    std::uint64_t nacks() const { return nacks_; }
    std::uint64_t invalidations() const { return invalidations_; }

    const CacheArray<MesiDirLine> &array() const { return array_; }

  private:
    struct Txn
    {
        MsgKind req = MsgKind::GetS;
        Tick start = 0; //!< tick the directory accepted the request
        CoreId requester = 0;
        bool excl = false;           //!< grant E at unblock
        NodeId fwdOwner = invalidNode; //!< owner a forward went to
        bool memFetch = false;
        // Victim-recall bookkeeping.
        bool isRecall = false;
        unsigned recallAcks = 0;
        std::function<void()> cont;
    };

    void nack(const Message &msg);

    void handleGetS(Message &msg);
    void handleGetX(Message &msg);
    void handleUpgrade(const Message &msg);
    void handlePutX(Message &msg);
    void handlePutS(const Message &msg);
    void handleUnblock(Message &msg);
    void handleMemData(Message &msg);
    void handleInvAck(const Message &msg);

    /** Begin a memory fetch, evicting a victim first if needed. */
    void startFetch(Message &msg);

    /** Kick off the recall of @p victim; @p cont runs once freed. */
    void recallVictim(MesiDirLine &victim, std::function<void()> cont);

    /** Recall response/ack bookkeeping. */
    void recallProgress(Addr victim_line);

    /** Write the victim back (if dirty) and free the slot. */
    void finishVictim(Addr victim_line);

    /** Respond to @p requester with this slice's copy of the line. */
    void sendDataFromL2(const MesiDirLine &cl, CoreId requester,
                        bool excl, bool is_store, unsigned acks,
                        Tick t_mc = 0, Tick t_mem = 0);

    /** Install words arriving in a data/unblock message. */
    void installWords(const Message &msg, MesiDirLine &cl,
                      bool track_arrivals);

    void sendWbAck(Addr line_addr, CoreId to);

    NodeId slice_;
    ProtocolConfig cfg_;
    const SimParams &params_;
    EventQueue &eq_;
    Network &net_;
    WordProfiler &prof_;
    MemProfiler &memProf_;
    CacheArray<MesiDirLine> array_;

    std::unordered_map<Addr, Txn> txns_;

    std::uint64_t hits_ = 0, misses_ = 0, recalls_ = 0, nacks_ = 0;
    std::uint64_t invalidations_ = 0;
};

} // namespace wastesim

#endif // WASTESIM_PROTOCOL_MESI_MESI_DIR_HH
