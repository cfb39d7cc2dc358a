/**
 * @file
 * On-chip memory controller (one per corner tile).
 *
 * Implements the memory-side halves of the paper's optimizations:
 *
 *  - dirty-word filtering: requests carry a bit vector of words that
 *    are dirty on-chip and must not be returned from memory
 *    ("Memory Controller to L1 Transfer", Section 3.1);
 *  - dual delivery: responses can go to both the L1 and the L2 in
 *    parallel (MemL1), or to the L1 only (L2 Response Bypass);
 *  - L2 Flex: multi-line requests are honored only for lines in the
 *    same DRAM row as the critical address; non-communication-region
 *    words are read from DRAM but dropped, profiled as Excess waste;
 *  - partial writes: writebacks carry only the words to be written
 *    (the paper assumes DRAM support for partial stores).
 */

#ifndef WASTESIM_DRAM_MEMORY_CONTROLLER_HH
#define WASTESIM_DRAM_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "common/types.hh"
#include "dram/dram_channel.hh"
#include "noc/network.hh"
#include "profile/mem_profiler.hh"
#include "protocol/message.hh"

namespace wastesim
{

/** Request flag bits carried in Message::aux for MemRead. */
namespace McFlag
{
constexpr unsigned toL1 = 1;     //!< also deliver response to the L1
constexpr unsigned bypassL2 = 2; //!< deliver to the L1 only
constexpr unsigned flex = 4;     //!< flex-filtered: dropped words are
                                 //!< Excess waste; same-row rule applies
constexpr unsigned excl = 8;     //!< MESI: fill grants the E state
} // namespace McFlag

/** One memory channel's controller. */
class MemoryController : public MessageHandler
{
  public:
    /** The words of @p line present (valid) in its home L2 slice. */
    using PresenceFn = std::function<WordMask(Addr line)>;

    MemoryController(unsigned channel, EventQueue &eq, Network &net,
                     DramChannel &dram, MemProfiler &prof,
                     PresenceFn present_in_l2);

    void handle(Message msg) override;

    // Statistics.
    std::uint64_t wordsSent() const { return wordsSent_; }
    std::uint64_t wordsWritten() const { return wordsWritten_; }
    std::uint64_t excessWords() const { return excessWords_; }
    std::uint64_t droppedChunks() const { return droppedChunks_; }

  private:
    /**
     * An in-flight multi-chunk read: the request message plus the
     * join counter for its per-chunk DRAM accesses.  Transactions
     * live in a free-list-recycled pool and are referenced by index,
     * so issuing a read allocates nothing in steady state (this
     * replaced three shared_ptr allocations per MemRead).
     */
    struct ReadTxn
    {
        Message req;
        Tick arrive = 0;
        Tick latest = 0;
        unsigned remaining = 0;
        std::uint32_t nextFree = 0;
    };

    void handleRead(Message &msg);
    void handleWrite(const Message &msg);

    /** One of a read's DRAM accesses finished at @p done. */
    void chunkDone(std::uint32_t txn, Tick done);

    /** All DRAM accesses for a read finished; build the response(s). */
    void finishRead(const Message &req, Tick arrive, Tick mem_done);

    std::uint32_t txnAcquire(Message &&msg, Tick arrive);
    void txnRelease(std::uint32_t idx);

    unsigned channel_;
    EventQueue &eq_;
    Network &net_;
    DramChannel &dram_;
    MemProfiler &prof_;
    PresenceFn presentInL2_;

    std::vector<ReadTxn> txns_;
    std::uint32_t txnFree_ = ~std::uint32_t(0);

    std::uint64_t wordsSent_ = 0;
    std::uint64_t wordsWritten_ = 0;
    std::uint64_t excessWords_ = 0;
    std::uint64_t droppedChunks_ = 0;
};

} // namespace wastesim

#endif // WASTESIM_DRAM_MEMORY_CONTROLLER_HH
