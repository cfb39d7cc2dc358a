/**
 * @file
 * DeNovo write-combining table (Section 4.2): a 32-entry structure
 * batching pending registration requests per cache line.  An entry
 * flushes (issuing one registration message) when:
 *
 *  - the entire cache line has been written,
 *  - the 10,000-cycle timeout expires,
 *  - a release/barrier is reached, or
 *  - the line is evicted from the L1.
 *
 * A full table force-flushes its oldest entry to admit the new write.
 *
 * Each entry arms one timeout event.  Every other way out (full line,
 * capacity force-flush, release, eviction) cancels that event, so a
 * timeout that fires always finds its entry and the event queue holds
 * at most one timer per live entry.  Entries sit in one vector in
 * FIFO order, reserved to the table's capacity and searched linearly,
 * so the table does not allocate after construction.
 */

#ifndef WASTESIM_PROTOCOL_DENOVO_WRITE_COMBINE_HH
#define WASTESIM_PROTOCOL_DENOVO_WRITE_COMBINE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "common/word_mask.hh"
#include "sim/event_queue.hh"

namespace wastesim
{

/** Per-core registration write-combining buffer. */
class WriteCombineTable
{
  public:
    /** Flush callback: issue a registration for (line, words). */
    using FlushFn = std::function<void(Addr line, WordMask words)>;

    WriteCombineTable(EventQueue &eq, unsigned entries, Tick timeout,
                      FlushFn flush);

    // Pending timeout events hold `this`.
    WriteCombineTable(const WriteCombineTable &) = delete;
    WriteCombineTable &operator=(const WriteCombineTable &) = delete;

    /** Record a write to word @p widx of @p line_addr. */
    void write(Addr line_addr, unsigned widx);

    /** Pending (unflushed) words for a line. */
    WordMask pendingFor(Addr line_addr) const;

    /**
     * Remove a line's entry without flushing (the caller is sending a
     * combined writeback+register message instead).  Returns the
     * pending words.
     */
    WordMask takeLine(Addr line_addr);

    /** Release/barrier: flush every entry. */
    void flushAll();

    /** Number of live entries. */
    std::size_t size() const { return entries_.size(); }

    // Flush-cause statistics (ablation bench).
    std::uint64_t flushFullLine = 0;
    std::uint64_t flushTimeout = 0;
    std::uint64_t flushRelease = 0;
    std::uint64_t flushCapacity = 0;

  private:
    struct Entry
    {
        Addr line;
        WordMask words;
        EventId timer; //!< the pending timeout event
    };

    /** Position of @p line_addr's entry, or size() if it has none. */
    std::size_t find(Addr line_addr) const;

    /** Remove entry @p i, keeping FIFO order.  @return its words. */
    WordMask erase(std::size_t i);

    /** Flush entry @p i before its timeout: cancel the timer, remove
     *  the entry and issue its registration. */
    void flushEarly(std::size_t i);

    EventQueue &eq_;
    unsigned capacity_;
    Tick timeout_;
    FlushFn flush_;

    /** Live entries, oldest first (capacity eviction order). */
    std::vector<Entry> entries_;
};

} // namespace wastesim

#endif // WASTESIM_PROTOCOL_DENOVO_WRITE_COMBINE_HH
