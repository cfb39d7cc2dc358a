/**
 * @file
 * Discrete-event simulation engine.
 *
 * Events execute in strict (tick, scheduling sequence) order, which
 * keeps protocol handlers deterministic: two events at the same tick
 * run in the order they were scheduled, exactly as a global priority
 * queue on (tick, seq) would run them.
 *
 * The kernel is allocation-free in steady state.  Event records live
 * in a free-list-recycled arena and are indexed, never pointed to, so
 * the arena can grow without invalidating anything.  Scheduled events
 * land in one of two places:
 *
 *  - a timing wheel of `wheelSize` one-tick buckets covering
 *    [now, now + wheelSize): each bucket is a FIFO chain of entries
 *    for exactly one tick (two ticks can only collide in a slot if
 *    they are a full wheel apart, and the earlier one has always
 *    drained by the time the later is scheduled), with an occupancy
 *    bitmap for O(1)-ish next-event scans.  Execution pops a chain's
 *    head, and an event scheduled for the current tick appends to
 *    its tail;
 *
 *  - an overflow binary min-heap on (tick, seq) for events beyond the
 *    horizon.  Because the horizon only ever shrinks as time
 *    advances, every overflow entry for a tick predates (in sequence)
 *    every wheel entry for that tick, so popping overflow-first on
 *    ties preserves global FIFO order.
 *
 * Callbacks are stored in a 64-byte small-buffer InlineFunction, so
 * the common captures (`this` + an address + a word mask, or a pooled
 * message index) never touch the heap.
 *
 * Every schedule call returns an EventId, and cancel() removes that
 * event while it is still pending: it is unlinked from its bucket
 * chain or the overflow heap, and its record is recycled at once.  A
 * cancelled event never ran, so no other event changes order.
 * Handles do not survive reset().
 */

#ifndef WASTESIM_SIM_EVENT_QUEUE_HH
#define WASTESIM_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/inline_callback.hh"

namespace wastesim
{

/** Handle to a scheduled event, for EventQueue::cancel(). */
struct EventId
{
    std::uint32_t idx = ~std::uint32_t(0); //!< arena record
    std::uint64_t seq = ~std::uint64_t(0); //!< the record's schedule seq
};

/** The event-driven simulation kernel. */
class EventQueue
{
  public:
    /** Inline capture budget for scheduled callbacks (bytes). */
    static constexpr std::size_t callbackCapture = 64;

    using Callback = InlineFunction<void(), callbackCapture>;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p cb to run @p delay ticks from now. */
    template <typename F>
    EventId
    schedule(Tick delay, F &&cb)
    {
        return scheduleAt(now_ + delay, std::forward<F>(cb));
    }

    /**
     * Schedule @p cb at absolute tick @p when (must be >= now).  The
     * callable is constructed directly into the pooled event record;
     * the event inherits the currently executing event's tile label.
     */
    template <typename F>
    EventId
    scheduleAt(Tick when, F &&cb)
    {
        return scheduleFor(when, curTile_, std::forward<F>(cb));
    }

    /** Schedule at @p when, labelled as executing on behalf of tile
     *  @p tile (message deliveries name the destination tile here).
     *  The label is reported by contextTile(); it does not affect
     *  execution order. */
    template <typename F>
    EventId
    scheduleFor(Tick when, std::uint16_t tile, F &&cb)
    {
        const std::uint32_t idx = prepareEntry(when, tile);
        pool_[idx].cb = std::forward<F>(cb);
        commitEntry(idx, when);
        return EventId{idx, pool_[idx].seq};
    }

    /**
     * Remove the pending event @p id without running it and recycle
     * its record.  Panics if @p id is not pending: already executed,
     * already cancelled, never issued, or issued before a reset().
     */
    void cancel(EventId id);

    /** Tile label for events scheduled outside any event. */
    void setContextTile(std::uint16_t t) { curTile_ = t; }

    /** Tile label of the currently executing event. */
    std::uint16_t contextTile() const { return curTile_; }

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /** Pending events parked beyond the wheel horizon (the overflow
     *  min-heap; an occupancy gauge for the sampler). */
    std::size_t overflowSize() const { return overflow_.size(); }

    /** Events executed since construction (or the last reset()). */
    std::uint64_t executed() const { return executed_; }

    /**
     * Run events until the queue drains or @p limit ticks have been
     * simulated.
     *
     * @return true if the queue drained, false if the limit was hit.
     */
    bool run(Tick limit = ~Tick(0));

    /** Execute at most one event. @return false if queue empty. */
    bool step();

    /** Drop all pending events and reset time to zero.  Pooled event
     *  records are recycled onto the free list, not released.  Every
     *  EventId issued before the reset becomes invalid. */
    void reset();

    /** Event records ever allocated (arena size; testing hook). */
    std::size_t pooledEntries() const { return pool_.size(); }

    /** Event records currently on the free list (testing hook). */
    std::size_t freeEntries() const;

  private:
    static constexpr std::uint32_t nil = ~std::uint32_t(0);
    /** Entry::next of a record filed in the overflow heap. */
    static constexpr std::uint32_t inOverflow = nil - 1;

    /** One-tick buckets covering [now, now + wheelSize). */
    static constexpr std::size_t wheelSize = 16384;
    static constexpr std::size_t wheelMask = wheelSize - 1;
    static constexpr std::size_t bitmapWords = wheelSize / 64;

    struct Entry
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        /** Bucket FIFO / free-list link, or inOverflow while the
         *  record sits in the overflow heap. */
        std::uint32_t next = nil;
        std::uint16_t tile = 0; //!< execution context label
        Callback cb;
    };

    struct Bucket
    {
        std::uint32_t head = nil;
        std::uint32_t tail = nil;
    };

    /** Far-future reference; the entry itself lives in the arena. */
    struct OverflowRef
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t idx;
    };

    struct OverflowLater
    {
        bool
        operator()(const OverflowRef &a, const OverflowRef &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::uint32_t allocEntry();
    void recycle(std::uint32_t idx);

    /** Validate @p when, pull a record, stamp (when, seq, tile). */
    std::uint32_t prepareEntry(Tick when, std::uint16_t tile);

    /** File the prepared record into the wheel or the overflow heap. */
    void commitEntry(std::uint32_t idx, Tick when);

    /** Unlink the pending wheel record @p idx from its bucket chain. */
    void unlinkFromBucket(std::uint32_t idx);

    /** First occupied wheel slot at or (circularly) after now.
     *  @return nil when the wheel holds nothing. */
    std::uint32_t firstOccupiedSlot() const;

    /** Execute the earliest event if its tick is <= @p limit.
     *  @return 0 executed, 1 queue empty, 2 event beyond limit. */
    int stepBounded(Tick limit);

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;
    std::size_t wheelPending_ = 0;
    /** Lower bound on the earliest wheel tick: bitmap scans start
     *  here instead of at now_, skipping known-empty slots. */
    Tick wheelHint_ = 0;

    std::uint16_t curTile_ = 0;

    std::vector<Entry> pool_;
    std::uint32_t freeHead_ = nil;
    std::array<Bucket, wheelSize> wheel_{};
    std::array<std::uint64_t, bitmapWords> occupied_{};
    std::vector<OverflowRef> overflow_;
};

} // namespace wastesim

#endif // WASTESIM_SIM_EVENT_QUEUE_HH
