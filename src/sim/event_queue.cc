#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace wastesim
{

std::uint32_t
EventQueue::allocEntry()
{
    if (freeHead_ != nil) {
        const std::uint32_t idx = freeHead_;
        freeHead_ = pool_[idx].next;
        return idx;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

void
EventQueue::recycle(std::uint32_t idx)
{
    Entry &e = pool_[idx];
    e.cb.reset();
    e.next = freeHead_;
    freeHead_ = idx;
}

std::uint32_t
EventQueue::prepareEntry(Tick when, std::uint16_t tile)
{
    panic_if(when < now_, "scheduling event in the past (%llu < %llu)",
             static_cast<unsigned long long>(when),
             static_cast<unsigned long long>(now_));

    const std::uint32_t idx = allocEntry();
    Entry &e = pool_[idx];
    e.when = when;
    e.seq = nextSeq_++;
    e.tile = tile;
    e.next = nil;
    return idx;
}

void
EventQueue::commitEntry(std::uint32_t idx, Tick when)
{
    if (when - now_ < wheelSize) {
        const std::size_t slot = when & wheelMask;
        Bucket &b = wheel_[slot];
        if (b.head == nil) {
            b.head = b.tail = idx;
            occupied_[slot >> 6] |= std::uint64_t(1) << (slot & 63);
        } else {
            pool_[b.tail].next = idx;
            b.tail = idx;
        }
        if (wheelPending_ == 0 || when < wheelHint_)
            wheelHint_ = when;
        ++wheelPending_;
    } else {
        pool_[idx].next = inOverflow;
        overflow_.push_back(OverflowRef{when, pool_[idx].seq, idx});
        std::push_heap(overflow_.begin(), overflow_.end(),
                       OverflowLater{});
    }
    ++pending_;
}

void
EventQueue::unlinkFromBucket(std::uint32_t idx)
{
    const std::size_t slot = pool_[idx].when & wheelMask;
    Bucket &b = wheel_[slot];
    std::uint32_t prev = nil;
    for (std::uint32_t cur = b.head; cur != idx; cur = pool_[cur].next) {
        panic_if(cur == nil, "pending event %u missing from its bucket",
                 idx);
        prev = cur;
    }
    const std::uint32_t next = pool_[idx].next;
    if (prev == nil)
        b.head = next;
    else
        pool_[prev].next = next;
    if (b.tail == idx)
        b.tail = prev;
    if (b.head == nil)
        occupied_[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
    --wheelPending_;
}

void
EventQueue::cancel(EventId id)
{
    // A record is pending while it holds a callback: stepBounded()
    // moves the callback out and recycle() clears it, and reuse
    // restamps seq.
    panic_if(id.idx >= pool_.size() || pool_[id.idx].seq != id.seq ||
                 !pool_[id.idx].cb,
             "cancelling an event that is not pending (record %u)",
             id.idx);
    // commitEntry() marks the records it files in the overflow heap;
    // every other pending record sits in a wheel bucket chain.
    if (pool_[id.idx].next == inOverflow) {
        auto it = std::find_if(
            overflow_.begin(), overflow_.end(),
            [&](const OverflowRef &r) { return r.idx == id.idx; });
        panic_if(it == overflow_.end(),
                 "pending event %u missing from the overflow heap",
                 id.idx);
        // Keys are unique, so rebuilding the heap keeps pop order.
        *it = overflow_.back();
        overflow_.pop_back();
        std::make_heap(overflow_.begin(), overflow_.end(),
                       OverflowLater{});
    } else {
        unlinkFromBucket(id.idx);
    }
    recycle(id.idx);
    --pending_;
}

std::uint32_t
EventQueue::firstOccupiedSlot() const
{
    if (wheelPending_ == 0)
        return nil;
    // Wheel entries all have when in [now, now + wheelSize), so the
    // first occupied slot walking circularly forward from now's slot
    // holds the earliest wheel tick; wheelHint_ is a tighter lower
    // bound that lets the scan skip slots already known empty.
    const std::size_t start =
        (wheelHint_ > now_ ? wheelHint_ : now_) & wheelMask;
    std::size_t word = start >> 6;
    std::uint64_t bits = occupied_[word] & (~std::uint64_t(0)
                                            << (start & 63));
    for (std::size_t n = 0; n <= bitmapWords; ++n) {
        if (bits)
            return static_cast<std::uint32_t>(
                (word << 6) + std::countr_zero(bits));
        word = (word + 1) & (bitmapWords - 1);
        bits = occupied_[word];
    }
    panic("wheelPending_ > 0 but no occupied slot");
    return nil;
}

int
EventQueue::stepBounded(Tick limit)
{
    if (pending_ == 0)
        return 1;

    const std::uint32_t slot = firstOccupiedSlot();
    const Tick wheel_when =
        slot != nil ? pool_[wheel_[slot].head].when : ~Tick(0);

    // On a tick tie the overflow entry always has the smaller
    // sequence number: it was scheduled while the tick was still
    // beyond the horizon, hence strictly earlier.
    const bool from_overflow =
        !overflow_.empty() &&
        (slot == nil || overflow_.front().when <= wheel_when);

    const Tick when =
        from_overflow ? overflow_.front().when : wheel_when;
    if (when > limit)
        return 2;

    std::uint32_t idx;
    if (from_overflow) {
        idx = overflow_.front().idx;
        std::pop_heap(overflow_.begin(), overflow_.end(),
                      OverflowLater{});
        overflow_.pop_back();
    } else {
        Bucket &b = wheel_[slot];
        idx = b.head;
        b.head = pool_[idx].next;
        if (b.head == nil) {
            b.tail = nil;
            occupied_[slot >> 6] &=
                ~(std::uint64_t(1) << (slot & 63));
        }
        --wheelPending_;
        wheelHint_ = when;
    }

    // Move the callback out and recycle the record before invoking:
    // the callback may schedule (growing the arena), so no Entry
    // reference survives past this point.
    curTile_ = pool_[idx].tile;
    Callback cb = std::move(pool_[idx].cb);
    recycle(idx);
    --pending_;
    now_ = when;
    ++executed_;
    cb();
    return 0;
}

bool
EventQueue::step()
{
    return stepBounded(~Tick(0)) == 0;
}

bool
EventQueue::run(Tick limit)
{
    for (;;) {
        switch (stepBounded(limit)) {
          case 0:
            break;
          case 1:
            return true;
          case 2:
            now_ = limit;
            return false;
        }
    }
}

void
EventQueue::reset()
{
    for (std::size_t slot = 0; wheelPending_ > 0 && slot < wheelSize;
         ++slot) {
        Bucket &b = wheel_[slot];
        for (std::uint32_t idx = b.head; idx != nil;) {
            const std::uint32_t next = pool_[idx].next;
            recycle(idx);
            --wheelPending_;
            --pending_;
            idx = next;
        }
        b.head = b.tail = nil;
    }
    for (const OverflowRef &r : overflow_) {
        recycle(r.idx);
        --pending_;
    }
    overflow_.clear();
    occupied_.fill(0);
    panic_if(pending_ != 0 || wheelPending_ != 0,
             "reset() lost track of pending events");
    now_ = 0;
    nextSeq_ = 0;
    executed_ = 0;
    wheelHint_ = 0;
    curTile_ = 0;
}

std::size_t
EventQueue::freeEntries() const
{
    std::size_t n = 0;
    for (std::uint32_t idx = freeHead_; idx != nil;
         idx = pool_[idx].next)
        ++n;
    return n;
}

} // namespace wastesim
