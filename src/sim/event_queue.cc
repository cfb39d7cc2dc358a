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
    e.schedTick = now_;
    e.seq = nextSeq_++;
    e.src = curTile_;
    e.tile = tile;
    e.next = nil;
    return idx;
}

void
EventQueue::commitEntry(std::uint32_t idx, Tick when)
{
    if (drainActive_ && when == drainTick_) {
        // Same-tick schedule while that tick is draining: insert at
        // the canonical position, clamped to "next" so an event never
        // lands behind the drain cursor (it cannot execute before its
        // own creator).
        const Entry &e = pool_[idx];
        const DrainRef r{e.schedTick, e.seq, idx, e.src};
        auto it = std::lower_bound(drainVec_.begin() + drainPos_,
                                   drainVec_.end(), r);
        drainVec_.insert(it, r);
        ++pending_;
        return;
    }
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
        const Entry &e = pool_[idx];
        overflow_.push_back(
            OverflowRef{when, e.schedTick, e.seq, idx, e.src});
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
    // A record is pending while it holds a callback: execute() moves
    // the callback out and recycle() clears it, and reuse restamps seq.
    panic_if(id.idx >= pool_.size() || pool_[id.idx].seq != id.seq ||
                 !pool_[id.idx].cb,
             "cancelling an event that is not pending (record %u)",
             id.idx);
    const Entry &e = pool_[id.idx];
    // Where commitEntry() filed the record follows from its key:
    // schedTick was now_ at commit, so a delay of wheelSize or more
    // went to the overflow heap.  A wheel record for the tick being
    // drained has moved into drainVec_ (openDrain or a same-tick
    // schedule), past drainPos_ because it has not run.
    if (e.when - e.schedTick >= wheelSize) {
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
    } else if (drainActive_ && e.when == drainTick_) {
        const DrainRef r{e.schedTick, e.seq, id.idx, e.src};
        auto it = std::lower_bound(drainVec_.begin() + drainPos_,
                                   drainVec_.end(), r);
        panic_if(it == drainVec_.end() || it->idx != id.idx,
                 "pending event %u missing from the drain", id.idx);
        drainVec_.erase(it);
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

void
EventQueue::openDrain(std::uint32_t slot, Tick when)
{
    Bucket &b = wheel_[slot];
    drainVec_.clear();
    for (std::uint32_t idx = b.head; idx != nil;) {
        const Entry &e = pool_[idx];
        drainVec_.push_back(DrainRef{e.schedTick, e.seq, idx, e.src});
        --wheelPending_;
        idx = e.next;
    }
    b.head = b.tail = nil;
    occupied_[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
    // Chains arrive nearly sorted (schedTick is monotone per queue);
    // keys are unique so an unstable sort is canonical.
    std::sort(drainVec_.begin(), drainVec_.end());
    drainActive_ = true;
    drainTick_ = when;
    drainPos_ = 0;
    wheelHint_ = when;
}

int
EventQueue::selectNext(Tick limit, std::uint32_t &idx_out,
                       bool &from_overflow)
{
    for (;;) {
        if (drainActive_) {
            if (drainPos_ < drainVec_.size()) {
                if (drainTick_ > limit)
                    return 2;
                idx_out = drainVec_[drainPos_].idx;
                from_overflow = false;
                return 0;
            }
            drainActive_ = false;
            drainVec_.clear();
        }
        if (pending_ == 0)
            return 1;

        const std::uint32_t slot = firstOccupiedSlot();
        const Tick wheel_when =
            slot != nil ? pool_[wheel_[slot].head].when : ~Tick(0);
        const Tick ov_when =
            overflow_.empty() ? ~Tick(0) : overflow_.front().when;

        // On a tick tie the overflow entry was scheduled while the
        // tick was still beyond the horizon, hence at a strictly
        // earlier schedTick than any wheel entry: overflow first is
        // canonical order.
        if (ov_when <= wheel_when) {
            if (ov_when > limit)
                return 2;
            idx_out = overflow_.front().idx;
            from_overflow = true;
            return 0;
        }
        if (wheel_when > limit)
            return 2;
        openDrain(slot, wheel_when);
    }
}

void
EventQueue::execute(std::uint32_t idx)
{
    Entry &e = pool_[idx];
    panic_if(e.when < now_, "executing event in the past (%llu < %llu)",
             static_cast<unsigned long long>(e.when),
             static_cast<unsigned long long>(now_));
    curTile_ = e.tile;
    now_ = e.when;
    // Move the callback out and recycle the record before invoking:
    // the callback may schedule (growing the arena), so no Entry
    // reference survives past this point.
    Callback cb = std::move(e.cb);
    recycle(idx);
    --pending_;
    ++executed_;
    cb();
}

int
EventQueue::stepBounded(Tick limit)
{
    std::uint32_t idx;
    bool from_overflow;
    const int r = selectNext(limit, idx, from_overflow);
    if (r != 0)
        return r;

    if (from_overflow) {
        std::pop_heap(overflow_.begin(), overflow_.end(),
                      OverflowLater{});
        overflow_.pop_back();
    } else {
        ++drainPos_;
    }
    execute(idx);
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
    for (std::size_t i = drainPos_; drainActive_ && i < drainVec_.size();
         ++i) {
        recycle(drainVec_[i].idx);
        --pending_;
    }
    drainActive_ = false;
    drainVec_.clear();
    drainPos_ = 0;
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
