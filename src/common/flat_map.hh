/**
 * @file
 * FlatMap: an open-addressing hash map from Addr-sized keys to small
 * values, used on the profiling hot path.
 *
 * The memory profiler performs millions of find/insert/erase
 * operations per simulated run; std::unordered_map pays a node
 * allocation per insert and a pointer chase per lookup.  This map
 * stores slots in one flat array (linear probing, backward-shift
 * deletion, power-of-two capacity), so lookups are cache-friendly.
 *
 * A map whose values can go dead in place (a line's instance-list
 * heads once none of its words has an open instance) takes a
 * dead-value predicate.  When an insert would pass the load limit,
 * the map first erases every dead slot in place, and doubles only if
 * the live entries still fill more than half the limit.  Its size
 * then follows the live keys, not every key the run ever touched, and
 * once the table has room for the largest live set, operation never
 * allocates.  Erasing a value the moment it goes dead is the obvious
 * alternative and is slower: on the paper's 4x4 grid, erase/re-insert
 * churn on lines that leave and return cost about 9% of wall-clock in
 * a per-line word-profiler table, where purging before growth was
 * neutral.
 *
 * Determinism note: no simulation result may depend on iteration
 * order; this map deliberately provides no iteration, so replacing
 * std::unordered_map with it cannot change any figure.
 */

#ifndef WASTESIM_COMMON_FLAT_MAP_HH
#define WASTESIM_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace wastesim
{

/** Open-addressing Addr -> V hash map (no iteration by design). */
template <typename V>
class FlatMap
{
  public:
    /** True for a value that may be dropped before the table grows. */
    using DeadFn = bool (*)(const V &);

    explicit FlatMap(DeadFn dead = nullptr) : dead_(dead)
    {
        rehash(initialCap);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Pointer to the value for @p key, or nullptr when absent. */
    V *
    find(Addr key)
    {
        const std::size_t i = probe(key);
        return slots_[i].state == Slot::Used ? &slots_[i].val : nullptr;
    }

    const V *
    find(Addr key) const
    {
        const std::size_t i = probe(key);
        return slots_[i].state == Slot::Used ? &slots_[i].val : nullptr;
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /**
     * Insert (key, val) if the key is absent (std::unordered_map
     * emplace semantics: an existing value is kept).
     * @return (pointer to the resident value, true iff inserted)
     */
    std::pair<V *, bool>
    emplace(Addr key, V val)
    {
        makeRoom();
        const std::size_t i = probe(key);
        if (slots_[i].state == Slot::Used)
            return {&slots_[i].val, false};
        slots_[i].key = key;
        slots_[i].val = std::move(val);
        slots_[i].state = Slot::Used;
        ++size_;
        return {&slots_[i].val, true};
    }

    /** emplace() without the inserted flag. */
    V *insert(Addr key, V val) { return emplace(key, std::move(val)).first; }

    /**
     * Value for @p key, default-constructing it on first use (the
     * default V is only built on a miss, unlike insert()).
     */
    V &
    getOrDefault(Addr key)
    {
        makeRoom();
        const std::size_t i = probe(key);
        if (slots_[i].state != Slot::Used) {
            slots_[i].key = key;
            slots_[i].val = V{};
            slots_[i].state = Slot::Used;
            ++size_;
        }
        return slots_[i].val;
    }

    /**
     * Remove @p key, moving its value into @p out when present —
     * a find+erase pair with a single probe.
     * @return true when the key was present.
     */
    bool
    take(Addr key, V &out)
    {
        const std::size_t i = probe(key);
        if (slots_[i].state != Slot::Used)
            return false;
        out = std::move(slots_[i].val);
        eraseSlot(i);
        return true;
    }

    /** Remove @p key if present. @return true when removed. */
    bool
    erase(Addr key)
    {
        const std::size_t i = probe(key);
        if (slots_[i].state != Slot::Used)
            return false;
        eraseSlot(i);
        return true;
    }

    void
    clear()
    {
        for (auto &s : slots_)
            s.state = Slot::Empty;
        size_ = 0;
    }

    /** Slots allocated (testing hook for the growth bound). */
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Erase every value the dead-value predicate accepts, in place and
     * without allocating.  Pointers into the map are invalidated.
     */
    void
    purge()
    {
        if (!dead_ || size_ == 0)
            return;
        // Walk the table once, starting just past an empty slot: a
        // backward shift then only pulls slots the walk has not
        // reached yet into the hole, so every slot is seen exactly
        // once.  The load limit guarantees an empty slot exists.
        std::size_t i = 0;
        while (slots_[i].state == Slot::Used)
            ++i;
        for (std::size_t left = slots_.size(); left > 0;) {
            Slot &s = slots_[i];
            if (s.state == Slot::Used && dead_(s.val)) {
                eraseSlot(i); // a follower may now sit at i
            } else {
                i = (i + 1) & mask_;
                --left;
            }
        }
    }

  private:
    struct Slot
    {
        enum State : unsigned char { Empty, Used };
        Addr key = 0;
        V val{};
        State state = Empty;
    };

    static constexpr std::size_t initialCap = 64;

    /** Keep the load at most 0.7 after one more insert: purge dead
     *  values first, and double only if live ones fill more than half
     *  of the limit. */
    void
    makeRoom()
    {
        const std::size_t limit = (slots_.size() * 7) / 10;
        if (size_ + 1 <= limit)
            return;
        purge();
        if (size_ + 1 > limit / 2)
            rehash(slots_.size() * 2);
    }

    /** Fibonacci multiplicative hash onto the table. */
    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
                   (key * 0x9e3779b97f4a7c15ULL) >> 32) &
               mask_;
    }

    /** First slot that holds @p key or is empty. */
    std::size_t
    probe(Addr key) const
    {
        std::size_t i = home(key);
        while (slots_[i].state == Slot::Used && slots_[i].key != key)
            i = (i + 1) & mask_;
        return i;
    }

    /**
     * Empty slot @p i.  Backward-shift deletion keeps probe chains
     * intact without tombstones: pull each displaced follower into
     * the hole unless its home slot lies inside the (hole, follower]
     * arc.
     */
    void
    eraseSlot(std::size_t i)
    {
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask_;
            if (slots_[j].state != Slot::Used)
                break;
            const std::size_t h = home(slots_[j].key);
            const bool in_arc = i <= j ? (h > i && h <= j)
                                       : (h > i || h <= j);
            if (!in_arc) {
                slots_[i] = std::move(slots_[j]);
                i = j;
            }
        }
        slots_[i].state = Slot::Empty;
        --size_;
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
        size_ = 0;
        for (auto &s : old) {
            if (s.state != Slot::Used)
                continue;
            const std::size_t i = probe(s.key);
            slots_[i] = std::move(s);
            ++size_;
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    DeadFn dead_;
};

} // namespace wastesim

#endif // WASTESIM_COMMON_FLAT_MAP_HH
