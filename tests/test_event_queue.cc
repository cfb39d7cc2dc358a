/** Unit tests: discrete-event kernel ordering and draining. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include "sim/event_queue.hh"

namespace wastesim
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(3); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(7, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        eq.schedule(1, [&] {
            eq.schedule(1, [&] { ++fired; });
            ++fired;
        });
        ++fired;
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(EventQueue, ZeroDelayRunsAtSameTick)
{
    EventQueue eq;
    eq.schedule(5, [&] {
        eq.schedule(0, [&] { EXPECT_EQ(eq.now(), 5u); });
    });
    eq.run();
}

TEST(EventQueue, RunLimitStops)
{
    EventQueue eq;
    std::vector<Tick> ran;
    eq.schedule(100, [&] { ran.push_back(eq.now()); });
    EXPECT_FALSE(eq.run(50));
    EXPECT_TRUE(ran.empty());
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    // Scheduling between the limit and the pending tick after a stop
    // is legal, and the new event runs first.
    eq.schedule(10, [&] { ran.push_back(eq.now()); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(ran, (std::vector<Tick>{60, 100}));
}

TEST(EventQueue, StepExecutesOne)
{
    EventQueue eq;
    int n = 0;
    eq.schedule(1, [&] { ++n; });
    eq.schedule(2, [&] { ++n; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(n, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(n, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ResetClears)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.reset();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.scheduleAt(5, [] {}), "past");
}

// The calendar kernel splits events between a near-future wheel and a
// far-future overflow heap.  Same-tick FIFO must hold even when one
// tick's events land on both sides of that boundary: events scheduled
// while the tick was beyond the horizon (overflow) must run before
// events scheduled later for the same tick (wheel).
TEST(EventQueue, SameTickFifoAcrossHorizonBoundary)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick target = 100'000; // far beyond any wheel horizon

    // Scheduled at t=0: target is beyond the horizon -> overflow.
    for (int i = 0; i < 5; ++i)
        eq.scheduleAt(target, [&, i] { order.push_back(i); });

    // An intermediate event close to the target schedules five more
    // for the SAME tick — now within the horizon -> wheel.
    eq.scheduleAt(target - 10, [&] {
        for (int i = 5; i < 10; ++i)
            eq.scheduleAt(target, [&, i] { order.push_back(i); });
    });

    EXPECT_TRUE(eq.run());
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i) << "at position " << i;
}

// Same-tick FIFO across wheel bucket-index wraps: delays larger than
// any plausible wheel size exercise slot reuse after wrap-around.
TEST(EventQueue, FifoAcrossBucketWraps)
{
    EventQueue eq;
    std::vector<unsigned> order;
    // Chains of events separated by a stride that is NOT a power of
    // two, so consecutive events hit unrelated buckets and ticks far
    // apart map onto reused slots.
    const Tick stride = 12'345;
    for (unsigned chain = 0; chain < 4; ++chain) {
        for (unsigned k = 0; k < 50; ++k) {
            eq.scheduleAt(Tick(k) * stride,
                          [&, chain, k] { order.push_back(k * 4 + chain); });
        }
    }
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(order.size(), 200u);
    for (unsigned i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ResetRecyclesPooledEntries)
{
    EventQueue eq;
    for (int i = 0; i < 100; ++i)
        eq.schedule(static_cast<Tick>(i * 500), [] {});
    const std::size_t pooled = eq.pooledEntries();
    EXPECT_GE(pooled, 100u);

    eq.reset();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.now(), 0u);
    // Every record returned to the free list; the arena kept its size.
    EXPECT_EQ(eq.pooledEntries(), pooled);
    EXPECT_EQ(eq.freeEntries(), pooled);

    // Scheduling after reset reuses pooled records instead of growing.
    int fired = 0;
    for (int i = 0; i < 100; ++i)
        eq.schedule(static_cast<Tick>(i), [&] { ++fired; });
    EXPECT_EQ(eq.pooledEntries(), pooled);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 100);
}

TEST(EventQueue, CancelHeadMiddleAndTailOfABucket)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 5; ++i)
        ids.push_back(eq.schedule(10, [&, i] { order.push_back(i); }));
    const std::size_t free_before = eq.freeEntries();
    eq.cancel(ids[0]); // head
    eq.cancel(ids[2]); // middle
    eq.cancel(ids[4]); // tail
    EXPECT_EQ(eq.pending(), 2u);
    // Each cancelled record is back on the free list at once.
    EXPECT_EQ(eq.freeEntries(), free_before + 3);
    // A later event for the tick links behind the new tail.
    eq.schedule(10, [&] { order.push_back(5); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
    EXPECT_EQ(eq.freeEntries(), eq.pooledEntries());
}

TEST(EventQueue, CancelOnlyEventOfABucketClearsItsSlot)
{
    EventQueue eq;
    std::vector<Tick> ran;
    const EventId only = eq.schedule(5, [&] { ran.push_back(eq.now()); });
    eq.schedule(9, [&] { ran.push_back(eq.now()); });
    eq.cancel(only);
    // The next event is still found past the emptied slot.
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(ran, (std::vector<Tick>{9}));
    EXPECT_EQ(eq.now(), 9u);

    // Cancelling the last pending event empties the queue.
    eq.cancel(eq.schedule(3, [&] { ran.push_back(eq.now()); }));
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.now(), 9u);
    EXPECT_EQ(ran.size(), 1u);
}

TEST(EventQueue, CancelSameTickEventWhileTheTickDrains)
{
    EventQueue eq;
    std::vector<int> order;
    EventId c;
    eq.schedule(5, [&] {
        order.push_back(0);
        eq.cancel(c); // still queued in this tick's chain
        const EventId d = eq.schedule(0, [&] { order.push_back(3); });
        eq.schedule(0, [&] { order.push_back(4); });
        eq.cancel(d); // appended to the running tick's chain
    });
    eq.schedule(5, [&] { order.push_back(1); });
    c = eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(6, [&] { order.push_back(5); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 5}));
    EXPECT_EQ(eq.freeEntries(), eq.pooledEntries());
}

TEST(EventQueue, CancelOverflowEvent)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(eq.schedule(20'000 + 10'000 * Tick(i),
                                  [&, i] { order.push_back(i); }));
    EXPECT_EQ(eq.overflowSize(), 6u);
    eq.cancel(ids[0]); // the heap's top
    eq.cancel(ids[3]);
    EXPECT_EQ(eq.overflowSize(), 4u);
    // A wheel event on the tick of an overflow event still runs after
    // it (overflow first on ties), after a cancel rebuilt the heap.
    eq.scheduleAt(40'000 - 100, [&] {
        eq.scheduleAt(40'000, [&] { order.push_back(6); });
    });
    // Once time has advanced, an overflow record's tick can lie inside
    // the wheel horizon; it is still found in the overflow heap.
    eq.scheduleAt(50'000, [&] {
        EXPECT_EQ(eq.overflowSize(), 2u);
        eq.cancel(ids[4]); // tick 60'000, 10'000 ticks ahead
        EXPECT_EQ(eq.overflowSize(), 1u);
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 6, 5}));
    EXPECT_EQ(eq.freeEntries(), eq.pooledEntries());
}

TEST(EventQueueDeath, CancelOfAnEventNotPendingPanics)
{
    EventQueue eq;
    const EventId ran = eq.schedule(1, [] {});
    eq.run();
    EXPECT_DEATH(eq.cancel(ran), "not pending");

    const EventId twice = eq.schedule(1, [] {});
    eq.cancel(twice);
    EXPECT_DEATH(eq.cancel(twice), "not pending");
    EXPECT_DEATH(eq.cancel(EventId{}), "not pending");

    // The record of a cancelled event is reused under a new handle;
    // the old one stays dead.
    const EventId reused = eq.schedule(1, [] {});
    EXPECT_EQ(reused.idx, twice.idx);
    EXPECT_DEATH(eq.cancel(twice), "not pending");
    eq.cancel(reused);
}

namespace
{

/**
 * Reference kernel: the original global (tick, seq) priority queue,
 * modeled abstractly over event ids.
 */
class RefQueue
{
  public:
    void
    push(Tick when, std::uint64_t id)
    {
        q_.push(Ev{when, nextSeq_++, id});
    }

    bool empty() const { return q_.empty(); }

    std::uint64_t
    pop(Tick &when)
    {
        Ev e = q_.top();
        q_.pop();
        when = e.when;
        return e.id;
    }

  private:
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t id;
    };
    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    std::uint64_t nextSeq_ = 0;
    std::priority_queue<Ev, std::vector<Ev>, Later> q_;
};

/** Deterministic child policy shared by both kernels under test. */
struct ChildRule
{
    // Delay mix crossing every interesting boundary: same tick,
    // +1, bucket-sized, horizon-sized, deep overflow.
    static Tick
    delay(std::uint64_t id)
    {
        static constexpr Tick mix[] = {0,    1,     7,     63,
                                       512,  4095,  16383, 16384,
                                       16385, 60000, 250000};
        return mix[id % (sizeof(mix) / sizeof(mix[0]))];
    }

    static bool spawns(std::uint64_t id) { return id % 3 != 2; }
};

} // namespace

// Randomized equivalence: the calendar/bucket kernel must execute an
// arbitrary workload of nested schedulings in exactly the order of the
// reference (tick, sequence) priority queue.  Every event carries a
// tile label drawn from its id, set through scheduleFor() and, for
// the seed events, setContextTile(): labels never change the order.
TEST(EventQueue, RandomizedEquivalenceWithPriorityQueue)
{
    std::mt19937_64 rng(0xC0FFEE);
    std::uniform_int_distribution<Tick> seed_delay(0, 300'000);

    EventQueue eq;
    RefQueue ref;
    std::vector<std::uint64_t> eq_log, ref_log;
    std::uint64_t next_id = 0;
    std::uint64_t budget = 30'000; // total events per kernel

    // Self-propagating event for the real kernel.
    struct Actor
    {
        EventQueue *eq;
        std::vector<std::uint64_t> *log;
        std::uint64_t *next_id;
        std::uint64_t *budget;
        std::uint64_t id;

        static std::uint16_t
        tile(std::uint64_t id)
        {
            return static_cast<std::uint16_t>((id * 7) % 16);
        }

        void
        operator()()
        {
            EXPECT_EQ(eq->contextTile(), tile(id));
            log->push_back(id);
            if (*budget == 0 || !ChildRule::spawns(id))
                return;
            --*budget;
            const std::uint64_t child = (*next_id)++;
            eq->scheduleFor(eq->now() + ChildRule::delay(id), tile(child),
                            Actor{eq, log, next_id, budget, child});
        }
    };

    // Identical seed events for both kernels.
    std::vector<std::pair<Tick, std::uint64_t>> seeds;
    for (int i = 0; i < 500; ++i)
        seeds.emplace_back(seed_delay(rng), next_id++);
    for (auto [when, id] : seeds) {
        eq.setContextTile(Actor::tile(id));
        eq.scheduleAt(when, Actor{&eq, &eq_log, &next_id, &budget, id});
    }
    eq.run();

    // Replay the same workload on the reference kernel: same seeds,
    // same child policy, ids assigned in schedule order.
    std::uint64_t ref_next_id = 0;
    std::uint64_t ref_budget = 30'000;
    for (auto [when, id] : seeds) {
        ref.push(when, id);
        ref_next_id = std::max(ref_next_id, id + 1);
    }
    while (!ref.empty()) {
        Tick when = 0;
        const std::uint64_t id = ref.pop(when);
        ref_log.push_back(id);
        if (ref_budget > 0 && ChildRule::spawns(id)) {
            --ref_budget;
            ref.push(when + ChildRule::delay(id), ref_next_id++);
        }
    }

    ASSERT_EQ(eq_log.size(), ref_log.size());
    for (std::size_t i = 0; i < eq_log.size(); ++i)
        ASSERT_EQ(eq_log[i], ref_log[i]) << "divergence at event " << i;
}

// Cancelling leaves the rest of the schedule untouched.  Every event
// of a nested workload (300 chains, 20k children) also arms a doomed
// event at or after its child's tick (same tick, a later wheel tick or the overflow heap);
// the child cancels it before it can run.  The survivors must run in
// exactly the order of the same workload that never armed them.
TEST(EventQueue, CancelledEventsLeaveOrderUnchanged)
{
    static constexpr std::uint64_t seeds = 300;

    struct Run
    {
        bool doom = false;
        EventQueue eq;
        std::vector<std::pair<std::uint64_t, Tick>> log;
        std::vector<EventId> doomed; // by child id - seeds
        std::uint64_t nextId = seeds;
        std::uint64_t budget = 20'000;
    };

    struct Actor
    {
        Run *r;
        std::uint64_t id;

        void
        operator()()
        {
            r->log.emplace_back(id, r->eq.now());
            if (r->doom && id >= seeds)
                r->eq.cancel(r->doomed[id - seeds]);
            if (r->budget == 0)
                return;
            --r->budget;
            const Tick d = ChildRule::delay(id);
            r->eq.schedule(d, Actor{r, r->nextId++});
            if (!r->doom)
                return;
            static constexpr Tick extra[] = {0, 0, 1, 3, 20'000};
            Run *run = r;
            r->doomed.push_back(r->eq.schedule(
                d + extra[id % 5],
                [run] { run->log.emplace_back(~std::uint64_t(0), 0); }));
        }
    };

    auto play = [](Run &r) {
        std::mt19937_64 rng(0xCA9CE1);
        std::uniform_int_distribution<Tick> seed_delay(0, 300'000);
        for (std::uint64_t id = 0; id < seeds; ++id)
            r.eq.scheduleAt(seed_delay(rng), Actor{&r, id});
        EXPECT_TRUE(r.eq.run());
    };
    Run with;
    with.doom = true;
    Run without;
    play(with);
    play(without);

    EXPECT_EQ(with.doomed.size(), 20'000u);
    ASSERT_EQ(with.log.size(), without.log.size());
    for (std::size_t i = 0; i < with.log.size(); ++i)
        ASSERT_EQ(with.log[i], without.log[i]) << "divergence at " << i;
    EXPECT_EQ(with.eq.pending(), 0u);
    EXPECT_EQ(with.eq.freeEntries(), with.eq.pooledEntries());
}

} // namespace wastesim
