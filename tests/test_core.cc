/** Unit tests: in-order core semantics and stall attribution. */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "script_workload.hh"
#include "system/system.hh"

namespace wastesim
{

namespace
{

/** A scriptable fake L1 for driving the core directly. */
class FakeL1 : public L1Cache
{
  public:
    explicit FakeL1(EventQueue &eq) : eq_(eq) {}

    void
    load(Addr, LoadCallback done) override
    {
        ++loads;
        if (loadDelay == 0) {
            MemTiming t;
            t.immediate = true;
            t.issued = t.tEnd = eq_.now();
            done(t);
            return;
        }
        const Tick issued = eq_.now();
        eq_.schedule(loadDelay, [this, issued, done = std::move(done)] {
            MemTiming t;
            t.usedMemory = memory;
            t.issued = issued;
            t.tMcArrive = issued + loadDelay / 4;
            t.tMemDone = issued + loadDelay / 2;
            t.tEnd = eq_.now();
            done(t);
        });
    }

    void
    store(Addr, PlainCallback accepted) override
    {
        ++stores;
        if (storeDelay == 0)
            accepted();
        else
            eq_.schedule(storeDelay, std::move(accepted));
    }

    void
    drainWrites(PlainCallback done) override
    {
        ++drains;
        done();
    }

    void
    barrierRelease(const std::vector<RegionId> &regions) override
    {
        lastInvRegions = regions;
        ++releases;
    }

    void handle(Message) override {}

    std::uint64_t demandLoads() const override { return loads; }
    std::uint64_t demandStores() const override { return stores; }

    EventQueue &eq_;
    Tick loadDelay = 0;
    Tick storeDelay = 0;
    bool memory = false;
    unsigned loads = 0, stores = 0, drains = 0, releases = 0;
    std::vector<RegionId> lastInvRegions;
};

struct CoreHarness
{
    EventQueue eq;
    FakeL1 l1{eq};
    Barrier barrier{1}; // single-core barrier releases immediately
    ScriptWorkload wl;
    Trace &trace = wl.script().traces[0];
    std::vector<BarrierInfo> &infos = wl.script().barriers;
    bool done = false;

    std::unique_ptr<TraceSource> source;
    std::unique_ptr<Core> core;

    void
    start()
    {
        Core::Hooks hooks;
        hooks.onDone = [this](CoreId) { done = true; };
        source = std::make_unique<TraceSource>(wl);
        core = std::make_unique<Core>(0, eq, l1, barrier, *source,
                                      std::move(hooks));
        core->start();
        eq.run();
    }
};

} // namespace

TEST(Core, WorkAccumulatesBusy)
{
    CoreHarness h;
    h.trace.push_back(Op{Op::Type::Work, 0, 50});
    h.trace.push_back(Op{Op::Type::Work, 0, 25});
    h.start();
    EXPECT_TRUE(h.done);
    EXPECT_DOUBLE_EQ(h.core->time().busy, 75.0);
    EXPECT_EQ(h.eq.now(), 75u);
}

TEST(Core, L1HitIsOneBusyCycle)
{
    CoreHarness h;
    h.trace.push_back(Op{Op::Type::Load, 0x1000, 0});
    h.start();
    EXPECT_DOUBLE_EQ(h.core->time().busy, 1.0);
    EXPECT_DOUBLE_EQ(h.core->time().onChip, 0.0);
}

TEST(Core, OnChipMissAttributedToOnChip)
{
    CoreHarness h;
    h.l1.loadDelay = 40;
    h.trace.push_back(Op{Op::Type::Load, 0x1000, 0});
    h.start();
    EXPECT_DOUBLE_EQ(h.core->time().onChip, 40.0);
    EXPECT_DOUBLE_EQ(h.core->time().mem, 0.0);
}

TEST(Core, MemoryMissSplitsLegs)
{
    CoreHarness h;
    h.l1.loadDelay = 100;
    h.l1.memory = true;
    h.trace.push_back(Op{Op::Type::Load, 0x1000, 0});
    h.start();
    const TimeBreakdown &t = h.core->time();
    EXPECT_DOUBLE_EQ(t.toMc, 25.0);   // issued -> MC arrival
    EXPECT_DOUBLE_EQ(t.mem, 25.0);    // MC -> DRAM done
    EXPECT_DOUBLE_EQ(t.fromMc, 50.0); // DRAM done -> core
    EXPECT_DOUBLE_EQ(t.onChip, 0.0);
}

TEST(Core, StoreStallCountsAsOnChip)
{
    CoreHarness h;
    h.l1.storeDelay = 30;
    h.trace.push_back(Op{Op::Type::Store, 0x1000, 0});
    h.start();
    EXPECT_DOUBLE_EQ(h.core->time().onChip, 30.0);
    EXPECT_DOUBLE_EQ(h.core->time().busy, 1.0);
}

TEST(Core, BarrierDrainsAndReleases)
{
    CoreHarness h;
    h.infos.push_back(BarrierInfo{{7, 9}});
    h.trace.push_back(Op{Op::Type::Barrier, 0, 0});
    h.start();
    EXPECT_EQ(h.l1.drains, 1u);
    EXPECT_EQ(h.l1.releases, 1u);
    EXPECT_EQ(h.l1.lastInvRegions, (std::vector<RegionId>{7, 9}));
}

TEST(Core, SyncTimeMeasuredAcrossCores)
{
    // Two cores; one arrives late: the early one accumulates Sync.
    EventQueue eq;
    FakeL1 l1a(eq), l1b(eq);
    Barrier barrier(2);
    ScriptWorkload wl;
    wl.work(1, 200);
    wl.barrierFor({0, 1});
    TraceSource source(wl);

    Core a(0, eq, l1a, barrier, source, {});
    Core b(1, eq, l1b, barrier, source, {});
    a.start();
    b.start();
    eq.run();
    EXPECT_TRUE(a.done() && b.done());
    EXPECT_DOUBLE_EQ(a.time().sync, 200.0);
    EXPECT_DOUBLE_EQ(b.time().sync, 0.0);
}

TEST(Core, EpochHookFires)
{
    EventQueue eq;
    FakeL1 l1(eq);
    Barrier barrier(1);
    ScriptWorkload wl;
    wl.script().traces[0].push_back(Op{Op::Type::Epoch, 0, 0});
    TraceSource source(wl);
    bool epoch = false;
    Core::Hooks hooks;
    hooks.onEpoch = [&] { epoch = true; };
    Core c(0, eq, l1, barrier, source, std::move(hooks));
    c.start();
    eq.run();
    EXPECT_TRUE(epoch);
    EXPECT_TRUE(c.done());
}

TEST(Core, TimeResetClearsBreakdown)
{
    CoreHarness h;
    h.trace.push_back(Op{Op::Type::Work, 0, 10});
    h.start();
    EXPECT_GT(h.core->time().total(), 0.0);
    h.core->resetTime();
    EXPECT_DOUBLE_EQ(h.core->time().total(), 0.0);
}

} // namespace wastesim
