/** Unit tests: the sharded sweep engine and its per-cell cache. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "system/sweep_engine.hh"
#include "trace/synthetic.hh"

namespace wastesim
{

namespace
{

class TempPath
{
  public:
    explicit TempPath(const std::string &p) : path_(p)
    {
        std::remove(path_.c_str());
    }
    ~TempPath() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

/** A small two-topology grid for cache/shard logic tests. */
SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.topologies = {Topology(2, 2), Topology(4, 2)};
    spec.benches = {BenchmarkName::LU, BenchmarkName::FFT,
                    BenchmarkName::Barnes};
    spec.protocols = {ProtocolName::MESI, ProtocolName::DeNovo};
    return spec;
}

/** Deterministic fake cell result derived from the coordinates. */
RunResult
fakeCell(const SweepSpec &spec, const SweepCell &c)
{
    RunResult r;
    r.protocol = protocolName(spec.protocols[c.protoIdx]);
    r.benchmark = benchmarkName(spec.benches[c.benchIdx]);
    r.cycles = 1000 * (c.topoIdx + 1) + 10 * c.benchIdx + c.protoIdx;
    r.traffic.ldReqCtl = 0.25 + c.benchIdx;
    r.l1Waste.byCat[0] = 1.0 / 3.0 + c.protoIdx; // non-terminating
    r.maxLinkFlits = 7 + c.topoIdx;
    return r;
}

} // namespace

TEST(SweepSpec, CellEnumerationIsFigureOrdered)
{
    const SweepSpec spec = smallSpec();
    ASSERT_EQ(spec.numCells(), 12u);
    // topology-major, then benchmark, then protocol.
    EXPECT_EQ(spec.cellAt(0).topoIdx, 0u);
    EXPECT_EQ(spec.cellAt(0).benchIdx, 0u);
    EXPECT_EQ(spec.cellAt(0).protoIdx, 0u);
    EXPECT_EQ(spec.cellAt(1).protoIdx, 1u);
    EXPECT_EQ(spec.cellAt(2).benchIdx, 1u);
    EXPECT_EQ(spec.cellAt(6).topoIdx, 1u);
    EXPECT_EQ(spec.cellAt(11).topoIdx, 1u);
    EXPECT_EQ(spec.cellAt(11).benchIdx, 2u);
    EXPECT_EQ(spec.cellAt(11).protoIdx, 1u);
}

TEST(SweepSpec, CellKeysDistinguishEveryAxis)
{
    SweepSpec spec = smallSpec();
    const std::string base = spec.cellKey({0, 0, 0});
    EXPECT_NE(base, spec.cellKey({1, 0, 0})); // topology
    EXPECT_NE(base, spec.cellKey({0, 1, 0})); // benchmark
    EXPECT_NE(base, spec.cellKey({0, 0, 1})); // protocol

    SweepSpec scaled = spec;
    scaled.scale = 4;
    EXPECT_NE(base, scaled.cellKey({0, 0, 0}));

    SweepSpec full = spec;
    full.params = SimParams{};
    EXPECT_NE(base, full.cellKey({0, 0, 0}));
}

TEST(CellCache, SaveLoadRoundTrip)
{
    const SweepSpec spec = smallSpec();
    CellCache cache;
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell c = spec.cellAt(i);
        cache.put(spec.cellKey(c), fakeCell(spec, c));
    }

    TempPath tmp("cells_roundtrip.cache");
    ASSERT_TRUE(cache.save(tmp.path()));

    CellCache loaded;
    ASSERT_TRUE(loaded.load(tmp.path()));
    EXPECT_EQ(loaded.size(), spec.numCells());
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell c = spec.cellAt(i);
        RunResult r;
        ASSERT_TRUE(loaded.get(spec.cellKey(c), r));
        const RunResult ref = fakeCell(spec, c);
        EXPECT_EQ(r.protocol, ref.protocol);
        EXPECT_EQ(r.cycles, ref.cycles);
        EXPECT_EQ(r.l1Waste.byCat[0], ref.l1Waste.byCat[0]);
        EXPECT_EQ(r.maxLinkFlits, ref.maxLinkFlits);
    }

    // Saving the loaded cache reproduces the file byte-for-byte
    // (doubles round-trip at precision 17).
    TempPath tmp2("cells_roundtrip2.cache");
    ASSERT_TRUE(loaded.save(tmp2.path()));
    EXPECT_EQ(fileBytes(tmp.path()), fileBytes(tmp2.path()));
}

TEST(CellCache, LoadRejectsLegacyAndCorrupt)
{
    CellCache cache;
    EXPECT_FALSE(cache.load("no_such_cells.cache"));

    TempPath tmp("cells_legacy.cache");
    {
        std::ofstream os(tmp.path());
        os << "wastesim-sweep-v3\ntag\n1 1\n";
    }
    EXPECT_FALSE(cache.load(tmp.path()));
    EXPECT_EQ(cache.size(), 0u);

    // A well-formed file in the retired v1 format (magic, count, then
    // bare key + result block pairs) is not a cell cache either: even
    // a salvaging load serves nothing from it.
    const SweepSpec spec = smallSpec();
    const std::string k0 = spec.cellKey(spec.cellAt(0));
    {
        std::ofstream os(tmp.path());
        os.precision(17);
        os << "wastesim-cells-v1\n1\n" << k0 << '\n';
        writeRunResult(os, fakeCell(spec, spec.cellAt(0)));
    }
    CacheLoadReport rep;
    EXPECT_FALSE(cache.load(tmp.path(), rep, CacheLoadMode::Salvage));
    EXPECT_FALSE(rep.formatOk);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.has(k0));
}

TEST(CellCache, MergeDetectsConflicts)
{
    const SweepSpec spec = smallSpec();
    const SweepCell c0 = spec.cellAt(0), c1 = spec.cellAt(1);

    CellCache a, b;
    a.put(spec.cellKey(c0), fakeCell(spec, c0));
    b.put(spec.cellKey(c1), fakeCell(spec, c1));
    // Overlap with identical content is fine.
    b.put(spec.cellKey(c0), fakeCell(spec, c0));

    ASSERT_TRUE(a.merge(b));
    EXPECT_EQ(a.size(), 2u);

    // A contradicting result for an existing key must be refused.
    CellCache evil;
    RunResult wrong = fakeCell(spec, c0);
    wrong.cycles += 1;
    evil.put(spec.cellKey(c0), wrong);
    std::string err;
    EXPECT_FALSE(a.merge(evil, &err));
    EXPECT_NE(err.find("conflicting"), std::string::npos);
    // And the refused merge must not have modified the target.
    RunResult still;
    ASSERT_TRUE(a.get(spec.cellKey(c0), still));
    EXPECT_EQ(still.cycles, fakeCell(spec, c0).cycles);
}

TEST(SweepEngine, ShardedAndMergedCacheIsByteIdentical)
{
    const SweepSpec spec = smallSpec();

    // Unsharded reference.
    TempPath whole("cells_whole.cache");
    {
        SweepEngine eng(spec);
        eng.setCompute(fakeCell);
        CellCache cache;
        eng.run(cache);
        EXPECT_EQ(eng.cellsComputed(), spec.numCells());
        ASSERT_TRUE(cache.save(whole.path()));
    }

    for (unsigned nshards : {2u, 3u, 5u}) {
        // Every shard runs in its own engine + cache, as separate
        // processes would.
        std::vector<CellCache> parts(nshards);
        std::size_t total = 0;
        for (unsigned s = 0; s < nshards; ++s) {
            SweepEngine eng(spec);
            eng.setShard(s, nshards);
            eng.setCompute(fakeCell);
            eng.run(parts[s]);
            total += eng.cellsComputed();
        }
        EXPECT_EQ(total, spec.numCells()) << nshards << " shards";

        CellCache merged;
        for (const CellCache &p : parts)
            ASSERT_TRUE(merged.merge(p));

        TempPath mergedPath("cells_merged.cache");
        ASSERT_TRUE(merged.save(mergedPath.path()));
        EXPECT_EQ(fileBytes(whole.path()), fileBytes(mergedPath.path()))
            << nshards << " shards";
    }
}

TEST(SweepEngine, ShardSlicesPartitionTheGrid)
{
    const SweepSpec spec = smallSpec();
    std::vector<bool> seen(spec.numCells(), false);
    for (unsigned s = 0; s < 5; ++s) {
        SweepEngine eng(spec);
        eng.setShard(s, 5);
        for (std::size_t flat : eng.shardCellIndices()) {
            ASSERT_LT(flat, spec.numCells());
            EXPECT_FALSE(seen[flat]);
            seen[flat] = true;
        }
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_TRUE(seen[i]) << "cell " << i << " unowned";
}

TEST(SweepEngine, IncrementalCacheComputesOnlyMissingCells)
{
    SweepSpec spec = smallSpec();
    spec.topologies = {Topology(2, 2)};

    // Workers call the compute function concurrently.
    std::atomic<int> computed{0};
    auto counting = [&](const SweepSpec &s, const SweepCell &c) {
        ++computed;
        return fakeCell(s, c);
    };

    CellCache cache;
    {
        SweepEngine eng(spec);
        eng.setCompute(counting);
        eng.run(cache);
        EXPECT_EQ(computed.load(), 6);
        EXPECT_EQ(eng.cellsHit(), 0u);
    }

    // Same grid again: all hits, nothing computed.
    {
        SweepEngine eng(spec);
        eng.setCompute(counting);
        const auto sweeps = eng.run(cache);
        EXPECT_EQ(computed.load(), 6);
        EXPECT_EQ(eng.cellsHit(), 6u);
        EXPECT_EQ(sweeps.at(0).results[1][1].cycles,
                  fakeCell(spec, spec.cellAt(3)).cycles);
    }

    // Growing the mesh list computes only the new topology's cells;
    // the 2x2 results are served from the incremental cache.
    spec.topologies = {Topology(2, 2), Topology(4, 2)};
    {
        SweepEngine eng(spec);
        eng.setCompute(counting);
        const auto sweeps = eng.run(cache);
        EXPECT_EQ(computed.load(), 12);
        EXPECT_EQ(eng.cellsHit(), 6u);
        EXPECT_EQ(eng.cellsComputed(), 6u);
        ASSERT_EQ(sweeps.size(), 2u);
    }
    EXPECT_EQ(cache.size(), 12u);
}

TEST(SweepEngine, AutosavePersistsEveryFinishedCell)
{
    SweepSpec spec = smallSpec();
    spec.topologies = {Topology(2, 2)};
    TempPath tmp("cells_autosave.cache");

    // Single-threaded so the compute callback can observe the file
    // deterministically after each preceding cell.
    setSweepJobs(1);
    std::size_t calls = 0;
    auto counting = [&](const SweepSpec &s, const SweepCell &c) {
        // Every cell computed before this one must already be on disk
        // — that is what makes a killed shard resumable.
        CellCache seen;
        if (calls == 0) {
            EXPECT_FALSE(seen.load(tmp.path()));
        } else {
            EXPECT_TRUE(seen.load(tmp.path()));
            EXPECT_EQ(seen.size(), calls);
        }
        ++calls;
        return fakeCell(s, c);
    };

    CellCache cache;
    SweepEngine eng(spec);
    eng.setCompute(counting);
    eng.setAutosave(tmp.path());
    eng.run(cache);
    setSweepJobs(0);
    EXPECT_EQ(calls, spec.numCells());

    // The autosaved file holds the complete grid and is byte-identical
    // to an explicit save of the final cache.
    TempPath full("cells_autosave_full.cache");
    ASSERT_TRUE(cache.save(full.path()));
    EXPECT_EQ(fileBytes(tmp.path()), fileBytes(full.path()));
}

TEST(SweepEngine, AutosaveResumesAKilledRun)
{
    const SweepSpec spec = smallSpec();
    TempPath tmp("cells_resume.cache");

    // "Kill" a run after half the grid: shard 0/2 stands in for a
    // process that died mid-sweep with its autosaved partial cache.
    std::atomic<std::size_t> firstRun{0};
    {
        CellCache cache;
        SweepEngine eng(spec);
        eng.setShard(0, 2);
        eng.setCompute([&](const SweepSpec &s, const SweepCell &c) {
            ++firstRun;
            return fakeCell(s, c);
        });
        eng.setAutosave(tmp.path());
        eng.run(cache);
    }
    EXPECT_EQ(firstRun.load(), spec.numCells() / 2);

    // The restarted (unsharded) run loads the partial file and only
    // computes the cells the killed run never finished.
    CellCache resumed;
    ASSERT_TRUE(resumed.load(tmp.path()));
    std::atomic<std::size_t> secondRun{0};
    SweepEngine eng(spec);
    eng.setCompute([&](const SweepSpec &s, const SweepCell &c) {
        ++secondRun;
        return fakeCell(s, c);
    });
    eng.setAutosave(tmp.path());
    eng.run(resumed);
    EXPECT_EQ(eng.cellsHit(), spec.numCells() / 2);
    EXPECT_EQ(secondRun.load(), spec.numCells() - firstRun.load());

    // The resumed file equals a never-interrupted run's cache.
    CellCache whole;
    SweepEngine ref(spec);
    ref.setCompute(fakeCell);
    ref.run(whole);
    TempPath wholePath("cells_resume_whole.cache");
    ASSERT_TRUE(whole.save(wholePath.path()));
    EXPECT_EQ(fileBytes(tmp.path()), fileBytes(wholePath.path()));
}

TEST(CellCache, SaveAtomicLeavesNoTempFile)
{
    const SweepSpec spec = smallSpec();
    CellCache cache;
    cache.put(spec.cellKey(spec.cellAt(0)),
              fakeCell(spec, spec.cellAt(0)));

    TempPath tmp("cells_atomic.cache");
    ASSERT_TRUE(cache.saveAtomic(tmp.path()));
    CellCache back;
    EXPECT_TRUE(back.load(tmp.path()));
    EXPECT_EQ(back.size(), 1u);
    // The per-process staging file must be gone after the rename.
    std::ifstream staging(tmp.path() + ".tmp." +
                          std::to_string(::getpid()));
    EXPECT_FALSE(staging.good());
}

TEST(SweepEngine, StallDetectorWarnsOnceNamingTheSlowCell)
{
    // One worker runs the cells in order: five fast ones set the
    // median, then the last sleeps far past 4x it.  The 10 ms
    // heartbeat must flag exactly that cell, exactly once.
    SweepSpec spec = smallSpec();
    spec.topologies = {Topology(2, 2)};
    const SweepCell slow = spec.cellAt(spec.numCells() - 1);
    const std::string slow_key = spec.cellKey(slow);

    setSweepJobs(1);
    SweepEngine eng(spec);
    eng.setProgress(10);
    eng.setCompute([&](const SweepSpec &s, const SweepCell &c) {
        const bool is_slow = s.cellKey(c) == slow_key;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(is_slow ? 800 : 30));
        return fakeCell(s, c);
    });
    CellCache cache;
    testing::internal::CaptureStderr();
    eng.run(cache);
    const std::string err = testing::internal::GetCapturedStderr();
    setSweepJobs(0);
    EXPECT_EQ(eng.cellsComputed(), spec.numCells());

    std::size_t warnings = 0;
    for (std::size_t pos = err.find("possible stall");
         pos != std::string::npos;
         pos = err.find("possible stall", pos + 1))
        ++warnings;
    EXPECT_EQ(warnings, 1u) << err;
    EXPECT_NE(err.find("sweep cell '" + slow_key + "' running"),
              std::string::npos)
        << err;
}

TEST(SweepEngine, HeartbeatReportsResidentSet)
{
    SweepSpec spec = smallSpec();
    spec.topologies = {Topology(2, 2)};
    setSweepJobs(1);
    SweepEngine eng(spec);
    eng.setProgress(10);
    eng.setCompute([](const SweepSpec &s, const SweepCell &c) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return fakeCell(s, c);
    });
    CellCache cache;
    testing::internal::CaptureStderr();
    eng.run(cache);
    const std::string err = testing::internal::GetCapturedStderr();
    setSweepJobs(0);

    // Every heartbeat names a positive resident set, e.g.
    // "sweep: 3/6 cells done, 1.2e+03 events/sec, rss 12 MB, eta 0s".
    std::istringstream lines(err);
    std::size_t beats = 0;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("sweep: ", 0) != 0)
            continue;
        ++beats;
        const std::size_t at = line.find(", rss ");
        ASSERT_NE(at, std::string::npos) << line;
        double mb = 0;
        char unit[3] = {};
        ASSERT_EQ(std::sscanf(line.c_str() + at, ", rss %lf %2s", &mb,
                              unit),
                  2)
            << line;
        EXPECT_GT(mb, 0.0) << line;
        EXPECT_STREQ(unit, "MB") << line;
    }
    EXPECT_GT(beats, 0u) << err;
}

TEST(SweepEngine, RealCellsMatchRunOne)
{
    // Two real (tiny) simulations through the engine must equal the
    // direct runOne results: the engine adds caching and scheduling,
    // never different numbers.
    SweepSpec spec;
    spec.topologies = {Topology(2, 2)};
    spec.benches = {BenchmarkName::LU};
    spec.protocols = {ProtocolName::MESI, ProtocolName::DBypFull};

    CellCache cache;
    SweepEngine eng(spec);
    const Sweep s = eng.run(cache).at(0);

    const SimParams params = spec.paramsFor(0);
    for (unsigned p = 0; p < 2; ++p) {
        const RunResult ref =
            runOne(spec.protocols[p], BenchmarkName::LU, 1, params);
        EXPECT_EQ(s.results[0][p].cycles, ref.cycles);
        EXPECT_EQ(s.results[0][p].traffic.total(),
                  ref.traffic.total());
        EXPECT_EQ(s.results[0][p].messages, ref.messages);
        EXPECT_EQ(s.results[0][p].maxLinkFlits, ref.maxLinkFlits);
    }

    // And a second engine over the same cache serves them as hits,
    // byte-identically through the serialization.
    SweepEngine again(eng.spec());
    const Sweep s2 = again.run(cache).at(0);
    EXPECT_EQ(again.cellsHit(), 2u);
    for (unsigned p = 0; p < 2; ++p) {
        EXPECT_EQ(s2.results[0][p].cycles, s.results[0][p].cycles);
        EXPECT_EQ(s2.results[0][p].traffic.total(),
                  s.results[0][p].traffic.total());
    }
}

} // namespace wastesim
