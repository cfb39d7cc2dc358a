/**
 * Unit tests: the sweep engine's process slots — CRC-32 cache
 * integrity, fault-injection determinism, the worker hand-off format,
 * quarantine records, and real crash-isolated worker processes
 * (re-exec'd `wastesim cell`) converging to caches byte-identical to
 * thread slots'.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "system/supervisor.hh"
#include "system/sweep_engine.hh"
#include "system/worker_pool.hh"

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

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

/** The tiniest real grid: two cells on a 2x2 mesh. */
SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.topologies = {Topology(2, 2)};
    spec.benches = {BenchmarkName::LU};
    spec.protocols = {ProtocolName::MESI, ProtocolName::DBypFull};
    return spec;
}

/** Process slots running the freshly built CLI binary. */
SupervisorConfig
workerConfig(unsigned workers = 2)
{
    SupervisorConfig cfg;
    cfg.workers = workers;
    cfg.program = WASTESIM_BINARY_DIR "/wastesim";
    cfg.workerArgs = {"--scale", "1"};
    return cfg;
}

/** An engine computing @p spec on @p cfg's process slots. */
SweepEngine
supervised(const SweepSpec &spec, SupervisorConfig cfg)
{
    SweepEngine eng(spec);
    eng.setSupervise(std::move(cfg));
    return eng;
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
    r.l1Waste.byCat[0] = 1.0 / 3.0 + c.protoIdx;
    r.maxLinkFlits = 7 + c.topoIdx;
    return r;
}

std::string
resultBlock(const RunResult &r)
{
    std::ostringstream os;
    os.precision(17);
    writeRunResult(os, r);
    return os.str();
}

} // namespace

TEST(Crc32, KnownAnswerAndSensitivity)
{
    // The CRC-32/ISO-HDLC check value: crc32("123456789").
    EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
    EXPECT_EQ(crc32(std::string()), 0u);
    // Any single-byte change must move the checksum.
    EXPECT_NE(crc32(std::string("123456789")),
              crc32(std::string("123456788")));
}

TEST(FaultSpec, ParsesDescribesAndRejects)
{
    FaultSpec f;
    std::string err;
    ASSERT_TRUE(FaultSpec::parse("crash:0.25,hang:0.5", f, &err));
    EXPECT_DOUBLE_EQ(f.crash, 0.25);
    EXPECT_DOUBLE_EQ(f.hang, 0.5);
    EXPECT_DOUBLE_EQ(f.corrupt, 0.0);
    EXPECT_TRUE(f.any());

    // describe() round-trips through parse().
    FaultSpec back;
    ASSERT_TRUE(FaultSpec::parse(f.describe(), back, &err));
    EXPECT_DOUBLE_EQ(back.crash, f.crash);
    EXPECT_DOUBLE_EQ(back.hang, f.hang);
    EXPECT_DOUBLE_EQ(back.corrupt, f.corrupt);

    EXPECT_FALSE(FaultSpec::parse("explode:0.5", f, &err));
    EXPECT_NE(err.find("unknown fault kind"), std::string::npos);
    EXPECT_FALSE(FaultSpec::parse("crash:1.5", f, &err));
    EXPECT_FALSE(FaultSpec::parse("crash", f, &err));
    EXPECT_FALSE(FaultSpec::parse("crash:0.7,hang:0.7", f, &err));
    EXPECT_NE(err.find("sum"), std::string::npos);

    FaultSpec none;
    ASSERT_TRUE(FaultSpec::parse("", none, &err));
    EXPECT_FALSE(none.any());
}

TEST(FaultSpec, RejectsMalformedProbabilitiesAndDuplicates)
{
    FaultSpec f;
    std::string err;

    // NaN compares false against every bound, so a naive
    // "p < 0 || p > 1" check would accept it.
    EXPECT_FALSE(FaultSpec::parse("crash:nan", f, &err));
    EXPECT_NE(err.find("not in [0, 1]"), std::string::npos);
    EXPECT_FALSE(FaultSpec::parse("crash:inf", f, &err));

    // strtod("") consumes the whole (empty) string; the end-pointer
    // test alone would accept it as probability 0.
    EXPECT_FALSE(FaultSpec::parse("crash:", f, &err));
    EXPECT_NE(err.find("not in [0, 1]"), std::string::npos);

    EXPECT_FALSE(FaultSpec::parse("crash:-0.1", f, &err));
    EXPECT_FALSE(FaultSpec::parse("crash:0.5junk", f, &err));

    // A repeated kind is a typo'd spec, not a refinement.
    EXPECT_FALSE(FaultSpec::parse("crash:0.1,crash:0.2", f, &err));
    EXPECT_NE(err.find("duplicate fault kind"), std::string::npos);

    // Whole-spec validity: a good prefix must not survive a bad item.
    ASSERT_TRUE(FaultSpec::parse("hang:0.5", f, &err));
    EXPECT_FALSE(FaultSpec::parse("hang:0.5,corrupt:bogus", f, &err));
}

TEST(FaultDraw, IsDeterministicPerCellAndAttempt)
{
    FaultSpec f;
    ASSERT_TRUE(FaultSpec::parse("crash:0.3,hang:0.3,corrupt:0.3", f));

    // Same (seed, cell, attempt) always draws the same fate — that is
    // what lets the parent predict what its child will do.
    for (unsigned attempt = 0; attempt < 8; ++attempt) {
        EXPECT_EQ(faultDraw(f, 7, "cellA", attempt),
                  faultDraw(f, 7, "cellA", attempt));
    }
    // ...and the draw depends on every input.
    bool varies = false;
    for (unsigned attempt = 1; attempt < 16 && !varies; ++attempt)
        varies = faultDraw(f, 7, "cellA", attempt) !=
                 faultDraw(f, 7, "cellA", 0);
    EXPECT_TRUE(varies);

    // A certain crash draws only crash flavors; a zero spec is inert.
    FaultSpec allCrash;
    ASSERT_TRUE(FaultSpec::parse("crash:1.0", allCrash));
    for (unsigned attempt = 0; attempt < 8; ++attempt) {
        const FaultKind k = faultDraw(allCrash, 1, "x", attempt);
        EXPECT_TRUE(k == FaultKind::CrashSegv ||
                    k == FaultKind::CrashKill ||
                    k == FaultKind::CrashExit);
    }
    EXPECT_EQ(faultDraw(FaultSpec{}, 1, "x", 0), FaultKind::None);
}

TEST(WorkerOutput, RoundTripsAndDetectsEveryKindOfDamage)
{
    const SweepSpec spec = tinySpec();
    RunResult ref = fakeCell(spec, spec.cellAt(0));
    ref.eventsExecuted = 123456789;
    const std::string id = spec.cellKey(spec.cellAt(0));
    const std::string good = formatWorkerOutput(id, ref);

    TempPath tmp("worker_output.tmp");
    RunResult r;
    std::string err;
    // The sweep loop's read path: the pool's verified hand-off, then
    // the cell payload.
    auto load = [&](const std::string &path, const std::string &want) {
        std::string payload;
        return readHandoff(path, cellOutputMagic, payload, &err) &&
               parseWorkerOutput(payload, want, r, &err);
    };
    writeBytes(tmp.path(), good);
    ASSERT_TRUE(load(tmp.path(), id)) << err;
    EXPECT_EQ(resultBlock(r), resultBlock(ref));
    // The event count travels too, although the cache leaves it out.
    EXPECT_EQ(r.eventsExecuted, ref.eventsExecuted);

    // Corruption: the CRC catches any payload flip.
    std::string bad = good;
    corruptWorkerOutput(bad, 42, 0);
    EXPECT_NE(bad, good);
    writeBytes(tmp.path(), bad);
    EXPECT_FALSE(load(tmp.path(), id));
    EXPECT_NE(err.find("checksum mismatch"), std::string::npos);

    // Truncation.
    writeBytes(tmp.path(), good.substr(0, good.size() / 2));
    EXPECT_FALSE(load(tmp.path(), id));
    EXPECT_NE(err.find("truncated"), std::string::npos);

    // A result for the wrong cell must be rejected even though its
    // checksum is valid — this is the parent/child drift guard.
    writeBytes(tmp.path(), good);
    EXPECT_FALSE(load(tmp.path(), "some-other-cell"));
    EXPECT_NE(err.find("expected"), std::string::npos);

    // Missing file and garbage header.
    EXPECT_FALSE(load("no_such_output.tmp", id));
    writeBytes(tmp.path(), "not a worker output\n");
    EXPECT_FALSE(load(tmp.path(), id));
}

TEST(CellCache, QuarantineRecordsSurviveSaveLoadAndMerge)
{
    const SweepSpec spec = tinySpec();
    const std::string k0 = spec.cellKey(spec.cellAt(0));
    const std::string k1 = spec.cellKey(spec.cellAt(1));

    CellCache cache;
    cache.put(k0, fakeCell(spec, spec.cellAt(0)));
    cache.quarantine(k1, 4, "signal 11 (Segmentation fault)");
    EXPECT_EQ(cache.numQuarantined(), 1u);

    TempPath tmp("quarantine_roundtrip.cache");
    ASSERT_TRUE(cache.save(tmp.path()));
    CellCache back;
    ASSERT_TRUE(back.load(tmp.path()));
    EXPECT_EQ(back.size(), 1u);
    CellFailure cf;
    ASSERT_TRUE(back.isQuarantined(k1, &cf));
    EXPECT_EQ(cf.attempts, 4u);
    EXPECT_EQ(cf.reason, "signal 11 (Segmentation fault)");

    // A result beats a quarantine in either merge direction.
    CellCache healed;
    healed.put(k1, fakeCell(spec, spec.cellAt(1)));
    ASSERT_TRUE(back.merge(healed));
    EXPECT_FALSE(back.isQuarantined(k1));
    EXPECT_EQ(back.size(), 2u);

    CellCache quarOnly;
    quarOnly.quarantine(k1, 9, "whatever");
    ASSERT_TRUE(back.merge(quarOnly));
    EXPECT_FALSE(back.isQuarantined(k1)); // the result won

    // Two quarantines keep the higher attempt count.
    CellCache qa, qb;
    qa.quarantine(k0, 2, "reason-a");
    qb.quarantine(k0, 5, "reason-b");
    ASSERT_TRUE(qa.merge(qb));
    ASSERT_TRUE(qa.isQuarantined(k0, &cf));
    EXPECT_EQ(cf.attempts, 5u);
    EXPECT_EQ(cf.reason, "reason-b");

    // put() lifts the quarantine: a computed cell is no longer poison.
    qa.put(k0, fakeCell(spec, spec.cellAt(0)));
    EXPECT_FALSE(qa.isQuarantined(k0));
}

TEST(CellCache, V2DetectsCorruptionStrictlyAndSalvages)
{
    const SweepSpec spec = tinySpec();
    CellCache cache;
    for (std::size_t i = 0; i < spec.numCells(); ++i)
        cache.put(spec.cellKey(spec.cellAt(i)),
                  fakeCell(spec, spec.cellAt(i)));

    TempPath tmp("v2_corrupt.cache");
    ASSERT_TRUE(cache.save(tmp.path()));

    // Flip one byte inside the FIRST cell's result block (after its
    // "= <len> <crc>" meta line).
    std::string bytes = fileBytes(tmp.path());
    std::size_t pos = bytes.find("= ");
    ASSERT_NE(pos, std::string::npos);
    pos = bytes.find('\n', pos);
    ASSERT_NE(pos, std::string::npos);
    bytes[pos + 5] ^= 0x01;
    writeBytes(tmp.path(), bytes);

    // Strict: the whole load fails, names the cell and its offset.
    CellCache strict;
    CacheLoadReport rep;
    EXPECT_FALSE(
        strict.load(tmp.path(), rep, CacheLoadMode::Strict));
    EXPECT_EQ(strict.size(), 0u);
    EXPECT_TRUE(rep.found);
    EXPECT_TRUE(rep.formatOk);
    EXPECT_NE(rep.error.find("byte offset"), std::string::npos);
    EXPECT_NE(rep.error.find("checksum mismatch"), std::string::npos);

    // The plain load() is the strict one.
    CellCache plain;
    EXPECT_FALSE(plain.load(tmp.path()));

    // Salvage: every other cell survives, the bad key is reported.
    CellCache salvage;
    CacheLoadReport srep;
    EXPECT_TRUE(
        salvage.load(tmp.path(), srep, CacheLoadMode::Salvage));
    EXPECT_EQ(salvage.size(), spec.numCells() - 1);
    EXPECT_EQ(srep.badCells, 1u);
    ASSERT_EQ(srep.badKeys.size(), 1u);
    EXPECT_FALSE(salvage.has(srep.badKeys[0]));

    // An engine run over the salvaged cache recomputes exactly the
    // dropped cell and converges back to the undamaged bytes.
    SweepEngine eng(spec);
    eng.setCompute(fakeCell);
    eng.run(salvage);
    EXPECT_EQ(eng.cellsComputed(), 1u);
    TempPath again("v2_corrupt_healed.cache");
    ASSERT_TRUE(salvage.save(again.path()));
    TempPath refPath("v2_corrupt_ref.cache");
    ASSERT_TRUE(cache.save(refPath.path()));
    EXPECT_EQ(fileBytes(again.path()), fileBytes(refPath.path()));
}

TEST(CellCache, TruncatedV2SalvagesWholeCells)
{
    const SweepSpec spec = tinySpec();
    const std::string k0 = spec.cellKey(spec.cellAt(0));
    const RunResult ref = fakeCell(spec, spec.cellAt(0));

    // A truncated v2 file (counts promise more cells than present)
    // fails strictly but salvages what was read.
    TempPath t2("v2_truncated.cache");
    {
        CellCache two;
        two.put(k0, ref);
        two.put(spec.cellKey(spec.cellAt(1)),
                fakeCell(spec, spec.cellAt(1)));
        ASSERT_TRUE(two.save(t2.path()));
    }
    std::string bytes = fileBytes(t2.path());
    // Cut inside the SECOND cell's block so the first stays whole.
    std::size_t meta = bytes.find("\n= ");
    ASSERT_NE(meta, std::string::npos);
    meta = bytes.find("\n= ", meta + 1);
    ASSERT_NE(meta, std::string::npos);
    writeBytes(t2.path(), bytes.substr(0, meta + 20));
    CellCache strict;
    EXPECT_FALSE(strict.load(t2.path()));
    CellCache salvage;
    CacheLoadReport rep;
    EXPECT_TRUE(salvage.load(t2.path(), rep, CacheLoadMode::Salvage));
    EXPECT_TRUE(rep.truncated);
    EXPECT_EQ(salvage.size(), 1u);
    // Cells are saved in key order, so the whole one has the smaller key.
    EXPECT_TRUE(
        salvage.has(std::min(k0, spec.cellKey(spec.cellAt(1)))));
}

TEST(SweepEngine, StopCheckDrainsAndResumes)
{
    SweepSpec spec = tinySpec();
    spec.benches = {BenchmarkName::LU, BenchmarkName::FFT,
                    BenchmarkName::Barnes};

    setSweepJobs(1);
    bool stop = false;
    std::size_t computed = 0;
    CellCache cache;
    {
        SweepEngine eng(spec);
        eng.setCompute([&](const SweepSpec &s, const SweepCell &c) {
            ++computed;
            stop = computed >= 2; // request drain after two cells
            return fakeCell(s, c);
        });
        eng.setStopCheck([&] { return stop; });
        eng.run(cache);
        EXPECT_TRUE(eng.interrupted());
        EXPECT_EQ(eng.cellsComputed(), 2u);
    }
    EXPECT_EQ(cache.size(), 2u);

    // The resumed run serves the drained cells and finishes the rest.
    {
        SweepEngine eng(spec);
        eng.setCompute(fakeCell);
        eng.run(cache);
        EXPECT_FALSE(eng.interrupted());
        EXPECT_EQ(eng.cellsHit(), 2u);
        EXPECT_EQ(eng.cellsComputed(), spec.numCells() - 2);
    }
    setSweepJobs(0);
}

TEST(SweepEngine, QuarantinedCellsBecomeHolesUnlessRetried)
{
    const SweepSpec spec = tinySpec();
    const std::string k1 = spec.cellKey(spec.cellAt(1));

    CellCache cache;
    cache.quarantine(k1, 3, "exit 3");

    // Default: the quarantined cell is skipped and annotated.
    {
        SweepEngine eng(spec);
        eng.setCompute(fakeCell);
        const Sweep s = eng.run(cache).at(0);
        EXPECT_EQ(eng.cellsComputed(), 1u);
        EXPECT_EQ(eng.cellsQuarantined(), 1u);
        EXPECT_TRUE(s.holeAt(0, 1));
        EXPECT_EQ(s.holes[0][1], "exit 3");
        EXPECT_EQ(s.numHoles(), 1u);
        EXPECT_FALSE(cache.has(k1));
    }

    // --retry-quarantined recomputes it and lifts the record.
    {
        SweepEngine eng(spec);
        eng.setCompute(fakeCell);
        eng.setRetryQuarantined(true);
        const Sweep s = eng.run(cache).at(0);
        EXPECT_EQ(eng.cellsQuarantined(), 0u);
        EXPECT_FALSE(s.holeAt(0, 1));
        EXPECT_TRUE(cache.has(k1));
        EXPECT_FALSE(cache.isQuarantined(k1));
    }
}

// --- real worker processes --------------------------------------------------

TEST(Supervisor, FaultFreeRunMatchesEngineByteForByte)
{
    const SweepSpec spec = tinySpec();

    CellCache engineCache;
    SweepEngine eng(spec);
    const Sweep ref = eng.run(engineCache).at(0);

    CellCache supCache;
    SweepEngine sup = supervised(spec, workerConfig());
    const Sweep got = sup.run(supCache).at(0);
    EXPECT_EQ(sup.cellsComputed(), spec.numCells());
    EXPECT_EQ(sup.retries(), 0u);
    EXPECT_FALSE(sup.interrupted());

    // The supervised cache must be byte-identical to thread slots':
    // same cells, same canonical serialization.
    EXPECT_EQ(engineCache.serialized(), supCache.serialized());
    for (unsigned p = 0; p < 2; ++p)
        EXPECT_EQ(got.results[0][p].cycles, ref.results[0][p].cycles);

    // A second supervised run over the same cache is all hits.
    SweepEngine again = supervised(spec, workerConfig());
    again.run(supCache);
    EXPECT_EQ(again.cellsHit(), spec.numCells());
    EXPECT_EQ(again.cellsComputed(), 0u);
}

TEST(Supervisor, CrashingWorkersRetryAndConverge)
{
    const SweepSpec spec = tinySpec();

    CellCache engineCache;
    SweepEngine eng(spec);
    eng.run(engineCache);

    // Half the attempts crash (SIGSEGV / SIGKILL / exit 3, picked
    // deterministically), yet the sweep converges to the identical
    // cache — crash isolation plus retry in one assertion.
    SupervisorConfig cfg = workerConfig();
    ASSERT_TRUE(FaultSpec::parse("crash:0.5", cfg.faults));
    cfg.faultSeed = 5;
    cfg.maxRetries = 10;
    cfg.backoffBaseMs = 10;

    CellCache supCache;
    SweepEngine sup = supervised(spec, cfg);
    sup.run(supCache);
    EXPECT_EQ(sup.cellsComputed(), spec.numCells());
    EXPECT_EQ(sup.cellsQuarantined(), 0u);
    EXPECT_EQ(engineCache.serialized(), supCache.serialized());
}

TEST(Supervisor, CorruptOutputIsDetectedNeverCached)
{
    const SweepSpec spec = tinySpec();

    CellCache engineCache;
    SweepEngine eng(spec);
    eng.run(engineCache);

    SupervisorConfig cfg = workerConfig();
    ASSERT_TRUE(FaultSpec::parse("corrupt:0.5", cfg.faults));
    cfg.faultSeed = 11;
    cfg.maxRetries = 10;
    cfg.backoffBaseMs = 10;

    CellCache supCache;
    SweepEngine sup = supervised(spec, cfg);
    sup.run(supCache);
    EXPECT_EQ(sup.cellsComputed(), spec.numCells());
    // Convergence to identical bytes proves no corrupt result was
    // ever accepted into the cache.
    EXPECT_EQ(engineCache.serialized(), supCache.serialized());
}

TEST(Supervisor, PoisonCellsQuarantineThenHealWithRetryFlag)
{
    const SweepSpec spec = tinySpec();

    // Every attempt crashes: both cells exhaust their retries and
    // land in quarantine with their failure reason.
    SupervisorConfig cfg = workerConfig();
    ASSERT_TRUE(FaultSpec::parse("crash:1.0", cfg.faults));
    cfg.faultSeed = 2;
    cfg.maxRetries = 1;
    cfg.backoffBaseMs = 5;

    CellCache cache;
    {
        SweepEngine sup = supervised(spec, cfg);
        const Sweep s = sup.run(cache).at(0);
        EXPECT_EQ(sup.cellsComputed(), 0u);
        EXPECT_EQ(sup.cellsQuarantined(), spec.numCells());
        EXPECT_EQ(sup.retries(), spec.numCells());
        EXPECT_EQ(s.numHoles(), spec.numCells());
        EXPECT_EQ(cache.numQuarantined(), spec.numCells());
        CellFailure cf;
        ASSERT_TRUE(cache.isQuarantined(
            spec.cellKey(spec.cellAt(0)), &cf));
        EXPECT_EQ(cf.attempts, 2u); // 1 try + 1 retry
    }

    // Without --retry-quarantined the records are honored as holes.
    {
        SweepEngine sup = supervised(spec, workerConfig());
        const Sweep s = sup.run(cache).at(0);
        EXPECT_EQ(sup.cellsComputed(), 0u);
        EXPECT_EQ(sup.cellsQuarantined(), spec.numCells());
        EXPECT_EQ(s.numHoles(), spec.numCells());
    }

    // With it (and the faults gone) the cells heal, and the final
    // cache equals a never-faulted engine run's.
    SweepEngine heal = supervised(spec, workerConfig());
    heal.setRetryQuarantined(true);
    const Sweep s = heal.run(cache).at(0);
    EXPECT_EQ(heal.cellsComputed(), spec.numCells());
    EXPECT_EQ(s.numHoles(), 0u);
    EXPECT_EQ(cache.numQuarantined(), 0u);

    CellCache engineCache;
    SweepEngine eng(spec);
    eng.run(engineCache);
    EXPECT_EQ(engineCache.serialized(), cache.serialized());
}

TEST(Supervisor, HungWorkersAreKilledAtTheDeadline)
{
    SweepSpec spec = tinySpec();
    spec.protocols = {ProtocolName::MESI}; // one cell is enough

    SupervisorConfig cfg = workerConfig(1);
    ASSERT_TRUE(FaultSpec::parse("hang:1.0", cfg.faults));
    cfg.faultSeed = 1;
    cfg.maxRetries = 0;
    cfg.deadlineMs = 300;

    CellCache cache;
    SweepEngine sup = supervised(spec, cfg);
    const Sweep s = sup.run(cache).at(0);
    EXPECT_EQ(sup.deadlineKills(), 1u);
    EXPECT_EQ(sup.cellsQuarantined(), 1u);
    CellFailure cf;
    ASSERT_TRUE(
        cache.isQuarantined(spec.cellKey(spec.cellAt(0)), &cf));
    EXPECT_NE(cf.reason.find("deadline exceeded"), std::string::npos);
    EXPECT_TRUE(s.holeAt(0, 0));
}

TEST(Supervisor, AutosavePersistsCellsAsTheyComplete)
{
    const SweepSpec spec = tinySpec();
    TempPath tmp("supervisor_autosave.cache");

    SweepEngine sup = supervised(spec, workerConfig());
    sup.setAutosave(tmp.path());
    CellCache cache;
    sup.run(cache);

    // The autosaved file holds the complete grid — a killed
    // supervised sweep would have left every completed cell behind.
    CellCache back;
    ASSERT_TRUE(back.load(tmp.path()));
    EXPECT_EQ(back.serialized(), cache.serialized());
}

TEST(Supervisor, HeartbeatAddsWorkerCounters)
{
    const SweepSpec spec = tinySpec();
    SweepEngine sup = supervised(spec, workerConfig(1));
    sup.setProgress(10);
    CellCache cache;
    testing::internal::CaptureStderr();
    sup.run(cache);
    const std::string err = testing::internal::GetCapturedStderr();

    // One heartbeat line for both slot kinds; process slots append
    // their retries, kills and the largest reaped worker's peak RSS.
    std::istringstream lines(err);
    std::size_t beats = 0;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("sweep: ", 0) != 0)
            continue;
        ++beats;
        EXPECT_NE(line.find(" events/sec, rss "), std::string::npos)
            << line;
        EXPECT_NE(line.find(", 0 retries, 0 deadline kills, worker peak "
                            "rss "),
                  std::string::npos)
            << line;
    }
    EXPECT_GT(beats, 0u) << err;
    EXPECT_EQ(err.find("supervise:"), std::string::npos) << err;
}

TEST(Supervisor, ForcedStopKillsAndReapsWorkers)
{
    // Both workers hang; a second drain request must kill them at
    // once instead of waiting for any deadline.
    const SweepSpec spec = tinySpec();
    SupervisorConfig cfg = workerConfig();
    ASSERT_TRUE(FaultSpec::parse("hang:1.0", cfg.faults));
    cfg.maxRetries = 0;
    SweepEngine sup = supervised(spec, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    sup.setStopCheck([t0] {
        return std::chrono::steady_clock::now() - t0 >
                       std::chrono::milliseconds(300)
                   ? 2
                   : 0;
    });
    CellCache cache;
    const Sweep s = sup.run(cache).at(0);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(10));
    EXPECT_TRUE(sup.interrupted());
    EXPECT_EQ(sup.cellsComputed(), 0u);
    // A killed worker is not a failed cell: nothing is quarantined.
    EXPECT_EQ(sup.cellsQuarantined(), 0u);
    EXPECT_EQ(cache.numQuarantined(), 0u);
    EXPECT_EQ(s.numHoles(), 0u);
}

} // namespace wastesim
