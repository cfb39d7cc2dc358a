/**
 * Unit tests: the crash-isolated worker pool shared by the sweep
 * supervisor and the fuzz campaign — the checksummed hand-off file,
 * exit classification, the deadline kill, and signal handling (workers
 * ignore the terminal's SIGINT; a second drain signal kills them).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "system/worker_pool.hh"

namespace wastesim
{

namespace
{

constexpr const char *testMagic = "wastesim-test-v1";
constexpr double noDeadline = std::numeric_limits<double>::infinity();

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os << bytes;
}

bool
exists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

} // namespace

TEST(Handoff, RoundTripsAndRejectsDamage)
{
    const std::string path = "worker_pool_handoff.tmp";
    const std::string payload = "line one\nline two\n";
    const std::string good = formatHandoff(testMagic, payload);
    std::string got, err;

    writeBytes(path, good);
    ASSERT_TRUE(readHandoff(path, testMagic, got, &err)) << err;
    EXPECT_EQ(got, payload);

    // A worker of another kind is rejected by its magic.
    EXPECT_FALSE(readHandoff(path, "wastesim-other-v1", got, &err));
    EXPECT_NE(err.find("malformed output header"), std::string::npos);

    std::string flipped = good;
    flipped.back() ^= 0x20;
    writeBytes(path, flipped);
    EXPECT_FALSE(readHandoff(path, testMagic, got, &err));
    EXPECT_NE(err.find("checksum mismatch"), std::string::npos);

    writeBytes(path, good.substr(0, good.size() - 3));
    EXPECT_FALSE(readHandoff(path, testMagic, got, &err));
    EXPECT_NE(err.find("truncated"), std::string::npos);

    // The length is checked before anything is allocated: zero and
    // anything over 4 MiB are malformed headers.
    writeBytes(path, std::string(testMagic) + " 00000000 0\n");
    EXPECT_FALSE(readHandoff(path, testMagic, got, &err));
    writeBytes(path, std::string(testMagic) + " 00000000 4194305\n");
    EXPECT_FALSE(readHandoff(path, testMagic, got, &err));
    EXPECT_NE(err.find("malformed output header"), std::string::npos);

    std::remove(path.c_str());
    EXPECT_FALSE(readHandoff(path, testMagic, got, &err));
    EXPECT_EQ(err, "missing output file");
}

TEST(WorkerPool, WorkersIgnoreTheTerminalsSigint)
{
    // A terminal Ctrl-C signals the whole process group; the worker
    // must survive it and finish normally.
    WorkerPool pool(1, "/bin/sh", testMagic);
    pool.spawn(0, {"-c", "kill -INT $$; exit 0"});
    WorkerExit e;
    ASSERT_TRUE(pool.wait(0, noDeadline, e));
    EXPECT_TRUE(e.exitedWith(0)) << e.reason;
    EXPECT_FALSE(e.deadlineKilled);
}

TEST(WorkerPool, HungWorkerIsKilledAtTheDeadline)
{
    WorkerPool pool(1, "/bin/sleep", testMagic);
    const auto start = std::chrono::steady_clock::now();
    pool.spawn(0, {"30"});
    WorkerExit e;
    ASSERT_TRUE(pool.wait(0, 200, e));
    const double took = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_TRUE(e.deadlineKilled);
    EXPECT_TRUE(WIFSIGNALED(e.status) && WTERMSIG(e.status) == SIGKILL);
    EXPECT_NE(e.reason.find("deadline exceeded"), std::string::npos);
    EXPECT_FALSE(e.outputOk);
    EXPECT_LT(took, 10.0);
    EXPECT_FALSE(pool.busy(0));
}

TEST(WorkerPool, ClassifiesExitsPerSlot)
{
    // An unexecutable program is the conventional exit 127.
    {
        WorkerPool pool(1, "/no/such/wastesim", testMagic);
        pool.spawn(0, {});
        WorkerExit e;
        ASSERT_TRUE(pool.wait(0, noDeadline, e));
        EXPECT_TRUE(e.exitedWith(127));
        EXPECT_EQ(e.reason, "exit 127");
    }

    // Two slots at once: a nonzero exit and a signal death.
    WorkerPool pool(2, "/bin/sh", testMagic);
    pool.spawn(0, {"-c", "exit 3"});
    pool.spawn(1, {"-c", "kill -SEGV $$"});
    EXPECT_EQ(pool.numBusy(), 2u);
    std::string reasons[2];
    for (unsigned reaped = 0; reaped < 2;) {
        for (const WorkerExit &e : pool.poll(noDeadline)) {
            reasons[e.slot] = e.reason;
            ++reaped;
        }
    }
    EXPECT_EQ(reasons[0], "exit 3");
    EXPECT_EQ(reasons[1].rfind("signal 11 (", 0), 0u) << reasons[1];
    EXPECT_EQ(pool.numBusy(), 0u);
}

TEST(WorkerPool, ReportsTheWorkersPeakRss)
{
    // dd reads one 64 MiB block into a buffer of that size, touching
    // every page; the reaped exit carries the child's ru_maxrss.
    WorkerPool pool(1, "/bin/dd", testMagic);
    pool.spawn(0, {"if=/dev/zero", "of=/dev/null", "bs=64M", "count=1",
                   "status=none"});
    WorkerExit e;
    ASSERT_TRUE(pool.wait(0, noDeadline, e));
    ASSERT_TRUE(e.exitedWith(0)) << e.reason;
    EXPECT_GE(e.maxRssKb, 64L * 1024);
}

TEST(WorkerPool, VerifiesAndRemovesTheHandoffFile)
{
    WorkerPool pool(1, "/bin/sh", testMagic);
    const std::string path = pool.outPath(0);
    const std::string payload = "result 42\n";
    // sh -c SCRIPT $0 $1: the worker copies $1 into the file at $0.
    const std::string copy = "printf '%s' \"$1\" > \"$0\"";
    pool.spawn(0, {"-c", copy, path, formatHandoff(testMagic, payload)});
    WorkerExit e;
    ASSERT_TRUE(pool.wait(0, noDeadline, e));
    EXPECT_TRUE(e.exitedWith(0));
    ASSERT_TRUE(e.outputOk) << e.outputError;
    EXPECT_EQ(e.payload, payload);
    EXPECT_FALSE(exists(path));

    // A hand-off of the wrong kind is reported, and removed too.
    pool.spawn(0, {"-c", copy, path,
                   formatHandoff("wastesim-other-v1", payload)});
    ASSERT_TRUE(pool.wait(0, noDeadline, e));
    EXPECT_TRUE(e.exitedWith(0));
    EXPECT_FALSE(e.outputOk);
    EXPECT_NE(e.outputError.find("malformed output header"),
              std::string::npos);
    EXPECT_FALSE(exists(path));

    // No file at all.
    pool.spawn(0, {"-c", "exit 0"});
    ASSERT_TRUE(pool.wait(0, noDeadline, e));
    EXPECT_EQ(e.outputError, "missing output file");
}

TEST(WorkerPoolDeathTest, SecondDrainSignalKillsAndReapsEveryWorker)
{
    // Run in a child process: drain requests are process-wide and
    // cannot be reset.
    EXPECT_EXIT(
        {
            installDrainHandlers();
            WorkerPool pool(2, "/bin/sleep", testMagic);
            pool.spawn(0, {"30"});
            pool.spawn(1, {"30"});
            std::raise(SIGINT); // first: drain, workers keep running
            if (pool.stopIfForced() || pool.numBusy() != 2)
                std::_Exit(1);
            std::raise(SIGINT); // second: stop now
            WorkerExit e;
            if (pool.wait(0, noDeadline, e) || pool.numBusy() != 0)
                std::_Exit(2);
            std::_Exit(0);
        },
        testing::ExitedWithCode(0), "");
}

} // namespace wastesim
