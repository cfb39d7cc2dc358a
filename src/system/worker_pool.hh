/**
 * @file
 * Crash-isolated worker processes, shared by `sweep --supervise` (one
 * re-exec'd `wastesim cell` per grid cell) and `fuzz` (one re-exec'd
 * `wastesim fuzzone` per scenario).
 *
 * A WorkerPool owns a fixed number of slots.  Each slot runs at most
 * one child at a time and owns that child's hand-off file: a
 * checksummed `<magic> <crc32 hex> <payload bytes>\n<payload>` file the
 * child writes and the pool verifies on reap, then removes whatever
 * the outcome.  The pool enforces a per-slot deadline with SIGKILL,
 * reaps without blocking, and describes every exit in one
 * human-readable form.  What a payload means, and what to do about a
 * failed worker, stays with the caller.
 *
 * Children ignore SIGINT/SIGTERM (set between fork and exec): a
 * terminal Ctrl-C reaches the whole process group, and draining is
 * the parent's job.  The first drain signal lets in-flight workers
 * finish; the second makes stopIfForced() kill and reap them all.
 */

#ifndef WASTESIM_SYSTEM_WORKER_POOL_HH
#define WASTESIM_SYSTEM_WORKER_POOL_HH

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <string>
#include <vector>

namespace wastesim
{

/**
 * Cooperative SIGINT/SIGTERM drain, shared by the worker pool, the
 * fuzz campaign and the threaded sweep engine: installDrainHandlers()
 * routes both signals to a counter; drainRequestCount() reads it
 * (0 = run, 1 = drain — finish in-flight work, start nothing new,
 * >= 2 = stop now).
 */
void installDrainHandlers();
int drainRequestCount();

/** Human-readable waitpid() status ("exit 3", "signal 11 (...)"). */
std::string describeWaitStatus(int status);

/** Hand-off file bytes: the `<magic> <crc> <len>` header + payload. */
std::string formatHandoff(const char *magic, const std::string &payload);

/** Write formatted hand-off bytes to @p path; false on I/O error. */
bool writeHandoff(const std::string &path, const std::string &bytes);

/**
 * Read and verify a hand-off file: the magic must match (so a
 * mis-wired worker is rejected), the length must be in (0, 4 MiB],
 * and the CRC must cover exactly that many payload bytes.  On failure
 * @p err says why (missing, malformed header, truncated, checksum
 * mismatch).
 */
bool readHandoff(const std::string &path, const char *magic,
                 std::string &payload, std::string *err);

/** How one reaped worker ended. */
struct WorkerExit
{
    unsigned slot = 0;
    int status = 0;               //!< raw waitpid() status
    long maxRssKb = 0;            //!< the child's peak RSS (ru_maxrss)
    bool deadlineKilled = false;  //!< SIGKILLed by poll() at the deadline
    /** "deadline exceeded (ran .., limit ..)" or describeWaitStatus(). */
    std::string reason;
    /** Hand-off read and verified (only tried after a normal exit). */
    bool outputOk = false;
    std::string payload;          //!< the verified payload (outputOk)
    std::string outputError;      //!< why it was not (!outputOk)

    bool
    exitedWith(int code) const
    {
        return WIFEXITED(status) && WEXITSTATUS(status) == code;
    }
};

class WorkerPool
{
  public:
    /**
     * @param slots concurrent workers
     * @param program worker binary; empty re-execs this binary
     *        (/proc/self/exe), fatal when that cannot be resolved
     * @param magic hand-off magic the workers write
     */
    WorkerPool(unsigned slots, std::string program, std::string magic);
    /** Kills and reaps any worker still running. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    unsigned size() const { return static_cast<unsigned>(slots_.size()); }
    bool busy(unsigned slot) const { return slots_[slot].pid > 0; }
    unsigned numBusy() const;

    /** The hand-off path a worker in @p slot must write (pass it in
     *  the worker's arguments); unique to this pool and slot, in the
     *  working directory. */
    const std::string &outPath(unsigned slot) const
    {
        return slots_[slot].outPath;
    }

    /** Start `program args...` in the free @p slot; returns its pid. */
    pid_t spawn(unsigned slot, const std::vector<std::string> &args);

    /**
     * Non-blocking: SIGKILL every worker running longer than
     * @p deadline_ms (infinity = none) and reap the finished ones.
     */
    std::vector<WorkerExit> poll(double deadline_ms);

    /** Poll until @p slot's worker is reaped, sleeping in between;
     *  false when stopIfForced() cut it short. */
    bool wait(unsigned slot, double deadline_ms, WorkerExit &out);

    /** Once a second drain signal has arrived: SIGKILL and reap every
     *  worker, and return true. */
    bool stopIfForced();

  private:
    using Clock = std::chrono::steady_clock;

    struct Slot
    {
        pid_t pid = -1;
        Clock::time_point start;
        std::string outPath;
        std::string killReason;
    };

    /** Deadline-check and non-blocking reap of one slot. */
    bool reap(unsigned slot, double deadline_ms, WorkerExit &out);
    void killAll();

    std::string program_;
    std::string magic_;
    std::vector<Slot> slots_;
};

} // namespace wastesim

#endif // WASTESIM_SYSTEM_WORKER_POOL_HH
