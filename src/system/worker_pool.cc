#include "system/worker_pool.hh"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/crc32.hh"
#include "common/log.hh"

namespace wastesim
{

namespace
{

/** Hand-off payloads are one result block or verdict: far smaller. */
constexpr std::size_t maxHandoffBytes = std::size_t(1) << 22;

volatile std::sig_atomic_t g_drainRequests = 0;

void
drainHandler(int)
{
    if (g_drainRequests < 127)
        g_drainRequests = g_drainRequests + 1;
}

std::string
resolveProgram(std::string program)
{
    if (!program.empty())
        return program;
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    fatal_if(n <= 0, "worker pool: cannot resolve /proc/self/exe; pass "
                     "an explicit worker program");
    return std::string(buf, static_cast<std::size_t>(n));
}

} // namespace

void
installDrainHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = drainHandler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

int
drainRequestCount()
{
    return g_drainRequests;
}

std::string
describeWaitStatus(int status)
{
    char buf[64];
    if (WIFEXITED(status)) {
        std::snprintf(buf, sizeof(buf), "exit %d", WEXITSTATUS(status));
    } else if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        std::snprintf(buf, sizeof(buf), "signal %d (%s)", sig,
                      strsignal(sig));
    } else {
        std::snprintf(buf, sizeof(buf), "wait status 0x%x", status);
    }
    return buf;
}

// --- checksummed hand-off ---------------------------------------------------

std::string
formatHandoff(const char *magic, const std::string &payload)
{
    char head[64];
    std::snprintf(head, sizeof(head), "%s %08x %zu\n", magic,
                  crc32(payload), payload.size());
    return head + payload;
}

bool
writeHandoff(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    return static_cast<bool>(os);
}

bool
readHandoff(const std::string &path, const char *magic,
            std::string &payload, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return fail("missing output file");
    std::string head;
    std::getline(is, head);
    std::string got_magic;
    std::uint32_t want_crc = 0;
    std::size_t nbytes = 0;
    {
        std::istringstream hs(head);
        hs >> got_magic >> std::hex >> want_crc >> std::dec >> nbytes;
        if (!hs || got_magic != magic || nbytes == 0 ||
            nbytes > maxHandoffBytes)
            return fail("malformed output header '" + head + "'");
    }
    payload.assign(nbytes, '\0');
    is.read(payload.data(), static_cast<std::streamsize>(nbytes));
    if (static_cast<std::size_t>(is.gcount()) != nbytes)
        return fail("truncated output (" + std::to_string(is.gcount()) +
                    " of " + std::to_string(nbytes) + " bytes)");
    const std::uint32_t got_crc = crc32(payload);
    if (got_crc != want_crc) {
        char buf[80];
        std::snprintf(buf, sizeof(buf),
                      "checksum mismatch (stored %08x, computed %08x)",
                      want_crc, got_crc);
        return fail(buf);
    }
    return true;
}

// --- WorkerPool -------------------------------------------------------------

WorkerPool::WorkerPool(unsigned slots, std::string program,
                       std::string magic)
    : program_(resolveProgram(std::move(program))),
      magic_(std::move(magic)), slots_(slots)
{
    fatal_if(slots == 0, "worker pool: needs at least 1 slot");
    static std::atomic<unsigned> pools{0};
    const std::string stem = ".wastesim_worker." +
                             std::to_string(::getpid()) + "." +
                             std::to_string(pools++) + ".";
    for (unsigned i = 0; i < slots; ++i)
        slots_[i].outPath = stem + std::to_string(i) + ".tmp";
}

WorkerPool::~WorkerPool()
{
    killAll();
}

unsigned
WorkerPool::numBusy() const
{
    unsigned n = 0;
    for (unsigned i = 0; i < size(); ++i)
        n += busy(i) ? 1 : 0;
    return n;
}

pid_t
WorkerPool::spawn(unsigned slot, const std::vector<std::string> &args)
{
    Slot &s = slots_.at(slot);
    fatal_if(s.pid > 0, "worker pool: slot %u is busy", slot);
    std::remove(s.outPath.c_str());

    std::vector<std::string> strs{program_};
    strs.insert(strs.end(), args.begin(), args.end());
    std::vector<char *> argv;
    argv.reserve(strs.size() + 1);
    for (std::string &a : strs)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    fatal_if(pid < 0, "worker pool: fork failed: %s",
             std::strerror(errno));
    if (pid == 0) {
        // A terminal Ctrl-C signals the whole process group; only the
        // parent decides whether in-flight workers finish or die.
        ::signal(SIGINT, SIG_IGN);
        ::signal(SIGTERM, SIG_IGN);
        ::execv(argv[0], argv.data());
        std::fprintf(stderr, "worker: cannot exec %s: %s\n", argv[0],
                     std::strerror(errno));
        ::_exit(127);
    }
    s.pid = pid;
    s.start = Clock::now();
    s.killReason.clear();
    return pid;
}

bool
WorkerPool::reap(unsigned slot, double deadline_ms, WorkerExit &out)
{
    Slot &s = slots_[slot];
    if (s.pid <= 0)
        return false;
    int status = 0;
    const pid_t got = ::waitpid(s.pid, &status, WNOHANG);
    if (got == 0) {
        const double ran_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      s.start)
                .count();
        if (ran_ms > deadline_ms && s.killReason.empty()) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "deadline exceeded (ran %.1f s, limit %.1f s)",
                          ran_ms / 1e3, deadline_ms / 1e3);
            s.killReason = buf;
            ::kill(s.pid, SIGKILL);
        }
        return false;
    }
    if (got != s.pid)
        return false;
    out = WorkerExit{};
    out.slot = slot;
    out.status = status;
    out.deadlineKilled = !s.killReason.empty();
    out.reason =
        out.deadlineKilled ? s.killReason : describeWaitStatus(status);
    if (WIFEXITED(status))
        out.outputOk =
            readHandoff(s.outPath, magic_.c_str(), out.payload,
                        &out.outputError);
    std::remove(s.outPath.c_str());
    s.pid = -1;
    return true;
}

std::vector<WorkerExit>
WorkerPool::poll(double deadline_ms)
{
    std::vector<WorkerExit> exits;
    WorkerExit e;
    for (unsigned i = 0; i < size(); ++i)
        if (reap(i, deadline_ms, e))
            exits.push_back(std::move(e));
    return exits;
}

bool
WorkerPool::wait(unsigned slot, double deadline_ms, WorkerExit &out)
{
    fatal_if(!busy(slot), "worker pool: waiting on idle slot %u", slot);
    while (!stopIfForced()) {
        if (reap(slot, deadline_ms, out))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

bool
WorkerPool::stopIfForced()
{
    if (drainRequestCount() < 2)
        return false;
    killAll();
    return true;
}

void
WorkerPool::killAll()
{
    for (Slot &s : slots_) {
        if (s.pid <= 0)
            continue;
        ::kill(s.pid, SIGKILL);
        int status = 0;
        ::waitpid(s.pid, &status, 0);
        std::remove(s.outPath.c_str());
        s.pid = -1;
    }
}

} // namespace wastesim
