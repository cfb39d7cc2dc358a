#include "fuzz/campaign.hh"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/crc32.hh"
#include "common/log.hh"
#include "fuzz/minimizer.hh"
#include "system/supervisor.hh"

namespace wastesim
{

namespace
{

constexpr const char *fuzzOutputMagic = "wastesim-fuzz-v1";

std::string
crcHex(const std::string &bytes)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", crc32(bytes));
    return buf;
}

/** Worker hand-off payload (wrapped in the checksummed container). */
std::string
formatFuzzPayload(const FuzzOutcome &o)
{
    std::ostringstream os;
    os << "scenario " << o.line << '\n';
    os << "verdict " << fuzzVerdictName(o.verdict) << '\n';
    if (!o.invariant.empty())
        os << "invariant " << o.invariant << '\n';
    if (!o.resultCrc.empty())
        os << "crc " << o.resultCrc << '\n';
    os << "detail\n" << o.detail;
    return os.str();
}

bool
parseFuzzPayload(const std::string &payload, FuzzOutcome &o,
                 std::string *err)
{
    std::istringstream is(payload);
    std::string line;
    bool have_scenario = false, have_verdict = false;
    while (std::getline(is, line)) {
        if (line.rfind("scenario ", 0) == 0) {
            o.line = line.substr(9);
            have_scenario = true;
        } else if (line.rfind("verdict ", 0) == 0) {
            const std::string v = line.substr(8);
            if (v == "pass")
                o.verdict = FuzzVerdict::Pass;
            else if (v == "violation")
                o.verdict = FuzzVerdict::Violation;
            else if (v == "crash")
                o.verdict = FuzzVerdict::Crash;
            else {
                if (err)
                    *err = "unknown verdict '" + v + "'";
                return false;
            }
            have_verdict = true;
        } else if (line.rfind("invariant ", 0) == 0) {
            o.invariant = line.substr(10);
        } else if (line.rfind("crc ", 0) == 0) {
            o.resultCrc = line.substr(4);
        } else if (line == "detail") {
            std::ostringstream rest;
            bool first = true;
            while (std::getline(is, line)) {
                rest << (first ? "" : "\n") << line;
                first = false;
            }
            o.detail = rest.str();
            break;
        } else {
            if (err)
                *err = "unexpected payload line '" + line + "'";
            return false;
        }
    }
    if (!have_scenario || !have_verdict) {
        if (err)
            *err = "truncated payload";
        return false;
    }
    return true;
}

bool
writeFuzzOutput(const std::string &path, const FuzzOutcome &o,
                std::string *err)
{
    const std::string payload = formatFuzzPayload(o);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        if (err)
            *err = "cannot open '" + path + "'";
        return false;
    }
    os << fuzzOutputMagic << ' ' << crcHex(payload) << ' '
       << payload.size() << '\n'
       << payload;
    os.flush();
    return static_cast<bool>(os);
}

bool
readFuzzOutput(const std::string &path, FuzzOutcome &o,
               std::string *err)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (err)
            *err = "missing output file";
        return false;
    }
    std::string magic, crc_hex;
    std::size_t len = 0;
    if (!(is >> magic >> crc_hex >> len) || magic != fuzzOutputMagic) {
        if (err)
            *err = "bad output header";
        return false;
    }
    is.get(); // the newline after the header
    std::string payload(len, '\0');
    is.read(payload.data(), static_cast<std::streamsize>(len));
    if (static_cast<std::size_t>(is.gcount()) != len) {
        if (err)
            *err = "truncated output payload";
        return false;
    }
    if (crcHex(payload) != crc_hex) {
        if (err)
            *err = "output checksum mismatch";
        return false;
    }
    return parseFuzzPayload(payload, o, err);
}

std::string
sanitizeName(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return out;
}

} // namespace

const char *
fuzzVerdictName(FuzzVerdict v)
{
    switch (v) {
      case FuzzVerdict::Pass:
        return "pass";
      case FuzzVerdict::Violation:
        return "violation";
      case FuzzVerdict::Crash:
        return "crash";
    }
    return "?";
}

InvariantReport
checkScenario(const Scenario &s, Tick max_ticks, bool check_replay,
              std::string *result_crc)
{
    InvariantReport rep;
    const SimParams params = s.simParams();

    std::unique_ptr<Workload> wl = s.makeWorkload();
    System sys(s.protocol, *wl, params);
    const RunResult first = sys.run(max_ticks);
    checkSystemInvariants(sys, *wl, first, rep);
    checkResultInvariants(first, rep);
    if (result_crc)
        *result_crc = crcHex(serializeResult(first));

    if (check_replay) {
        // Full rebuild — workload generation included — so the
        // determinism law covers the whole pipeline, not just the
        // kernel.
        std::unique_ptr<Workload> wl2 = s.makeWorkload();
        System sys2(s.protocol, *wl2, params);
        const RunResult second = sys2.run(max_ticks);
        compareResults(first, second, rep);
    }
    return rep;
}

int
fuzzWorkerMain(const std::string &line, const std::string &out_path,
               Tick max_ticks, bool check_replay)
{
    Scenario s;
    std::string err;
    if (!Scenario::parse(line, s, &err)) {
        std::fprintf(stderr, "fuzzone: %s\n", err.c_str());
        return 2;
    }

    FuzzOutcome o;
    o.line = line;
    const InvariantReport rep =
        checkScenario(s, max_ticks, check_replay, &o.resultCrc);
    if (!rep.ok()) {
        o.verdict = FuzzVerdict::Violation;
        o.invariant = rep.violations.front().invariant;
        o.detail = rep.describe();
    }
    if (!writeFuzzOutput(out_path, o, &err)) {
        std::fprintf(stderr, "fuzzone: %s\n", err.c_str());
        return 2;
    }
    return rep.ok() ? 0 : 1;
}

FuzzCampaign::FuzzCampaign(FuzzOptions opts) : opts_(std::move(opts))
{
}

FuzzOutcome
FuzzCampaign::runInProcess(std::uint64_t index, const std::string &line)
{
    FuzzOutcome o;
    o.index = index;
    o.line = line;
    Scenario s;
    std::string err;
    if (!Scenario::parse(line, s, &err)) {
        o.verdict = FuzzVerdict::Crash;
        o.detail = "bad scenario line: " + err;
        return o;
    }
    const InvariantReport rep = checkScenario(
        s, opts_.maxTicks, opts_.checkReplay, &o.resultCrc);
    if (!rep.ok()) {
        o.verdict = FuzzVerdict::Violation;
        o.invariant = rep.violations.front().invariant;
        o.detail = rep.describe();
    }
    return o;
}

FuzzOutcome
FuzzCampaign::runIsolated(std::uint64_t index, const std::string &line)
{
    FuzzOutcome o;
    o.index = index;
    o.line = line;

    char out_path[128];
    std::snprintf(out_path, sizeof(out_path),
                  "/tmp/wastesim_fuzz_%d_%llu.out",
                  static_cast<int>(getpid()),
                  static_cast<unsigned long long>(index));
    std::remove(out_path);

    const std::string prog =
        opts_.program.empty() ? "/proc/self/exe" : opts_.program;
    char max_ticks_str[32];
    std::snprintf(max_ticks_str, sizeof(max_ticks_str), "%llu",
                  static_cast<unsigned long long>(opts_.maxTicks));

    std::vector<std::string> args = {prog,         "fuzzone",
                                     "--scenario", line,
                                     "--out",      out_path,
                                     "--max-ticks", max_ticks_str};
    if (!opts_.checkReplay)
        args.push_back("--no-replay");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0) {
        o.verdict = FuzzVerdict::Crash;
        o.detail = std::string("fork failed: ") + std::strerror(errno);
        return o;
    }
    if (pid == 0) {
        execv(prog.c_str(), argv.data());
        std::fprintf(stderr, "exec %s failed: %s\n", prog.c_str(),
                     std::strerror(errno));
        _exit(127);
    }

    // Poll with a hard deadline: a hung scenario is reaped and
    // reported, never allowed to wedge the campaign.
    const auto start = std::chrono::steady_clock::now();
    int status = 0;
    bool killed = false;
    for (;;) {
        const pid_t r = waitpid(pid, &status, WNOHANG);
        if (r == pid)
            break;
        if (r < 0 && errno != EINTR) {
            o.verdict = FuzzVerdict::Crash;
            o.detail =
                std::string("waitpid failed: ") + std::strerror(errno);
            return o;
        }
        const auto elapsed_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (opts_.deadlineMs != 0 && !killed &&
            elapsed_ms > opts_.deadlineMs) {
            kill(pid, SIGKILL);
            killed = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    if (killed) {
        o.verdict = FuzzVerdict::Crash;
        o.detail = "deadline exceeded (" +
                   std::to_string(opts_.deadlineMs) + " ms), killed";
        std::remove(out_path);
        return o;
    }

    const bool clean_exit =
        WIFEXITED(status) &&
        (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 1);
    if (!clean_exit) {
        o.verdict = FuzzVerdict::Crash;
        o.detail = describeWaitStatus(status);
        std::remove(out_path);
        return o;
    }

    FuzzOutcome parsed;
    std::string err;
    if (!readFuzzOutput(out_path, parsed, &err) ||
        parsed.line != line) {
        o.verdict = FuzzVerdict::Crash;
        o.detail = "corrupt worker output: " +
                   (err.empty() ? "scenario mismatch" : err);
        std::remove(out_path);
        return o;
    }
    std::remove(out_path);

    o.verdict = parsed.verdict;
    o.invariant = parsed.invariant;
    o.detail = parsed.detail;
    o.resultCrc = parsed.resultCrc;
    return o;
}

FuzzOutcome
FuzzCampaign::runScenario(std::uint64_t index, const Scenario &s)
{
    const std::string line = s.encode();
    return opts_.isolate ? runIsolated(index, line)
                         : runInProcess(index, line);
}

void
FuzzCampaign::minimizeOutcome(FuzzOutcome &o, const Scenario &s)
{
    if (o.verdict == FuzzVerdict::Crash && !opts_.isolate)
        return; // can't safely reproduce a crash in-process

    const ReproducePredicate pred = [&](const Scenario &cand) {
        const std::string line = cand.encode();
        FuzzOutcome co = opts_.isolate
                             ? runIsolated(o.index, line)
                             : runInProcess(o.index, line);
        if (o.verdict == FuzzVerdict::Crash)
            return co.verdict == FuzzVerdict::Crash;
        return co.verdict == FuzzVerdict::Violation &&
               co.invariant == o.invariant;
    };

    MinimizeStats stats;
    const Scenario min =
        minimizeScenario(s, pred, &stats, opts_.minimizeMaxTests);
    if (!(min == s)) {
        o.minimizedLine = min.encode();
        o.shrunkAxes = countSmallerAxes(s, min);
    }
}

FuzzReport
FuzzCampaign::run()
{
    FuzzReport rep;
    rep.seed = opts_.seed;
    rep.runsRequested = opts_.runs;

    const ScenarioGen gen(opts_.seed);
    const auto start = std::chrono::steady_clock::now();

    for (std::uint64_t i = 0; i < opts_.runs; ++i) {
        if (drainRequestCount() > 0) {
            rep.interrupted = true;
            break;
        }
        if (opts_.timeBudgetSec > 0) {
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (elapsed > opts_.timeBudgetSec) {
                rep.timeBudgetHit = true;
                break;
            }
        }

        const Scenario s = gen.at(i);
        FuzzOutcome o = runScenario(i, s);
        if (o.verdict != FuzzVerdict::Pass && opts_.minimize)
            minimizeOutcome(o, s);

        if (o.verdict == FuzzVerdict::Violation &&
            !opts_.corpusDir.empty()) {
            CorpusEntry e;
            e.scenarioLine =
                o.minimizedLine.empty() ? o.line : o.minimizedLine;
            e.verdict = FuzzVerdict::Violation;
            e.invariant = o.invariant;
            const std::string path =
                opts_.corpusDir + "/anomaly-" +
                sanitizeName(o.invariant) + "-s" +
                std::to_string(opts_.seed) + "-r" +
                std::to_string(i) + ".scn";
            std::string err;
            if (!writeCorpusFile(path, e, &err))
                warn("cannot write corpus file: %s", err.c_str());
        }

        switch (o.verdict) {
          case FuzzVerdict::Pass:
            ++rep.passes;
            break;
          case FuzzVerdict::Violation:
            ++rep.violations;
            break;
          case FuzzVerdict::Crash:
            ++rep.crashes;
            break;
        }
        rep.outcomes.push_back(std::move(o));
    }
    return rep;
}

std::string
FuzzReport::toText() const
{
    std::ostringstream os;
    os << "wastesim-fuzz-report-v1\n";
    os << "seed " << seed << " runs " << runsRequested << " executed "
       << outcomes.size() << '\n';
    for (const FuzzOutcome &o : outcomes) {
        os << "run " << o.index << ' ' << fuzzVerdictName(o.verdict);
        if (!o.invariant.empty())
            os << ' ' << o.invariant;
        if (!o.resultCrc.empty())
            os << " crc " << o.resultCrc;
        os << '\n';
        if (o.verdict != FuzzVerdict::Pass) {
            os << "  scenario: " << o.line << '\n';
            std::istringstream d(o.detail);
            std::string dl;
            while (std::getline(d, dl))
                os << "  " << dl << '\n';
            if (!o.minimizedLine.empty())
                os << "  minimized (" << o.shrunkAxes
                   << " axes smaller): " << o.minimizedLine << '\n';
        }
    }
    os << "summary: executed " << outcomes.size() << " pass " << passes
       << " violations " << violations << " crashes " << crashes;
    if (timeBudgetHit)
        os << " time-budget-hit";
    if (interrupted)
        os << " interrupted";
    os << '\n';
    return os.str();
}

// --- regression corpus -------------------------------------------------

bool
writeCorpusFile(const std::string &path, const CorpusEntry &e,
                std::string *err)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        if (err)
            *err = "cannot open '" + path + "'";
        return false;
    }
    os << "# wastesim fuzz regression scenario; replayed by "
          "test_fuzz_corpus\n";
    os << "scenario " << e.scenarioLine << '\n';
    os << "verdict " << fuzzVerdictName(e.verdict);
    if (e.verdict == FuzzVerdict::Violation)
        os << ' ' << e.invariant;
    os << '\n';
    if (!e.resultCrc.empty())
        os << "result-crc " << e.resultCrc << '\n';
    os.flush();
    return static_cast<bool>(os);
}

bool
readCorpusFile(const std::string &path, CorpusEntry &e,
               std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open '" + path + "'";
        return false;
    }
    CorpusEntry out;
    bool have_scenario = false, have_verdict = false;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line.rfind("scenario ", 0) == 0) {
            out.scenarioLine = line.substr(9);
            have_scenario = true;
        } else if (line.rfind("verdict ", 0) == 0) {
            std::istringstream vs(line.substr(8));
            std::string v;
            vs >> v;
            if (v == "pass") {
                out.verdict = FuzzVerdict::Pass;
            } else if (v == "violation") {
                out.verdict = FuzzVerdict::Violation;
                vs >> out.invariant;
                if (out.invariant.empty()) {
                    if (err)
                        *err = "violation verdict without invariant";
                    return false;
                }
            } else {
                if (err)
                    *err = "unknown corpus verdict '" + v + "'";
                return false;
            }
            have_verdict = true;
        } else if (line.rfind("result-crc ", 0) == 0) {
            out.resultCrc = line.substr(11);
        } else {
            if (err)
                *err = "unexpected corpus line '" + line + "'";
            return false;
        }
    }
    if (!have_scenario || !have_verdict) {
        if (err)
            *err = "corpus file missing scenario or verdict";
        return false;
    }
    e = std::move(out);
    return true;
}

bool
replayCorpusEntry(const CorpusEntry &e, Tick max_ticks,
                  std::string *err)
{
    Scenario s;
    std::string perr;
    if (!Scenario::parse(e.scenarioLine, s, &perr)) {
        if (err)
            *err = "bad scenario line: " + perr;
        return false;
    }
    std::string crc;
    const InvariantReport rep = checkScenario(s, max_ticks, true, &crc);
    const FuzzVerdict got =
        rep.ok() ? FuzzVerdict::Pass : FuzzVerdict::Violation;
    if (got != e.verdict) {
        if (err)
            *err = std::string("verdict changed: pinned ") +
                   fuzzVerdictName(e.verdict) + ", got " +
                   fuzzVerdictName(got) +
                   (rep.ok() ? "" : "\n" + rep.describe());
        return false;
    }
    if (e.verdict == FuzzVerdict::Violation &&
        rep.violations.front().invariant != e.invariant) {
        if (err)
            *err = "invariant changed: pinned '" + e.invariant +
                   "', got '" + rep.violations.front().invariant +
                   "'\n" + rep.describe();
        return false;
    }
    if (!e.resultCrc.empty() && crc != e.resultCrc) {
        if (err)
            *err = "pinned result CRC " + e.resultCrc +
                   " != replayed " + crc;
        return false;
    }
    return true;
}

} // namespace wastesim
