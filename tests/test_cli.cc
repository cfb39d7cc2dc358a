/** CLI tests: run the built `wastesim` binary and check its exit
 *  status and output. */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>

namespace
{

struct Result
{
    int status = -1; //!< exit status, or -1 if it did not exit
    std::string out; //!< stdout and stderr, interleaved
};

/** Run `ENV wastesim ARGS` through the shell; @p env holds
 *  NAME=VALUE assignments. */
Result
run(const std::string &args, const std::string &env = "")
{
    const std::string cmd = env + " " WASTESIM_BINARY_DIR "/wastesim " +
                            args + " 2>&1";
    Result r;
    std::FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, p)) > 0;)
        r.out.append(buf, n);
    const int st = pclose(p);
    if (st != -1 && WIFEXITED(st))
        r.status = WEXITSTATUS(st);
    return r;
}

const char *const subcommands[] = {"report", "sweep", "info",  "synth",
                                   "replay", "record", "merge", "fuzz",
                                   "fuzzone", "cell"};

/** True when @p r failed with exit status 1 and printed @p msg. */
::testing::AssertionResult
failsWith(const Result &r, const std::string &msg)
{
    if (r.status == 1 && r.out.find(msg) != std::string::npos)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "status " << r.status << ", wanted 1 and '" << msg
           << "' in: " << r.out;
}

/** The words of @p text, where a word is a maximal run of letters,
 *  digits and dashes: "--mesh" is one word, "--mesh-list" another. */
std::set<std::string>
words(const std::string &text)
{
    std::set<std::string> out;
    std::string w;
    for (const char c : text + " ") {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '-') {
            w += c;
        } else if (!w.empty()) {
            out.insert(w);
            w.clear();
        }
    }
    return out;
}

} // namespace

TEST(Cli, SubcommandHelpPrintsUsage)
{
    for (const char *sub : subcommands) {
        for (const char *flag : {"--help", "-h"}) {
            const Result r = run(std::string(sub) + " " + flag);
            EXPECT_EQ(r.status, 0) << sub << " " << flag << ": " << r.out;
            EXPECT_EQ(r.out.rfind("usage: ", 0), 0u)
                << sub << " " << flag << ": " << r.out;
        }
    }
}

TEST(Cli, HelpAfterOtherOptionsPrintsUsage)
{
    const Result r = run("report --format json --help");
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_EQ(r.out.rfind("usage: ", 0), 0u) << r.out;
}

TEST(Cli, HelpAsAnOptionValueIsNotHelp)
{
    // `-h` after --trace is the trace's file name, not a request for
    // help.
    const Result r = run("info --trace -h");
    EXPECT_NE(r.status, 0) << r.out;
    EXPECT_EQ(r.out.find("usage: "), std::string::npos) << r.out;
}

TEST(Cli, UnknownOptionStillFails)
{
    const Result r = run("report --bogus");
    EXPECT_NE(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("unknown option '--bogus'"), std::string::npos)
        << r.out;
}

TEST(Cli, NoCacheEnvBypassesCacheReadAndWrite)
{
    const std::string path = "cli_no_cache.cache";
    std::remove(path.c_str());
    const std::string sweep = "sweep --mesh 2x2 --jobs 2 --report headline";
    auto inode = [&path] {
        struct stat st{};
        return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
    };

    const Result fill = run(sweep, "WASTESIM_CACHE=" + path);
    ASSERT_EQ(fill.status, 0) << fill.out;
    EXPECT_NE(fill.out.find("sweep: 54 cells (0 cached, 54 computed)\n"),
              std::string::npos)
        << fill.out;
    const ino_t before = inode();
    ASSERT_NE(before, 0u);

    // A full cache for this grid, yet every cell is simulated again
    // (no read), and the file is not replaced (no write: each save is
    // an atomic rename, so a write would change its inode).
    const Result bypass =
        run(sweep, "WASTESIM_NO_CACHE=1 WASTESIM_CACHE=" + path);
    EXPECT_EQ(bypass.status, 0) << bypass.out;
    EXPECT_NE(bypass.out.find("sweep: 54 cells (0 cached, 54 computed) "
                              "[cache disabled]\n"),
              std::string::npos)
        << bypass.out;
    EXPECT_EQ(inode(), before);
    std::remove(path.c_str());
}

TEST(Cli, TopologyFlagsApplyAfterFullSize)
{
    const std::string trace = "cli_topo_order.trc";
    ASSERT_EQ(run("synth --mesh 2x2 --ops 256 --out " + trace).status, 0);
    const Result before =
        run("replay --trace " + trace + " --mesh 2x2 --full-size "
            "--protocol MESI");
    const Result after =
        run("replay --trace " + trace + " --full-size --mesh 2x2 "
            "--protocol MESI");
    EXPECT_EQ(before.status, 0) << before.out;
    EXPECT_EQ(after.status, 0) << after.out;
    EXPECT_EQ(before.out, after.out);
    std::remove(trace.c_str());
}

TEST(Cli, ExplicitTopologyRefinesThePresetTopology)
{
    // mc-corner's curated placement (one controller on tile 0) carries
    // over to a bigger mesh ...
    const Result corner = run("synth --preset mc-corner --mesh 8x8 "
                              "--protocol MESI --ops 256");
    EXPECT_EQ(corner.status, 0) << corner.out;
    EXPECT_NE(corner.out.find(" on 8x8+mc:0 ("), std::string::npos)
        << corner.out;
    // ... while hotset64's default 8x8 placement becomes the default
    // placement of the new mesh.
    const Result hot = run("synth --preset hotset64 --mesh 4x4 "
                           "--protocol MESI --ops 256");
    EXPECT_EQ(hot.status, 0) << hot.out;
    EXPECT_NE(hot.out.find(" on 4x4 ("), std::string::npos) << hot.out;
    // Parameter flags win over the preset in either order.
    for (const char *args : {"--preset hotset64 --ops 128",
                             "--ops 128 --preset hotset64"}) {
        const Result r = run(std::string("synth ") + args +
                             " --mesh 4x4 --protocol MESI");
        EXPECT_EQ(r.status, 0) << r.out;
        EXPECT_NE(r.out.find("ops/core=128 "), std::string::npos)
            << args << ": " << r.out;
    }
}

TEST(Cli, RepeatedProtocolRunsEach)
{
    const Result r =
        run("synth --mesh 2x2 --ops 256 --protocol MESI --protocol DeNovo");
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("\nMESI "), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("\nDeNovo "), std::string::npos) << r.out;
}

TEST(Cli, MalformedShardIsRejected)
{
    for (const char *spec : {"2/2", "0/0", "a/1", "1/"})
        EXPECT_TRUE(failsWith(run(std::string("sweep --mesh 2x2 --shard ") +
                                  spec),
                              "--shard needs I/N"))
            << spec;
}

TEST(Cli, ExclusiveTopologyFlagsAreRejected)
{
    EXPECT_TRUE(failsWith(run("record --bench LU --mcs 2 --mc-tiles 0 "
                              "--out cli_never.trc"),
                          "--mcs and --mc-tiles are mutually exclusive"));
    EXPECT_TRUE(failsWith(run("synth --preset mc-corner --mcs 2 "
                              "--mc-tiles 0 --protocol MESI"),
                          "--mcs and --mc-tiles are mutually exclusive"));
    EXPECT_TRUE(failsWith(run("sweep --mesh 2x2 --mesh-list 2x2,4x4"),
                          "sweep: --mesh and --mesh-list are mutually "
                          "exclusive"));
}

TEST(Cli, RequiredFlagMessages)
{
    const std::pair<const char *, const char *> cases[] = {
        {"record --out x.trc", "record: --bench is required"},
        {"record --bench LU", "record: --out is required"},
        {"cell --protocol MESI --out x.cell", "cell: --bench is required"},
        {"cell --bench LU --out x.cell", "cell: --protocol is required"},
        {"cell --bench LU --protocol MESI", "cell: --out is required"},
        {"replay --protocol MESI", "replay: --trace is required"},
        {"info", "info: --trace is required"},
        {"merge a.cache", "merge: --out is required"},
        {"merge --out x.cache", "merge: no input caches given"},
        {"fuzzone --out x.out", "fuzzone: --scenario is required"},
        {"fuzzone --scenario x", "fuzzone: --out is required"},
    };
    for (const auto &[args, msg] : cases)
        EXPECT_TRUE(failsWith(run(args), msg)) << args;
}

TEST(Cli, OutOfRangeValuesAreRejected)
{
    EXPECT_TRUE(failsWith(run("sweep --jobs 0"),
                          "sweep: --jobs needs a value in [1, 1024]"));
    EXPECT_TRUE(failsWith(run("record --bench LU --scale -1 --out x.trc"),
                          "--scale needs an unsigned integer"));
}

TEST(Cli, FloatFlagsRejectNanAndEmptyValues)
{
    // The report compares a bench file with itself, so any accepted
    // tolerance exits 0: a NaN one would switch the gate off.
    const std::string bench = "report --report bench --in " WASTESIM_SOURCE_DIR
                              "/BENCH_kernel.json --baseline "
                              WASTESIM_SOURCE_DIR "/BENCH_kernel.json";
    EXPECT_EQ(run(bench + " --tolerance 0.25").status, 0);
    EXPECT_TRUE(failsWith(run(bench + " --tolerance nan"), "--tolerance"));
    EXPECT_TRUE(failsWith(run(bench + " --tolerance ''"), "--tolerance"));
    EXPECT_TRUE(failsWith(run("fuzz --runs 0 --time-budget nan"),
                          "--time-budget"));
}

TEST(Cli, SupervisorFlagsNeedSupervise)
{
    for (const char *flag : {"--max-retries 1", "--retry-backoff-ms 1",
                             "--cell-deadline-ms 1", "--fault-seed 1"})
        EXPECT_TRUE(failsWith(run(std::string("sweep --mesh 2x2 ") + flag,
                                  "WASTESIM_NO_CACHE=1"),
                              "needs --supervise N"))
            << flag;
}

TEST(Cli, CommandHelpListsOnlyItsOwnFlags)
{
    const std::set<std::string> cell = words(run("cell --help").out);
    EXPECT_TRUE(cell.count("--mcs"));
    EXPECT_TRUE(cell.count("--fault-attempt"));
    const std::set<std::string> record = words(run("record --help").out);
    EXPECT_TRUE(record.count("--bench"));
    EXPECT_FALSE(record.count("--supervise"));
    EXPECT_FALSE(record.count("--protocol"));

    const Result all = run("help");
    EXPECT_EQ(all.status, 0) << all.out;
    EXPECT_EQ(all.out.rfind("usage: ", 0), 0u) << all.out;
    const std::set<std::string> listed = words(all.out);
    for (const char *sub : subcommands)
        EXPECT_TRUE(listed.count(sub)) << sub;
}

TEST(Cli, ReadmeCommandLinesUseOnlyFlagsTheirHelpNames)
{
    std::ifstream readme(WASTESIM_SOURCE_DIR "/README.md");
    ASSERT_TRUE(readme);
    std::map<std::string, std::set<std::string>> help;
    std::size_t checked = 0;
    bool in_code = false;
    std::string line, joined;
    while (std::getline(readme, line)) {
        if (line.rfind("```", 0) == 0) {
            in_code = !in_code;
            continue;
        }
        if (!in_code)
            continue;
        joined += line;
        if (!joined.empty() && joined.back() == '\\') {
            joined.pop_back();
            continue;
        }
        const std::size_t at = joined.find("./build/wastesim ");
        if (at != std::string::npos) {
            std::istringstream in(joined.substr(at));
            std::string word, cmd;
            in >> word >> cmd;
            if (!help.count(cmd))
                help[cmd] = words(run(cmd + " --help").out);
            while (in >> word && word[0] != '#') {
                const bool is_flag =
                    word.size() > 1 && word[0] == '-' &&
                    std::isalpha(static_cast<unsigned char>(
                        word[word[1] == '-' ? 2 : 1]));
                EXPECT_TRUE(!is_flag || help[cmd].count(word))
                    << cmd << " --help does not name " << word
                    << " (README: " << joined << ")";
            }
            ++checked;
        }
        joined.clear();
    }
    EXPECT_GT(checked, 0u);
}
