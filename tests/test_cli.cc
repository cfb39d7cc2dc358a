/** CLI tests: run the built `wastesim` binary and check its exit
 *  status and output. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace
{

struct Result
{
    int status = -1; //!< exit status, or -1 if it did not exit
    std::string out; //!< stdout and stderr, interleaved
};

/** Run `wastesim ARGS` through the shell. */
Result
run(const std::string &args)
{
    const std::string cmd =
        std::string(WASTESIM_BINARY_DIR "/wastesim ") + args + " 2>&1";
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
