/** Unit tests: the threaded runSweep pool. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "system/runner.hh"
#include "trace/synthetic.hh"

namespace wastesim
{

namespace
{

/** RAII environment variable override. */
class EnvVar
{
  public:
    EnvVar(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvVar()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_, old_;
    bool had_;
};

} // namespace

TEST(RunSweep, WorkloadOverloadKeepsFigureOrder)
{
    // A degenerate grid (no workloads) still carries protocol names
    // in figure order; exercises the thread-pool path cheaply.
    const Sweep s = runSweep(std::vector<const Workload *>{},
                             {ProtocolName::MESI, ProtocolName::DeNovo},
                             SimParams::scaled());
    ASSERT_EQ(s.protoNames.size(), 2u);
    EXPECT_EQ(s.protoNames[0], "MESI");
    EXPECT_EQ(s.protoNames[1], "DeNovo");
    EXPECT_TRUE(s.benchNames.empty());
    EXPECT_TRUE(s.results.empty());
}

TEST(RunSweep, ParallelMatchesSerial)
{
    // The pool must not change results, only wall-clock: a sweep at
    // WASTESIM_JOBS=4 is cell-for-cell identical to WASTESIM_JOBS=1.
    SynthParams p;
    p.opsPerCore = 400;
    p.phases = 2;
    auto wa = makeSynthetic(p);
    p.seed = 2;
    auto wb = makeSynthetic(p);
    const std::vector<const Workload *> workloads{wa.get(), wb.get()};
    const std::vector<ProtocolName> protos{ProtocolName::MESI,
                                           ProtocolName::DBypFull};

    Sweep serial, parallel;
    {
        EnvVar jobs("WASTESIM_JOBS", "1");
        serial = runSweep(workloads, protos, SimParams::scaled());
    }
    {
        EnvVar jobs("WASTESIM_JOBS", "4");
        parallel = runSweep(workloads, protos, SimParams::scaled());
    }

    ASSERT_EQ(serial.benchNames, parallel.benchNames);
    ASSERT_EQ(serial.protoNames, parallel.protoNames);
    for (std::size_t b = 0; b < serial.results.size(); ++b) {
        for (std::size_t pr = 0; pr < serial.results[b].size(); ++pr) {
            const RunResult &x = serial.results[b][pr];
            const RunResult &y = parallel.results[b][pr];
            EXPECT_EQ(x.cycles, y.cycles) << b << "," << pr;
            EXPECT_EQ(x.traffic.total(), y.traffic.total())
                << b << "," << pr;
            EXPECT_EQ(x.messages, y.messages) << b << "," << pr;
        }
    }
}

} // namespace wastesim
