#include "system/paper_claims.hh"

#include <cmath>
#include <cstring>

#include "common/log.hh"
#include "common/stats.hh"
#include "metrics/run_result_schema.hh"

namespace wastesim
{

namespace
{

PaperClaim
reduction(const char *figure, const char *label, double paper,
          const char *metric, const char *from, const char *to,
          const char *bench = nullptr)
{
    return {figure, label, paper, ClaimShape::Reduction, metric,
            nullptr, from, to, bench, false};
}

PaperClaim
share(const char *figure, const char *label, double paper,
      const char *part, const char *whole, const char *protocol)
{
    return {figure, label, paper, ClaimShape::Share, part,
            whole, protocol, nullptr, nullptr, false};
}

PaperClaim
headline(PaperClaim c)
{
    c.headline = true;
    return c;
}

const std::vector<PaperClaim> claims{
    // Abstract and Section 5.1: the headline averages.
    headline(reduction("fig5.1a", "DBypFull traffic vs MESI", 0.395,
                       "traffic.total", "MESI", "DBypFull")),
    headline(reduction("fig5.1a", "DBypFull traffic vs MMemL1", 0.352,
                       "traffic.total", "MMemL1", "DBypFull")),
    headline(reduction("fig5.1a", "DBypFull traffic vs DFlexL1", 0.189,
                       "traffic.total", "DFlexL1", "DBypFull")),
    headline(reduction("fig5.2", "DBypFull exec time vs MESI", 0.105,
                       "time.total", "MESI", "DBypFull")),
    headline(reduction("fig5.1a", "MMemL1 traffic vs MESI", 0.062,
                       "traffic.total", "MESI", "MMemL1")),
    headline(share("overhead", "MESI overhead fraction", 0.136,
                   "traffic.oh.total", "traffic.total", "MESI")),
    headline(share("fig5.1a", "DBypFull waste fraction", 0.088,
                   "traffic.waste_data", "traffic.total", "DBypFull")),

    // Fig. 5.1b: Flex responses on the two irregular-field inputs.
    reduction("fig5.1b", "DFlexL1 LD traffic vs DeNovo (barnes)", 0.32,
              "traffic.ld.total", "DeNovo", "DFlexL1", "barnes"),
    reduction("fig5.1b", "DFlexL1 LD traffic vs DeNovo (kD-tree)", 0.44,
              "traffic.ld.total", "DeNovo", "DFlexL1", "kD-tree"),
    // Fig. 5.1c: MMemL1 removes MESI's L2 store data responses.
    reduction("fig5.1c", "MMemL1 ST traffic vs MESI", 0.169,
              "traffic.st.total", "MESI", "MMemL1"),
    // Fig. 5.1d: dirty-words-only writebacks, L1->L2 then L2->memory.
    reduction("fig5.1d", "DeNovo WB traffic vs MESI", 0.159,
              "traffic.wb.total", "MESI", "DeNovo"),
    reduction("fig5.1d", "DValidateL2 WB traffic vs MESI", 0.215,
              "traffic.wb.total", "MESI", "DValidateL2"),
    // Fig. 5.2.
    reduction("fig5.2", "DBypFull exec time vs DFlexL1", 0.086,
              "time.total", "DFlexL1", "DBypFull"),
    reduction("fig5.2", "MMemL1 exec time vs MESI", 0.038, "time.total",
              "MESI", "MMemL1"),
    // Figs. 5.3a-c: words fetched into each level.
    reduction("fig5.3a", "DBypFull L1 words fetched vs MESI", 0.398,
              "waste.l1.total", "MESI", "DBypFull"),
    reduction("fig5.3b", "DBypFull L2 words fetched vs MESI", 0.65,
              "waste.l2.total", "MESI", "DBypFull"),
    reduction("fig5.3c", "DValidateL2 memory words fetched vs MESI",
              0.189, "waste.mem.total", "MESI", "DValidateL2"),
    // Section 5.2.4: what MESI's overhead traffic is made of.
    share("overhead", "MESI unblock share of overhead", 0.653,
          "traffic.oh.unblock", "traffic.oh.total", "MESI"),
    share("overhead", "MESI WB control share of overhead", 0.261,
          "traffic.oh.wb_ctl", "traffic.oh.total", "MESI"),
    share("overhead", "MESI invalidation share of overhead", 0.044,
          "traffic.oh.inv", "traffic.oh.total", "MESI"),
    share("overhead", "MESI ack share of overhead", 0.043,
          "traffic.oh.ack", "traffic.oh.total", "MESI"),
    reduction("overhead", "MMemL1 overhead traffic vs MESI", 0.158,
              "traffic.oh.total", "MESI", "MMemL1"),
    share("overhead", "DBypFull Bloom share of traffic", 0.005,
          "traffic.oh.bloom", "traffic.total", "DBypFull"),
};

/** Value of one registered RunResult metric. */
double
metricValue(const RunResult &r, const char *path)
{
    for (const RunResultField &f : runResultFields())
        if (std::strcmp(path, f.path) == 0)
            return f.getF(r);
    for (const DerivedMetric &d : runResultDerivedMetrics())
        if (std::strcmp(path, d.path) == 0)
            return d.compute(r);
    panic("paper claim reads unknown metric '%s'", path);
}

/** Index of a protocol in the sweep, or -1. */
int
protoIndex(const Sweep &s, const char *name)
{
    for (std::size_t i = 0; i < s.protoNames.size(); ++i)
        if (s.protoNames[i] == name)
            return static_cast<int>(i);
    return -1;
}

} // namespace

const std::vector<PaperClaim> &
paperClaims()
{
    return claims;
}

std::optional<double>
measureClaim(const PaperClaim &c, const Sweep &s)
{
    const bool reduce = c.shape == ClaimShape::Reduction;
    const int from = protoIndex(s, c.from);
    const int to = reduce ? protoIndex(s, c.to) : from;
    if (from < 0 || to < 0)
        return std::nullopt;

    std::vector<double> xs;
    for (std::size_t b = 0; b < s.results.size(); ++b) {
        if ((c.bench && s.benchNames[b] != c.bench) ||
            s.holeAt(b, static_cast<std::size_t>(from)) ||
            s.holeAt(b, static_cast<std::size_t>(to)))
            continue;
        const double m = metricValue(s.results[b][from], c.metric);
        if (reduce) {
            const double m_to = metricValue(s.results[b][to], c.metric);
            if (m > 0)
                xs.push_back(1.0 - m_to / m);
        } else {
            const double whole = metricValue(s.results[b][from], c.whole);
            xs.push_back(whole == 0 ? 0.0 : m / whole);
        }
    }
    return xs.empty() ? std::nan("") : mean(xs);
}

} // namespace wastesim
