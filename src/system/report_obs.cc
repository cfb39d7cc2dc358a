#include "system/report_obs.hh"

#include <cmath>
#include <limits>

namespace wastesim
{

Figure
buildTimelineFigure(const SampleData &d)
{
    Figure f;
    f.id = "timeline";
    f.title = "Windowed counter time series (window = " +
              std::to_string(d.windowTicks) + " ticks)";
    f.unit = "per window (cumulative series: delta; gauges: level)";

    FigureTable t;
    t.percent = false;
    t.labelCols = {"window", "start", "end"};
    for (const SampleSeriesDesc &s : d.series)
        t.valueCols.push_back(s.path);
    for (std::size_t i = 0; i < d.windows.size(); ++i) {
        const SampleWindow &w = d.windows[i];
        FigureRow row;
        row.labels = {std::to_string(i), std::to_string(w.start),
                      std::to_string(w.end)};
        row.values = w.values;
        t.rows.push_back(std::move(row));
    }
    f.tables.push_back(std::move(t));
    return f;
}

namespace
{

void
upsertRate(std::vector<std::pair<std::string, double>> &out,
           const std::string &label, double rate)
{
    for (auto &[l, r] : out) {
        if (l == label) {
            r = rate; // keep-last: before/after resolves to after
            return;
        }
    }
    out.emplace_back(label, rate);
}

void
walkRates(const JsonValue &v, const std::string &chain,
          std::vector<std::pair<std::string, double>> &out)
{
    if (v.isArray()) {
        for (const JsonValue &item : v.items)
            walkRates(item, chain, out);
        return;
    }
    if (!v.isObject())
        return;
    const JsonValue *eps = v.find("events_per_sec");
    if (eps && eps->isNumber()) {
        std::string label;
        for (const char *k : {"protocol", "benchmark", "mesh"}) {
            const JsonValue *m = v.find(k);
            if (m && m->isString()) {
                if (!label.empty())
                    label += "/";
                label += m->str;
            }
        }
        if (label.empty())
            label = chain.empty() ? "root" : chain;
        upsertRate(out, label, eps->number);
    }
    for (const auto &[key, member] : v.members)
        walkRates(member, chain.empty() ? key : chain + "." + key,
                  out);
}

} // namespace

std::vector<std::pair<std::string, double>>
extractBenchRates(const JsonValue &doc)
{
    std::vector<std::pair<std::string, double>> out;
    walkRates(doc, "", out);
    return out;
}

Figure
buildBenchFigure(const JsonValue &current, const JsonValue *baseline,
                 double tolerance, bool &regressed)
{
    regressed = false;
    const auto cur = extractBenchRates(current);
    std::vector<std::pair<std::string, double>> base;
    if (baseline)
        base = extractBenchRates(*baseline);

    Figure f;
    f.id = "bench";
    f.title = baseline ? "Benchmark throughput vs. baseline"
                       : "Benchmark throughput";
    f.unit = "events/sec";
    if (cur.empty()) {
        f.note = "no events_per_sec samples found in the input";
        return f;
    }

    FigureTable t;
    t.percent = false;
    t.labelCols = {"bench"};
    t.valueCols = {"events/sec"};
    if (baseline) {
        t.valueCols.push_back("baseline");
        t.valueCols.push_back("ratio");
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const auto &[label, rate] : cur) {
        FigureRow row;
        row.labels = {label};
        row.values = {rate};
        if (baseline) {
            double ref = nan;
            for (const auto &[bl, br] : base)
                if (bl == label)
                    ref = br;
            double ratio = nan;
            if (!std::isnan(ref) && ref > 0) {
                ratio = rate / ref;
                if (ratio < 1.0 - tolerance)
                    regressed = true;
            }
            row.values.push_back(ref);
            row.values.push_back(ratio);
        }
        t.rows.push_back(std::move(row));
    }
    f.tables.push_back(std::move(t));
    return f;
}

} // namespace wastesim
