#include "system/supervisor.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/rng.hh"
#include "system/worker_pool.hh"

namespace wastesim
{

namespace
{

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Seed for the per-(cell, attempt) deterministic draws. */
std::uint64_t
mixSeed(std::uint64_t seed, const std::string &cell_id,
        unsigned attempt)
{
    return fnv1a64(cell_id) ^ (seed * 0x9e3779b97f4a7c15ULL) ^
           (static_cast<std::uint64_t>(attempt) *
            0xbf58476d1ce4e5b9ULL);
}

} // namespace

// --- FaultSpec --------------------------------------------------------------

std::string
FaultSpec::describe() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "crash:%g,hang:%g,corrupt:%g",
                  crash, hang, corrupt);
    return buf;
}

bool
FaultSpec::parse(const std::string &spec, FaultSpec &out,
                 std::string *err)
{
    FaultSpec f;
    bool seen_crash = false, seen_hang = false, seen_corrupt = false;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos) {
            if (err)
                *err = "fault spec item '" + item +
                       "' is not NAME:PROB";
            return false;
        }
        const std::string name = item.substr(0, colon);
        const std::string pstr = item.substr(colon + 1);
        char *end = nullptr;
        const double p = std::strtod(pstr.c_str(), &end);
        // Negated >=/<= form so NaN is rejected too, and an explicit
        // empty check: strtod("") "consumes" the whole empty string,
        // which the end-pointer test alone would accept as 0.
        if (pstr.empty() || end != pstr.c_str() + pstr.size() ||
            !(p >= 0 && p <= 1)) {
            if (err)
                *err = "fault probability '" + pstr +
                       "' is not in [0, 1]";
            return false;
        }
        bool *seen = nullptr;
        if (name == "crash") {
            f.crash = p;
            seen = &seen_crash;
        } else if (name == "hang") {
            f.hang = p;
            seen = &seen_hang;
        } else if (name == "corrupt") {
            f.corrupt = p;
            seen = &seen_corrupt;
        } else {
            if (err)
                *err = "unknown fault kind '" + name +
                       "' (crash, hang, corrupt)";
            return false;
        }
        if (*seen) {
            if (err)
                *err = "duplicate fault kind '" + name + "'";
            return false;
        }
        *seen = true;
    }
    if (f.crash + f.hang + f.corrupt > 1.0) {
        if (err)
            *err = "fault probabilities sum to more than 1";
        return false;
    }
    out = f;
    return true;
}

FaultKind
faultDraw(const FaultSpec &faults, std::uint64_t seed,
          const std::string &cell_id, unsigned attempt)
{
    if (!faults.any())
        return FaultKind::None;
    Rng rng(mixSeed(seed, cell_id, attempt));
    const double u = rng.real();
    if (u < faults.crash) {
        // The crash flavor varies deterministically so every kill
        // path (signal death, kill -9, spurious exit) gets exercised.
        switch (rng.below(3)) {
          case 0:
            return FaultKind::CrashSegv;
          case 1:
            return FaultKind::CrashKill;
          default:
            return FaultKind::CrashExit;
        }
    }
    if (u < faults.crash + faults.hang)
        return FaultKind::Hang;
    if (u < faults.crash + faults.hang + faults.corrupt)
        return FaultKind::Corrupt;
    return FaultKind::None;
}

// --- worker hand-off --------------------------------------------------------

std::string
formatWorkerOutput(const std::string &cell_id, const RunResult &r)
{
    std::ostringstream os;
    os.precision(17);
    os << cell_id << '\n' << r.eventsExecuted << '\n';
    writeRunResult(os, r);
    return formatHandoff(cellOutputMagic, os.str());
}

void
corruptWorkerOutput(std::string &file_bytes, std::uint64_t seed,
                    unsigned attempt)
{
    const std::size_t hdr = file_bytes.find('\n');
    if (hdr == std::string::npos || hdr + 1 >= file_bytes.size())
        return;
    const std::size_t base = hdr + 1;
    const std::size_t span = file_bytes.size() - base;
    Rng rng(mixSeed(seed ^ 0xC02259F7u, "corrupt", attempt));
    const unsigned flips = 1 + static_cast<unsigned>(rng.below(4));
    // Any payload flip breaks the header CRC; XOR is never a no-op.
    for (unsigned i = 0; i < flips; ++i)
        file_bytes[base + rng.below(span)] ^=
            static_cast<char>(0xA5);
}

bool
parseWorkerOutput(const std::string &payload,
                  const std::string &expect_cell_id, RunResult &out,
                  std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    const std::size_t nl = payload.find('\n');
    if (nl == std::string::npos)
        return fail("output payload has no cell key line");
    const std::string id = payload.substr(0, nl);
    if (id != expect_cell_id)
        return fail("output is for cell '" + id + "', expected '" +
                    expect_cell_id + "'");
    std::istringstream bs(payload.substr(nl + 1));
    std::uint64_t events = 0;
    if (!(bs >> events) || !readRunResult(bs, out))
        return fail("unparseable result block");
    out.eventsExecuted = events;
    return true;
}

// --- retry policy -----------------------------------------------------------

std::uint64_t
retryBackoffMs(const SupervisorConfig &cfg, const std::string &cell_id,
               unsigned failed_attempt)
{
    const unsigned exp = std::min(failed_attempt, 6u);
    const double base = static_cast<double>(cfg.backoffBaseMs) *
                        static_cast<double>(1u << exp);
    // Deterministic jitter in [0.5, 1.5): spreads retry bursts
    // without making reruns behave differently.
    Rng rng(mixSeed(cfg.faultSeed ^ 0xB0FF5EEDu, cell_id,
                    failed_attempt));
    return static_cast<std::uint64_t>(
        std::max(1.0, base * (0.5 + rng.real())));
}

} // namespace wastesim
