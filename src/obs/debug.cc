#include "obs/debug.hh"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace wastesim
{
namespace debug
{

Flag Mesi{"mesi", "MESI directory transactions and recalls"};
Flag DeNovo{"denovo", "DeNovo L2 registrations and recalls"};
Flag Noc{"noc", "network sends with route and flit counts"};
Flag Dram{"dram", "DRAM request issue with row-buffer outcome"};
Flag Queue{"queue", "event-queue occupancy milestones"};
Flag Sweep{"sweep", "sweep-engine cell lifecycle (wall clock)"};
Flag Supervisor{"supervisor",
                "worker-pool spawn/reap/retry decisions"};

Tick windowStart = 0;
Tick windowEnd = ~Tick(0);

std::function<void(const std::string &)> sink;

const std::vector<Flag *> &
allFlags()
{
    static const std::vector<Flag *> flags{
        &Mesi, &DeNovo, &Noc, &Dram, &Queue, &Sweep, &Supervisor};
    return flags;
}

std::string
flagList()
{
    std::string out;
    for (const Flag *f : allFlags()) {
        if (!out.empty())
            out += ", ";
        out += f->name;
    }
    return out;
}

void
clearFlags()
{
    for (Flag *f : allFlags())
        f->enabled = false;
    windowStart = 0;
    windowEnd = ~Tick(0);
}

bool
setFlags(const std::string &csv, std::string *err)
{
    for (Flag *f : allFlags())
        f->enabled = false;
    std::size_t pos = 0;
    while (pos < csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string name = csv.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        if (name == "all") {
            for (Flag *f : allFlags())
                f->enabled = true;
            continue;
        }
        bool found = false;
        for (Flag *f : allFlags()) {
            if (name == f->name) {
                f->enabled = true;
                found = true;
                break;
            }
        }
        if (!found) {
            if (err)
                *err = "unknown debug flag '" + name +
                       "' (flags: " + flagList() + ")";
            for (Flag *f : allFlags())
                f->enabled = false;
            return false;
        }
    }
    return true;
}

namespace
{

void
emit(const std::string &line)
{
    if (sink) {
        sink(line);
        return;
    }
    std::fputs(line.c_str(), stderr);
}

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    if (n < 0) {
        va_end(ap2);
        return fmt;
    }
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<std::size_t>(n));
}

} // namespace

void
print(const Flag &f, Tick now, const char *fmt, ...)
{
    if (!inWindow(now))
        return;
    va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    char head[48];
    std::snprintf(head, sizeof(head), "%10llu: %s: ",
                  static_cast<unsigned long long>(now), f.name);
    emit(head + msg + "\n");
}

void
printNoTick(const Flag &f, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    emit(std::string(f.name) + ": " + msg + "\n");
}

} // namespace debug
} // namespace wastesim
