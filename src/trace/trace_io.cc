#include "trace/trace_io.hh"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/topology.hh"

namespace wastesim
{

namespace
{

constexpr char traceMagic[8] = {'W', 'A', 'S', 'T', 'E', 'T', 'R', 'C'};
constexpr char traceTrailer[8] = {'W', 'T', 'R', 'C', 'E', 'N', 'D', '.'};

/** Sanity caps so corrupt counts fail parsing instead of allocating. */
constexpr std::uint64_t maxRegionsOrBarriers = 1ULL << 24;
constexpr std::uint64_t maxBarrierEntries = 1ULL << 24;
constexpr std::uint64_t maxOpsPerCore = 1ULL << 32;
constexpr std::uint32_t maxCores = 1u << 16;

} // namespace

// --- TraceWriter ------------------------------------------------------------

void
TraceWriter::u8(std::uint8_t v)
{
    os_.put(static_cast<char>(v));
}

void
TraceWriter::u32(std::uint32_t v)
{
    char buf[4];
    for (int i = 0; i < 4; ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os_.write(buf, 4);
}

void
TraceWriter::u64(std::uint64_t v)
{
    char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os_.write(buf, 8);
}

void
TraceWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    os_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool
TraceWriter::ok() const
{
    return static_cast<bool>(os_);
}

void
TraceWriter::writeHeader(const TraceHeader &h)
{
    os_.write(traceMagic, sizeof(traceMagic));
    u32(h.version);
    u32(h.numCores);
    // v1 writing survives for the backward-compat tests; TraceRecorder
    // always emits the current (geometry-carrying) version.
    if (h.version >= 2) {
        u32(h.meshX);
        u32(h.meshY);
        u32(static_cast<std::uint32_t>(h.mcTiles.size()));
        for (std::uint32_t t : h.mcTiles)
            u32(t);
    }
    str(h.name);
    str(h.inputDesc);
    u64(h.numRegions);
    u64(h.numBarriers);
    u64(h.totalOps);
}

void
TraceWriter::writeRegion(const Region &r)
{
    str(r.name);
    u64(r.base);
    u64(r.size);
    std::uint8_t flags = 0;
    flags |= r.flex ? 1 : 0;
    flags |= r.bypass ? 2 : 0;
    flags |= r.stream ? 4 : 0;
    u8(flags);
    u32(r.strideWords);
    u32(static_cast<std::uint32_t>(r.usedFields.size()));
    for (unsigned f : r.usedFields)
        u32(f);
}

void
TraceWriter::writeBarrier(const BarrierInfo &b)
{
    u32(static_cast<std::uint32_t>(b.selfInvalidate.size()));
    for (RegionId id : b.selfInvalidate)
        u32(id);
}

void
TraceWriter::writeTrace(const Trace &t)
{
    u64(t.size());
    for (const Op &op : t) {
        u8(static_cast<std::uint8_t>(op.type));
        switch (op.type) {
          case Op::Type::Load:
          case Op::Type::Store:
            u64(op.addr);
            break;
          case Op::Type::Work:
          case Op::Type::Barrier:
          case Op::Type::Epoch:
            u32(op.arg);
            break;
        }
    }
}

void
TraceWriter::writeTrailer()
{
    os_.write(traceTrailer, sizeof(traceTrailer));
    os_.flush();
}

// --- TraceReader ------------------------------------------------------------

bool
TraceReader::fail(const std::string &why)
{
    if (error_.empty())
        error_ = why;
    return false;
}

bool
TraceReader::u8(std::uint8_t &v)
{
    char c;
    if (!is_.get(c))
        return fail("unexpected end of file");
    v = static_cast<std::uint8_t>(c);
    return true;
}

bool
TraceReader::u32(std::uint32_t &v)
{
    char buf[4];
    if (!is_.read(buf, 4))
        return fail("unexpected end of file");
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[i]))
             << (8 * i);
    return true;
}

bool
TraceReader::u64(std::uint64_t &v)
{
    char buf[8];
    if (!is_.read(buf, 8))
        return fail("unexpected end of file");
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
             << (8 * i);
    return true;
}

bool
TraceReader::str(std::string &s)
{
    std::uint32_t len = 0;
    if (!u32(len))
        return false;
    if (len > (1u << 20))
        return fail("implausible string length");
    s.resize(len);
    if (len > 0 && !is_.read(s.data(), len))
        return fail("unexpected end of file in string");
    return true;
}

bool
TraceReader::readHeader(TraceHeader &h)
{
    char magic[sizeof(traceMagic)];
    if (!is_.read(magic, sizeof(magic)))
        return fail("file too short for magic");
    if (std::string(magic, sizeof(magic)) !=
        std::string(traceMagic, sizeof(traceMagic)))
        return fail("not a wastesim trace (bad magic)");
    if (!u32(h.version))
        return false;
    if (h.version < 1 || h.version > traceFormatVersion)
        return fail("unsupported trace version " +
                    std::to_string(h.version));
    if (!u32(h.numCores))
        return false;
    h.meshX = h.meshY = 0;
    h.mcTiles.clear();
    if (h.version >= 2) {
        std::uint32_t num_mcs = 0;
        if (!u32(h.meshX) || !u32(h.meshY) || !u32(num_mcs))
            return false;
        if (h.meshX == 0 || h.meshY == 0 ||
            h.meshX > Topology::maxDim || h.meshY > Topology::maxDim ||
            h.meshX * h.meshY > maxTiles)
            return fail("trace records an out-of-range mesh " +
                        std::to_string(h.meshX) + "x" +
                        std::to_string(h.meshY));
        if (h.meshX * h.meshY != h.numCores)
            return fail("trace geometry " + std::to_string(h.meshX) +
                        "x" + std::to_string(h.meshY) +
                        " disagrees with its core count " +
                        std::to_string(h.numCores));
        if (num_mcs == 0 || num_mcs > h.numCores)
            return fail("implausible memory-controller count " +
                        std::to_string(num_mcs));
        h.mcTiles.resize(num_mcs);
        for (auto &t : h.mcTiles) {
            if (!u32(t))
                return false;
            if (t >= h.numCores)
                return fail("memory-controller tile " +
                            std::to_string(t) + " outside the mesh");
        }
        auto sorted = h.mcTiles;
        std::sort(sorted.begin(), sorted.end());
        if (std::adjacent_find(sorted.begin(), sorted.end()) !=
            sorted.end())
            return fail("duplicate memory-controller tile in header");
    }
    if (!str(h.name) || !str(h.inputDesc) || !u64(h.numRegions) ||
        !u64(h.numBarriers) || !u64(h.totalOps))
        return false;
    // Matching the geometry against the active topology happens in
    // TraceWorkload::load(), which knows the target Topology; here we
    // only reject counts no topology could satisfy.
    if (h.numCores == 0 || h.numCores > maxCores)
        return fail("implausible core count " +
                    std::to_string(h.numCores));
    if (h.numRegions > maxRegionsOrBarriers ||
        h.numBarriers > maxRegionsOrBarriers)
        return fail("implausible section size in header");
    return true;
}

bool
TraceReader::readRegion(Region &r)
{
    r = Region{};
    if (!str(r.name) || !u64(r.base) || !u64(r.size))
        return false;
    std::uint8_t flags = 0;
    if (!u8(flags))
        return false;
    if (flags & ~0x7u)
        return fail("unknown region flags in '" + r.name + "'");
    r.flex = flags & 1;
    r.bypass = flags & 2;
    r.stream = flags & 4;
    std::uint32_t stride = 0, nfields = 0;
    if (!u32(stride) || !u32(nfields))
        return false;
    if (nfields > maxWordsPerMsg * 64)
        return fail("implausible used-field count in '" + r.name + "'");
    r.strideWords = stride;
    r.usedFields.resize(nfields);
    for (auto &f : r.usedFields) {
        std::uint32_t v = 0;
        if (!u32(v))
            return false;
        f = v;
    }
    // Mirror RegionTable::add()'s invariants so malformed input gets
    // the loader's error path, not a panic() when the table rebuilds.
    if (r.size == 0)
        return fail("empty region '" + r.name + "'");
    if (r.base % bytesPerWord != 0)
        return fail("region base not word aligned in '" + r.name +
                    "'");
    if (r.flex) {
        if (r.strideWords == 0 || r.usedFields.empty())
            return fail("malformed flex region '" + r.name + "'");
        for (unsigned f : r.usedFields)
            if (f >= r.strideWords)
                return fail("used field beyond stride in '" + r.name +
                            "'");
    }
    return true;
}

bool
TraceReader::readBarrier(BarrierInfo &b, std::uint64_t num_regions)
{
    b = BarrierInfo{};
    std::uint32_t n = 0;
    if (!u32(n))
        return false;
    if (n > maxBarrierEntries)
        return fail("implausible barrier entry count");
    b.selfInvalidate.resize(n);
    for (auto &id : b.selfInvalidate) {
        std::uint32_t v = 0;
        if (!u32(v))
            return false;
        if (v >= num_regions)
            return fail("barrier self-invalidates unknown region " +
                        std::to_string(v));
        id = v;
    }
    return true;
}

bool
TraceReader::readTrace(Trace &t, std::uint64_t num_barriers)
{
    t = Trace{};
    std::uint64_t n = 0;
    if (!u64(n))
        return false;
    if (n > maxOpsPerCore)
        return fail("implausible op count");
    // The stream grows only as ops are read, so a corrupt count hits
    // end-of-file before it can cause a large allocation.
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint8_t type = 0;
        if (!u8(type))
            return false;
        Op op;
        switch (static_cast<Op::Type>(type)) {
          case Op::Type::Load:
          case Op::Type::Store:
            op.type = static_cast<Op::Type>(type);
            if (!u64(op.addr))
                return false;
            break;
          case Op::Type::Work:
          case Op::Type::Barrier:
          case Op::Type::Epoch:
            op.type = static_cast<Op::Type>(type);
            if (!u32(op.arg))
                return false;
            if (op.type == Op::Type::Barrier && op.arg >= num_barriers)
                return fail("op references unknown barrier " +
                            std::to_string(op.arg));
            break;
          default:
            return fail("unknown op type " + std::to_string(type));
        }
        t.push_back(op);
    }
    return true;
}

bool
TraceReader::readTrailer()
{
    char trailer[sizeof(traceTrailer)];
    if (!is_.read(trailer, sizeof(trailer)))
        return fail("truncated trace (missing trailer)");
    if (std::string(trailer, sizeof(trailer)) !=
        std::string(traceTrailer, sizeof(traceTrailer)))
        return fail("corrupt trace (bad trailer)");
    return true;
}

} // namespace wastesim
