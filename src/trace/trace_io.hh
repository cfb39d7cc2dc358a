/**
 * @file
 * Versioned binary trace container for workloads.
 *
 * A trace file captures everything `System` consumes from a
 * `Workload` — the per-core operation streams, the region table and
 * the barrier self-invalidation info — so recorded or externally
 * generated access streams replay through every protocol variant
 * bit-identically.
 *
 * On-disk layout (all integers little-endian, strings u32-length
 * prefixed):
 *
 *   magic      8 bytes  "WASTETRC"
 *   version    u32      currently 2
 *   header     numCores u32, meshX u32, meshY u32,
 *              numMcTiles u32, mcTiles u32[numMcTiles],
 *              name str, inputDesc str,
 *              numRegions u64, numBarriers u64, totalOps u64
 *   regions    numRegions x { name str, base u64, size u64,
 *              flags u8 (bit0 flex, bit1 bypass, bit2 stream),
 *              strideWords u32, usedFields u32[n] (u32 count first) }
 *   barriers   numBarriers x { selfInvalidate u32[n] (u32 count) }
 *   traces     numCores x { numOps u64, ops... } where an op is
 *              type u8 followed by addr u64 (Load/Store) or
 *              arg u32 (Work/Barrier/Epoch)
 *   trailer    8 bytes  "WTRCEND."
 *
 * The trailer guards against truncated files; every section is
 * validated on read (op types, barrier indices, core count).
 *
 * Version history:
 *   1  core count only; the mesh shape and memory-controller
 *      placement were not captured.  No longer readable.
 *   2  full geometry (mesh dims + MC tile list): traces are
 *      self-describing and TraceWorkload::load() validates the
 *      complete topology, not just the core count.
 */

#ifndef WASTESIM_TRACE_TRACE_IO_HH
#define WASTESIM_TRACE_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/region_table.hh"
#include "workload/workload.hh"

namespace wastesim
{

/** The trace format version written and read. */
constexpr std::uint32_t traceFormatVersion = 2;

/** Trace file metadata. */
struct TraceHeader
{
    std::uint32_t version = traceFormatVersion;
    std::uint32_t numCores = numTiles;

    /** Recorded geometry: mesh dims and memory-controller tiles. */
    std::uint32_t meshX = 0;
    std::uint32_t meshY = 0;
    std::vector<std::uint32_t> mcTiles;

    std::string name;
    std::string inputDesc;
    std::uint64_t numRegions = 0;
    std::uint64_t numBarriers = 0;
    std::uint64_t totalOps = 0;
};

/** Streams a trace file section by section. */
class TraceWriter
{
  public:
    explicit TraceWriter(std::ostream &os) : os_(os) {}

    void writeHeader(const TraceHeader &h);
    void writeRegion(const Region &r);
    void writeBarrier(const BarrierInfo &b);
    void writeTrace(const Trace &t);
    void writeTrailer();

    /** True while no stream error has occurred. */
    bool ok() const;

  private:
    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void str(const std::string &s);

    std::ostream &os_;
};

/**
 * Reads a trace file written by TraceWriter.  Sections must be read
 * in file order; every read returns false on malformed input and
 * records a diagnostic in error().
 */
class TraceReader
{
  public:
    explicit TraceReader(std::istream &is) : is_(is) {}

    bool readHeader(TraceHeader &h);
    bool readRegion(Region &r);
    bool readBarrier(BarrierInfo &b, std::uint64_t num_regions);
    bool readTrace(Trace &t, std::uint64_t num_barriers);
    bool readTrailer();

    const std::string &error() const { return error_; }

  private:
    bool u8(std::uint8_t &v);
    bool u32(std::uint32_t &v);
    bool u64(std::uint64_t &v);
    bool str(std::string &s);
    bool fail(const std::string &why);

    std::istream &is_;
    std::string error_;
};

} // namespace wastesim

#endif // WASTESIM_TRACE_TRACE_IO_HH
