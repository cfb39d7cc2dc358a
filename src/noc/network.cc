#include "noc/network.hh"

#include <algorithm>
#include <numeric>

#include "common/log.hh"
#include "obs/debug.hh"

#ifdef WASTESIM_PLANT_BUG
#include "fuzz/plant_bug.hh"
#endif

namespace wastesim
{

Network::Network(EventQueue &eq, TrafficRecorder &traffic,
                 Tick link_latency, Topology topo)
    : eq_(eq), traffic_(traffic), linkLatency_(link_latency),
      topo_(std::move(topo)), mesh_(topo_),
      handlers_(topo_.numFlatIds(), nullptr),
      linkFlits_(static_cast<std::size_t>(topo_.numTiles()) *
                     topo_.numTiles(),
                 0)
{
}

std::uint64_t
Network::maxLinkFlits() const
{
    return linkFlits_.empty()
        ? 0
        : *std::max_element(linkFlits_.begin(), linkFlits_.end());
}

std::uint64_t
Network::totalLinkFlits() const
{
    return std::accumulate(linkFlits_.begin(), linkFlits_.end(),
                           std::uint64_t{0});
}

std::uint32_t
Network::poolAcquire(Message &&msg)
{
    if (!msgFree_.empty()) {
        const std::uint32_t idx = msgFree_.back();
        msgFree_.pop_back();
        msgPool_[idx] = std::move(msg);
        return idx;
    }
    msgPool_.push_back(std::move(msg));
    return static_cast<std::uint32_t>(msgPool_.size() - 1);
}

Message
Network::poolRelease(std::uint32_t idx)
{
    Message m = std::move(msgPool_[idx]);
    msgFree_.push_back(idx);
    return m;
}

MessageHandler *
Network::handlerFor(const Message &msg) const
{
    MessageHandler *h = handlers_[msg.dst.flatId(topo_)];
    panic_if(!h, "no handler attached for endpoint flatId %u",
             msg.dst.flatId(topo_));
    return h;
}

void
Network::deliverAt(Tick when, Message &&msg)
{
    const std::uint16_t dst_tile = msg.dst.tile(topo_);
    MessageHandler *h = handlerFor(msg);
    const std::uint32_t idx = poolAcquire(std::move(msg));
    eq_.scheduleFor(when, dst_tile, [this, h, idx] {
        h->handle(poolRelease(idx));
    });
}

void
Network::send(Message &&msg)
{
    msg.sentAt = eq_.now();
    ++msgsSent_;

    const unsigned words = msg.words();
    const unsigned data_flits = msg.dataFlits();
    const unsigned total_flits = 1 + data_flits;

    // Walk the XY route once: charge each traversed link and derive
    // the hop count from the same walk (plus the ejection link), so
    // per-link accounting and the latency/flit-hop geometry can never
    // disagree.
    {
        const unsigned tiles = topo_.numTiles();
        Mesh::RouteWalker walk =
            mesh_.route(msg.src.tile(topo_), msg.dst.tile(topo_));
        unsigned hops = 0;
        NodeId prev = walk.current();
        while (walk.advance()) {
            const NodeId cur = walk.current();
            linkFlits_[static_cast<std::size_t>(prev) * tiles + cur] +=
                total_flits;
            prev = cur;
            ++hops;
        }
        // The ejection link into the destination tile.
#ifdef WASTESIM_PLANT_BUG
        // Deliberate, runtime-gated conservation bug for the fuzzer
        // self-test: drop the ejection-link charge of multi-hop
        // messages, so totalLinkFlits() undercounts flitHopsCharged().
        if (!(plantBugEnabled() && hops >= 2))
#endif
            linkFlits_[static_cast<std::size_t>(prev) * tiles + prev] +=
                total_flits;
        msg.hops = static_cast<std::uint16_t>(hops + 1);
    }

    flitHopsCharged_ +=
        static_cast<std::uint64_t>(total_flits) * msg.hops;
    traffic_.addRaw(static_cast<double>(total_flits) * msg.hops);

    // Control flit.
    traffic_.control(msg.cls, msg.ctl, 1.0, msg.hops);

    // Unfilled fraction of the last data flit is charged to the
    // control portion (Section 5.2).
    if (data_flits > 0) {
        const double unfilled =
            data_flits - words / static_cast<double>(wordsPerFlit);
        if (unfilled > 0)
            traffic_.control(msg.cls, msg.ctl, unfilled, msg.hops);
    }

    // Raw (non-cache-word) payloads are pure control-side traffic.
    if (const unsigned raw = msg.chunks.rawWords(); raw > 0) {
        traffic_.control(msg.cls, msg.ctl,
                         raw / static_cast<double>(wordsPerFlit),
                         msg.hops);
    }

    // Writeback payloads resolve Used/Waste by dirty bits right now.
    if (!msg.chunks.empty() && msg.cls == TrafficClass::Writeback) {
        unsigned dirty = 0, clean = 0;
        for (const auto &ch : msg.chunks) {
            dirty += (ch.mask & ch.dirty).count();
            clean += (ch.mask - ch.dirty).count();
        }
        const bool to_mem = msg.dst.kind == Endpoint::Kind::MC;
        traffic_.wbData(to_mem, dirty, clean, msg.hops);
    }

    DPRINTF(Noc, eq_, "%s %u->%u line %llx hops %u flits %u",
            msgKindName(msg.kind), msg.src.tile(topo_),
            msg.dst.tile(topo_), static_cast<unsigned long long>(msg.line),
            msg.hops, total_flits);

    // Head flit arrives after the link latency of each hop; the tail
    // follows one cycle per additional flit (wormhole serialization).
    const Tick delay = linkLatency_ * msg.hops + (total_flits - 1);
    deliverAt(eq_.now() + delay, std::move(msg));
}

void
Network::sendAfter(Tick delay, Message &&msg)
{
    const std::uint32_t idx = poolAcquire(std::move(msg));
    eq_.schedule(delay, [this, idx] { send(poolRelease(idx)); });
}

void
Network::deliverAfter(Tick delay, Message &&msg)
{
    deliverAt(eq_.now() + delay, std::move(msg));
}

} // namespace wastesim
