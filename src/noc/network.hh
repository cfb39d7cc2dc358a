/**
 * @file
 * Analytic on-chip network model for the mesh.
 *
 * send() computes the XY hop count, charges the control portion of the
 * packet (header flit plus any unfilled fraction of the last data
 * flit) to the recorder immediately, tracks raw flit-hops for
 * conservation checking, and schedules delivery after the link
 * latency; writeback payloads are also attributed at send time.
 * Load/store payload attribution is left to the receiving controller,
 * which banks per-word flit-hops against profiler instances.
 */

#ifndef WASTESIM_NOC_NETWORK_HH
#define WASTESIM_NOC_NETWORK_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/topology.hh"
#include "common/types.hh"
#include "noc/mesh.hh"
#include "profile/traffic.hh"
#include "protocol/message.hh"
#include "sim/event_queue.hh"

namespace wastesim
{

/** Latency and flit-hop accounting model of the mesh interconnect. */
class Network
{
  public:
    Network(EventQueue &eq, TrafficRecorder &traffic,
            Tick link_latency = 3, Topology topo = Topology{});

    /** Register the handler for endpoint @p ep. */
    void
    attach(Endpoint ep, MessageHandler *h)
    {
        handlers_[ep.flatId(topo_)] = h;
    }

    /**
     * Send @p msg: record its traffic and schedule delivery at the
     * destination handler.
     */
    void send(Message &&msg);

    /** Send a copy of @p msg, for callers that keep the original. */
    void send(const Message &msg) { send(Message(msg)); }

    /**
     * Send @p msg after @p delay ticks of local processing (e.g. the
     * L2 access latency).  Traffic is charged at send time, exactly
     * as if the caller had scheduled its own event calling send();
     * the message waits in the network's pool, not in a heap-
     * allocated closure.
     */
    void sendAfter(Tick delay, Message &&msg);

    /**
     * Re-deliver @p msg to its destination handler after @p delay
     * ticks without charging any traffic (the packet already
     * arrived; the receiver is retrying local processing).
     */
    void deliverAfter(Tick delay, Message &&msg);

    /** Messages sent so far. */
    std::uint64_t messagesSent() const { return msgsSent_; }

    /** Total flit-hops injected (conservation reference). */
    double rawFlitHops() const { return traffic_.rawFlitHops(); }

    Tick linkLatency() const { return linkLatency_; }

    /** The active topology and its mesh geometry. */
    const Topology &topology() const { return topo_; }
    const Mesh &mesh() const { return mesh_; }

    /**
     * Flits that crossed the directed link from tile @p a to adjacent
     * tile @p b (XY routing); @p a == @p b gives the ejection link.
     */
    std::uint64_t
    linkFlits(NodeId a, NodeId b) const
    {
        return linkFlits_[static_cast<std::size_t>(a) *
                              topo_.numTiles() +
                          b];
    }

    /** Most-loaded link (hotspot detection). */
    std::uint64_t maxLinkFlits() const;

    /** Sum over all links (equals total flit-hops). */
    std::uint64_t totalLinkFlits() const;

    /**
     * Whole-run flit-hops charged at injection (sum of
     * flits x hops per message, ejection included).  Integer twin of
     * the epoch-windowed rawFlitHops(): the fuzzer's per-link
     * conservation invariant compares it against totalLinkFlits(),
     * which must account for exactly the same flits.
     */
    std::uint64_t flitHopsCharged() const { return flitHopsCharged_; }

    /** Message-pool occupancy (steady-state invariant: after a run
     *  drains, every slot is back on the free list). */
    std::size_t msgPoolSlots() const { return msgPool_.size(); }
    std::size_t msgPoolFreeSlots() const { return msgFree_.size(); }

    /** The directed link-flit matrix (src * numTiles + dst); snapshot
     *  source for the per-window heatmap dump. */
    const std::vector<std::uint64_t> &
    linkFlitsSnapshot() const
    {
        return linkFlits_;
    }

  private:
    /** Park @p msg in the free-list-recycled pool. @return its slot. */
    std::uint32_t poolAcquire(Message &&msg);

    /** Move the message out of @p idx and recycle the slot. */
    Message poolRelease(std::uint32_t idx);

    /** Schedule delivery of @p msg to its handler at @p when. */
    void deliverAt(Tick when, Message &&msg);

    /** Handler registered for @p msg's destination (panics if none). */
    MessageHandler *handlerFor(const Message &msg) const;

    EventQueue &eq_;
    TrafficRecorder &traffic_;
    Tick linkLatency_;
    Topology topo_;
    Mesh mesh_;
    std::uint64_t msgsSent_ = 0;
    std::uint64_t flitHopsCharged_ = 0;
    std::vector<MessageHandler *> handlers_;
    /** Directed per-link flit counters, indexed a*numTiles+b. */
    std::vector<std::uint64_t> linkFlits_;

    /** In-flight message pool: slots recycled through a free list so
     *  steady-state sends perform no allocation.  A deque, so slots
     *  never move and growth never holds an old and a new array of
     *  messages at once. */
    std::deque<Message> msgPool_;
    std::vector<std::uint32_t> msgFree_;
};

} // namespace wastesim

#endif // WASTESIM_NOC_NETWORK_HH
