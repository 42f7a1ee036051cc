/**
 * @file
 * Abstract fabric interface plus the per-node network interface (NI).
 *
 * The NI owns per-lane inject/eject queues connecting the RMC pipelines
 * to the fabric (paper Fig. 3a). Link-level flow control is credit based:
 * a packet occupies one credit from injection until the destination NI
 * accepts it into its eject queue, so a saturated receiver backpressures
 * the sender without dropping packets.
 */

#ifndef SONUMA_FABRIC_FABRIC_HH
#define SONUMA_FABRIC_FABRIC_HH

#include <memory>
#include <string>
#include <vector>

#include "fabric/message.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/stats.hh"
#include "sim/time_series.hh"
#include "sim/types.hh"

namespace sonuma::fab {

class NetworkInterface;

/** What kind of fabric fault a notification describes. */
enum class FailureKind : std::uint8_t
{
    kNone = 0,  //!< no failure observed yet
    kNodeDown,  //!< node @c a failed
    kNodeUp,    //!< node @c a recovered
    kLinkDown,  //!< directed link @c a -> @c b failed
    kLinkUp,    //!< directed link @c a -> @c b recovered
};

/**
 * Failure reason delivered with NetworkInterface::notifyFailure(): which
 * peer is involved and whether the fault is node- or link-scoped.
 */
struct FailureInfo
{
    FailureKind kind = FailureKind::kNone;
    sim::NodeId a = 0;  //!< failed/recovered node, or link source
    sim::NodeId b = 0;  //!< link destination (== @c a for node events)
};

/** Topology-independent fabric interface. */
class Fabric
{
  public:
    virtual ~Fabric() = default;

    /** Attach a node's NI. Must be called once per node id. */
    virtual void attach(sim::NodeId id, NetworkInterface *ni) = 0;

    /**
     * Try to inject a message at its source node. Returns false when the
     * source has no credit on the message's lane; the fabric will invoke
     * the NI's retry hook when a credit frees.
     */
    virtual bool tryInject(const Message &msg) = 0;

    /** Called by the destination NI when it frees eject-queue space. */
    virtual void ejectSpaceFreed(sim::NodeId id, Lane lane) = 0;

    /**
     * Fail the node: packets to/from it (including any parked at its
     * eject queue) are dropped and attached NIs are notified.
     */
    virtual void failNode(sim::NodeId id) = 0;

    /** Bring a failed node back; attached NIs see a kNodeUp notification. */
    virtual void recoverNode(sim::NodeId id) = 0;

    /**
     * Fail the directed link @p from -> @p to: packets routed over it are
     * dropped (dor) or detoured (adaptive). NIs see kLinkDown.
     * @throws std::invalid_argument if the link does not exist.
     */
    virtual void failLink(sim::NodeId from, sim::NodeId to) = 0;

    /** Restore a failed link; attached NIs see kLinkUp. */
    virtual void recoverLink(sim::NodeId from, sim::NodeId to) = 0;

    /**
     * Mark the directed link @p from -> @p to lossy (transient drop
     * window): packets crossing it are silently dropped and counted, with
     * no failure notification. Routing still treats the link as up.
     */
    virtual void setLinkLossy(sim::NodeId from, sim::NodeId to,
                              bool lossy) = 0;

    /**
     * Check that @p from -> @p to names a link of this fabric.
     * @throws std::invalid_argument with a precise message otherwise.
     */
    virtual void validateLink(sim::NodeId from, sim::NodeId to) const = 0;

    /** Number of attached nodes. */
    virtual std::size_t nodeCount() const = 0;

    /**
     * Messages dropped by faults, unified across topologies: dead-node
     * arrivals, dead-link crossings, lossy-window drops, parked packets
     * flushed by failNode, and (torus, adaptive) hop-cap victims all
     * land in this one counter.
     */
    virtual std::uint64_t droppedMessages() const = 0;
};

/**
 * Per-node NI: a pair of inject queues and a pair of eject queues (one
 * per virtual lane), connected to the fabric on one side and the RMC
 * pipelines on the other.
 */
/** NI queue configuration. */
struct NiParams
{
    std::size_t injectQueueDepth = 16;
    std::size_t ejectQueueDepth = 16;
};

class NetworkInterface
{
  public:
    NetworkInterface(sim::EventQueue &eq, sim::StatRegistry &stats,
                     const std::string &name, sim::NodeId id, Fabric &fabric,
                     const NiParams &params = {});

    sim::NodeId nodeId() const { return id_; }

    //
    // Egress (RMC pipelines -> fabric)
    //

    /** Queue a message for injection. @retval false if the queue is full. */
    bool trySend(const Message &msg);

    /** Register a callback fired whenever send space frees on @p lane. */
    void onSendSpace(Lane lane, sim::Callback fn);

    //
    // Ingress (fabric -> RMC pipelines)
    //

    /** True if a message is waiting on @p lane. */
    bool hasMessage(Lane lane) const;

    /** Pop the oldest message on @p lane. @pre hasMessage(lane) */
    Message pop(Lane lane);

    /** Register a callback fired whenever a message arrives on @p lane. */
    void onArrival(Lane lane, sim::Callback fn);

    /** Register a callback fired if the fabric reports a failure. */
    void onFabricFailure(sim::Callback fn);

    //
    // Fabric-side hooks
    //

    /** Fabric delivers a packet. @retval false if the eject queue is full
     *  (the fabric then holds the packet and its credit). */
    bool deliver(const Message &msg);

    /** Fabric signals that credits freed on @p lane; retries injection. */
    void injectSpaceFreed(Lane lane);

    /** Fabric reports a node/link failure or recovery. */
    void notifyFailure(const FailureInfo &info);

    /** The most recent failure notification (kNone before the first). */
    const FailureInfo &lastFailure() const { return lastFailure_; }

    std::size_t injectDepth(Lane lane) const;
    std::size_t ejectDepth(Lane lane) const;

  private:
    sim::EventQueue &eq_;
    sim::NodeId id_;
    Fabric &fabric_;
    NiParams params_;

    sim::RingBuffer<Message> injectQ_[kNumLanes];
    sim::RingBuffer<Message> ejectQ_[kNumLanes];
    sim::Callback sendSpaceCb_[kNumLanes];
    sim::Callback arrivalCb_[kNumLanes];
    bool pumping_[kNumLanes] = {}; //!< pumpInject reentrancy guard
    sim::Callback failureCb_;
    FailureInfo lastFailure_;

    sim::Counter sent_;
    sim::Counter received_;
    // Eject-queue depth probe (reply-path backpressure indicator);
    // created in the constructor when sampling is enabled.
    std::unique_ptr<sim::TimeSeries> ejectDepthProbe_;

    void pumpInject(Lane lane);

    std::size_t li(Lane l) const { return static_cast<std::size_t>(l); }
};

} // namespace sonuma::fab

#endif // SONUMA_FABRIC_FABRIC_HH
