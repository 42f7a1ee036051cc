/**
 * @file
 * The topology-independent half of a fabric: the credit-based, lossless
 * NI-fabric contract both the crossbar and the torus implement.
 *
 * FabricCore owns the endpoint table (NI, failed flag, per-lane credits
 * and parked packets, output ports, per-link fault flags), the
 * <prefix>.delivered / .dropped / .parked counters, the per-port OBS
 * probes, and every node and link fault operation. A topology supplies
 * only its port count, its next-hop rule (tryInject and the per-hop
 * drain, written against the inline helpers below, so the hop path has
 * no virtual call) and a from -> to link lookup.
 */

#ifndef SONUMA_FABRIC_CORE_HH
#define SONUMA_FABRIC_CORE_HH

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric.hh"
#include "sim/ring_buffer.hh"
#include "sim/serialized_link.hh"
#include "sim/time_series.hh"

namespace sonuma::fab {

/** One packet on an output port, bound for the node at its far end. */
struct InFlight
{
    sim::NodeId next = 0;
    std::uint32_t hops = 0; //!< links crossed once it reaches @c next
    Message msg;
};

class FabricCore : public Fabric
{
  public:
    // Event and probe closures hold `this`.
    FabricCore(const FabricCore &) = delete;
    FabricCore &operator=(const FabricCore &) = delete;

    /**
     * @throws std::invalid_argument if @p id is attached twice or lies
     * past a fixed node count.
     */
    void attach(sim::NodeId id, NetworkInterface *ni) final;
    void ejectSpaceFreed(sim::NodeId id, Lane lane) final;
    void failNode(sim::NodeId id) final;
    void recoverNode(sim::NodeId id) final;
    void failLink(sim::NodeId from, sim::NodeId to) final;
    void recoverLink(sim::NodeId from, sim::NodeId to) final;
    void setLinkLossy(sim::NodeId from, sim::NodeId to, bool lossy) final;
    void validateLink(sim::NodeId from, sim::NodeId to) const final;
    std::size_t nodeCount() const final { return endpoints_.size(); }
    std::uint64_t droppedMessages() const final { return dropped_.value(); }

  protected:
    struct Endpoint
    {
        Endpoint() = default;
        Endpoint(const Endpoint &) = delete;
        Endpoint &operator=(const Endpoint &) = delete;
        Endpoint(Endpoint &&) noexcept = default;
        Endpoint &operator=(Endpoint &&) noexcept = default;

        NetworkInterface *ni = nullptr;
        bool failed = false;
        std::uint32_t credits[kNumLanes] = {0, 0};
        // Packets that arrived at a full eject queue, per lane.
        sim::RingBuffer<Message> parked[kNumLanes];
        // One serializing link per output port per lane, at
        // port * kNumLanes + lane (lanes share the port's probes).
        std::vector<sim::SerializedLink<InFlight>> ports;
        // Physical link state, indexed by the topology's linkTo().
        std::vector<bool> linkUp;
        std::vector<bool> lossy;
    };

    /** What source-side admission decided for a packet. */
    enum class Admission
    {
        kDropped,  //!< swallowed and counted: no live path exists
        kNoCredit, //!< the source lane is out of credits; retry later
        kAdmitted, //!< took a credit; the topology launches it
    };

    /**
     * @param topology name for error messages ("crossbar", "torus")
     * @param prefix   stat prefix ("fabric", "torus")
     * @param ports    output ports per node
     */
    FabricCore(sim::EventQueue &eq, sim::StatRegistry &stats,
               std::string topology, const std::string &prefix,
               std::uint32_t creditsPerLane, std::uint32_t ports);

    /**
     * Size the table for a fixed node count; attach() then rejects ids
     * past it. Without this the table grows as nodes attach.
     */
    void fixNodeCount(std::size_t nodes);

    //
    // What a topology supplies. None of it is on the per-hop path.
    //

    /**
     * Link index of @p from -> @p to, for ids already checked to be in
     * range and distinct. @throws std::invalid_argument if no such link.
     */
    virtual std::uint32_t linkTo(sim::NodeId from, sim::NodeId to) const = 0;

    /** Links per node: the size of Endpoint::linkUp and ::lossy. */
    virtual std::uint32_t linkCount() const = 0;

    /** Probe base name of output port @p port of node @p id. */
    virtual std::string portName(sim::NodeId id,
                                 std::uint32_t port) const = 0;

    //
    // The shared hop path: inline, non-virtual.
    //

    Admission
    admit(const Message &msg)
    {
        assert(msg.srcNid < endpoints_.size() && endpoints_[msg.srcNid].ni);
        Endpoint &src = endpoints_[msg.srcNid];
        if (src.failed || msg.dstNid >= endpoints_.size() ||
            !endpoints_[msg.dstNid].ni || endpoints_[msg.dstNid].failed) {
            dropped_.inc();
            return Admission::kDropped;
        }
        std::uint32_t &credits = src.credits[li(msg.lane())];
        if (credits == 0)
            return Admission::kNoCredit;
        --credits;
        return Admission::kAdmitted;
    }

    /** Lose @p msg inside the network: count it, free its credit. */
    void
    drop(const Message &msg)
    {
        dropped_.inc();
        returnCredit(msg.srcNid, msg.lane());
    }

    /**
     * Hand @p msg to @p dst's NI. A full eject queue parks the packet,
     * which keeps its credit until ejectSpaceFreed().
     * @retval false if parked.
     */
    bool
    deliver(Endpoint &dst, const Message &msg)
    {
        if (dst.ni->deliver(msg)) {
            delivered_.inc();
            returnCredit(msg.srcNid, msg.lane());
            return true;
        }
        parked_.inc();
        dst.parked[li(msg.lane())].push(msg);
        return false;
    }

    void
    returnCredit(sim::NodeId srcId, Lane lane)
    {
        Endpoint &src = endpoints_[srcId];
        ++src.credits[li(lane)];
        assert(src.credits[li(lane)] <= creditsPerLane_);
        if (src.ni)
            src.ni->injectSpaceFreed(lane);
    }

    /** Ticks to put @p msg on a wire of @p bytesPerSec. */
    static sim::Tick
    serialization(const Message &msg, double bytesPerSec)
    {
        return static_cast<sim::Tick>(
            static_cast<double>(msg.wireBytes()) / bytesPerSec * 1e12);
    }

    static std::size_t li(Lane l) { return static_cast<std::size_t>(l); }

    sim::EventQueue &eq_;
    std::vector<Endpoint> endpoints_;
    sim::Counter delivered_;

  private:
    sim::StatRegistry &stats_;
    std::string topology_;
    std::uint32_t creditsPerLane_;
    std::uint32_t ports_;
    bool fixed_ = false;
    sim::Counter dropped_;
    sim::Counter parked_;
    // Per-(node, port) utilization and queue-depth series, created at
    // attach() when sampling is on; see docs/observability.md.
    std::vector<std::unique_ptr<sim::TimeSeries>> probes_;

    void resize(std::size_t nodes);
    std::uint32_t checkedLink(sim::NodeId from, sim::NodeId to) const;
    void flushParked(Endpoint &ep);
    void notifyAll(const FailureInfo &info);
};

} // namespace sonuma::fab

#endif // SONUMA_FABRIC_CORE_HH
