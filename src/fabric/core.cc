/**
 * @file
 * Topology-independent fabric core implementation.
 */

#include "fabric/core.hh"

#include <stdexcept>
#include <utility>

namespace sonuma::fab {

FabricCore::FabricCore(sim::EventQueue &eq, sim::StatRegistry &stats,
                       std::string topology, const std::string &prefix,
                       std::uint32_t creditsPerLane, std::uint32_t ports)
    : eq_(eq),
      delivered_(stats, prefix + ".delivered", "messages delivered"),
      stats_(stats), topology_(std::move(topology)),
      creditsPerLane_(creditsPerLane), ports_(ports),
      dropped_(stats, prefix + ".dropped", "messages dropped (failures)"),
      parked_(stats, prefix + ".parked",
              "deliveries parked on full eject queues")
{
}

void
FabricCore::fixNodeCount(std::size_t nodes)
{
    resize(nodes);
    fixed_ = true;
}

void
FabricCore::resize(std::size_t nodes)
{
    endpoints_.resize(nodes);
    const std::uint32_t links = linkCount();
    for (auto &ep : endpoints_) {
        ep.ports.resize(ports_ * kNumLanes);
        ep.linkUp.resize(links, true);
        ep.lossy.resize(links, false);
    }
}

void
FabricCore::attach(sim::NodeId id, NetworkInterface *ni)
{
    if (id >= endpoints_.size()) {
        if (fixed_)
            throw std::invalid_argument(
                topology_ + " attach: node id " + std::to_string(id) +
                " exceeds the " + topology_ + "'s " +
                std::to_string(endpoints_.size()) + " nodes");
        resize(id + 1);
    }
    Endpoint &ep = endpoints_[id];
    if (ep.ni)
        throw std::invalid_argument(topology_ + " attach: node id " +
                                    std::to_string(id) +
                                    " attached twice");
    ep.ni = ni;
    for (std::size_t l = 0; l < kNumLanes; ++l)
        ep.credits[l] = creditsPerLane_;

    if (!stats_.samplingEnabled())
        return;
    // One utilization and one queue-depth series per output port; lanes
    // share the physical port, so their busy time and depth are summed.
    // endpoints_ may grow after this attach, so the probes index it at
    // sample time instead of caching addresses.
    for (std::uint32_t port = 0; port < ports_; ++port) {
        const std::string base = portName(id, port);
        probes_.push_back(std::make_unique<sim::TimeSeries>(
            stats_, base + ".util", "fraction",
            "port serialization utilization",
            sim::TimeSeries::Kind::kRate, [this, id, port] {
                sim::Tick busy = 0;
                for (std::size_t l = 0; l < kNumLanes; ++l)
                    busy += endpoints_[id]
                                .ports[port * kNumLanes + l]
                                .busyThrough(eq_.now());
                return static_cast<double>(busy);
            }));
        probes_.push_back(std::make_unique<sim::TimeSeries>(
            stats_, base + ".qdepth", "packets",
            "packets serialized or in flight on the port",
            sim::TimeSeries::Kind::kGauge, [this, id, port] {
                std::size_t depth = 0;
                for (std::size_t l = 0; l < kNumLanes; ++l)
                    depth +=
                        endpoints_[id].ports[port * kNumLanes + l].queued();
                return static_cast<double>(depth);
            }));
    }
}

void
FabricCore::ejectSpaceFreed(sim::NodeId id, Lane lane)
{
    Endpoint &ep = endpoints_[id];
    if (ep.failed) {
        // A failed node must not receive parked traffic; drop it so the
        // senders' credits come back.
        flushParked(ep);
        return;
    }
    auto &q = ep.parked[li(lane)];
    while (!q.empty()) {
        if (!ep.ni->deliver(q.front()))
            break;
        delivered_.inc();
        returnCredit(q.front().srcNid, lane);
        q.pop();
    }
}

void
FabricCore::flushParked(Endpoint &ep)
{
    for (std::size_t l = 0; l < kNumLanes; ++l) {
        auto &q = ep.parked[l];
        while (!q.empty()) {
            dropped_.inc();
            returnCredit(q.front().srcNid, static_cast<Lane>(l));
            q.pop();
        }
    }
}

void
FabricCore::notifyAll(const FailureInfo &info)
{
    // Every attached NI hears of the fault (the paper's driver is told
    // of fabric failures and may reset RMC state, §5.1).
    for (auto &ep : endpoints_) {
        if (ep.ni)
            ep.ni->notifyFailure(info);
    }
}

void
FabricCore::failNode(sim::NodeId id)
{
    assert(id < endpoints_.size());
    Endpoint &ep = endpoints_[id];
    if (ep.failed)
        return;
    ep.failed = true;
    flushParked(ep);
    notifyAll({FailureKind::kNodeDown, id, id});
}

void
FabricCore::recoverNode(sim::NodeId id)
{
    assert(id < endpoints_.size());
    Endpoint &ep = endpoints_[id];
    if (!ep.failed)
        return;
    ep.failed = false;
    notifyAll({FailureKind::kNodeUp, id, id});
}

std::uint32_t
FabricCore::checkedLink(sim::NodeId from, sim::NodeId to) const
{
    auto bad = [&](const std::string &why) {
        return std::invalid_argument(topology_ + " link " +
                                     std::to_string(from) + "->" +
                                     std::to_string(to) + ": " + why);
    };
    if (from >= endpoints_.size() || to >= endpoints_.size())
        throw bad("node id out of range (" + topology_ + " has " +
                  std::to_string(endpoints_.size()) + " nodes)");
    if (from == to)
        throw bad("a node has no link to itself");
    return linkTo(from, to);
}

void
FabricCore::validateLink(sim::NodeId from, sim::NodeId to) const
{
    (void)checkedLink(from, to);
}

void
FabricCore::failLink(sim::NodeId from, sim::NodeId to)
{
    const std::uint32_t link = checkedLink(from, to);
    Endpoint &ep = endpoints_[from];
    if (!ep.linkUp[link])
        return;
    ep.linkUp[link] = false;
    notifyAll({FailureKind::kLinkDown, from, to});
}

void
FabricCore::recoverLink(sim::NodeId from, sim::NodeId to)
{
    const std::uint32_t link = checkedLink(from, to);
    Endpoint &ep = endpoints_[from];
    if (ep.linkUp[link])
        return;
    ep.linkUp[link] = true;
    notifyAll({FailureKind::kLinkUp, from, to});
}

void
FabricCore::setLinkLossy(sim::NodeId from, sim::NodeId to, bool lossy)
{
    endpoints_[from].lossy[checkedLink(from, to)] = lossy;
}

} // namespace sonuma::fab
