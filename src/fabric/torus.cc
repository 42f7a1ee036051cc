/**
 * @file
 * Torus fabric implementation.
 */

#include "fabric/torus.hh"

#include <stdexcept>
#include <string>

namespace sonuma::fab {

TorusFabric::TorusFabric(sim::EventQueue &eq, sim::StatRegistry &stats,
                         const TorusParams &params)
    : FabricCore(eq, stats, "torus", "torus", params.creditsPerLane,
                 static_cast<std::uint32_t>(2 * params.dims.size())),
      params_(params), routing_(params.dims),
      totalHops_(stats, "torus.totalHops", "sum of per-message hop counts")
{
    fixNodeCount(routing_.nodeCount());
    // Misrouting around failures must terminate: a packet that crossed
    // far more links than any minimal-plus-detour path could need is
    // dropped (and counted) rather than allowed to livelock.
    std::uint32_t sumDims = 0;
    for (auto k : params_.dims)
        sumDims += k;
    hopCap_ = 4 * sumDims + 16;
}

bool
TorusFabric::tryInject(const Message &msg)
{
    const Admission a = admit(msg);
    if (a != Admission::kAdmitted)
        return a == Admission::kDropped;
    forward(msg.srcNid, msg, 0);
    return true;
}

void
TorusFabric::forward(sim::NodeId here, const Message &msg,
                     std::uint32_t hops)
{
    Endpoint &ep = endpoints_[here];
    if (ep.failed) {
        drop(msg);
        return;
    }

    if (msg.dstNid == here) {
        if (deliver(ep, msg))
            totalHops_.inc(hops);
        return;
    }

    std::uint32_t dir;
    if (params_.routing == RoutingMode::kAdaptive) {
        dir = hops >= hopCap_ ? kNoDir : adaptiveDir(ep, here, msg);
        if (dir == kNoDir) {
            drop(msg);
            return;
        }
    } else {
        dir = routing_.nextDir(here, msg.dstNid);
        if (!ep.linkUp[dir]) {
            drop(msg);
            return;
        }
    }
    if (ep.lossy[dir]) {
        // Transient drop window: the link looks up to routing but loses
        // the packet. No notification; the sender's timeout recovers.
        drop(msg);
        return;
    }
    const std::uint32_t portIdx =
        dir * static_cast<std::uint32_t>(kNumLanes) +
        static_cast<std::uint32_t>(li(msg.lane()));
    auto &link = ep.ports[portIdx];
    InFlight f{routing_.neighbor(here, dir), hops + 1, msg};
    f.msg.lastDir = static_cast<std::uint8_t>(dir);
    link.push(eq_.now(), serialization(msg, params_.linkBandwidth),
              params_.hopLatency, std::move(f));
    link.arm(eq_, [this, here, portIdx] { drain(here, portIdx); });
}

std::uint32_t
TorusFabric::adaptiveDir(const Endpoint &ep, sim::NodeId here,
                         const Message &msg) const
{
    // Deterministic minimal-detour selection: prefer the lowest-numbered
    // productive direction whose link is up, then any up link (misroute),
    // refusing the immediate U-turn unless it is the only link left.
    const std::uint32_t ports = routing_.portCount();
    const std::uint32_t avoid =
        msg.lastDir == kNoDir ? kNoDir : (msg.lastDir ^ 1u);
    for (std::uint32_t dir = 0; dir < ports; ++dir) {
        if (ep.linkUp[dir] && dir != avoid &&
            routing_.productive(here, msg.dstNid, dir))
            return dir;
    }
    for (std::uint32_t dir = 0; dir < ports; ++dir) {
        if (ep.linkUp[dir] && dir != avoid)
            return dir;
    }
    if (avoid != kNoDir && ep.linkUp[avoid])
        return avoid;
    return kNoDir;
}

void
TorusFabric::drain(sim::NodeId node, std::uint32_t portIdx)
{
    endpoints_[node].ports[portIdx].drain(
        eq_,
        [this](const InFlight &f) { forward(f.next, f.msg, f.hops); },
        [this, node, portIdx] { drain(node, portIdx); });
}

std::uint32_t
TorusFabric::linkTo(sim::NodeId from, sim::NodeId to) const
{
    for (std::uint32_t dir = 0; dir < routing_.portCount(); ++dir) {
        if (routing_.neighbor(from, dir) == to)
            return dir;
    }
    throw std::invalid_argument(
        "torus link " + std::to_string(from) + "->" + std::to_string(to) +
        " does not exist: the nodes are not torus neighbors");
}

std::uint32_t
TorusFabric::linkCount() const
{
    return routing_.portCount();
}

std::string
TorusFabric::portName(sim::NodeId id, std::uint32_t port) const
{
    return "torus.node" + std::to_string(id) + ".link" + std::to_string(port);
}

} // namespace sonuma::fab
