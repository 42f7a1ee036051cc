/**
 * @file
 * Crossbar fabric implementation.
 */

#include "fabric/crossbar.hh"

#include <string>

namespace sonuma::fab {

CrossbarFabric::CrossbarFabric(sim::EventQueue &eq,
                               sim::StatRegistry &stats,
                               const CrossbarParams &params)
    : FabricCore(eq, stats, "crossbar", "fabric", params.creditsPerLane, 1),
      params_(params)
{
}

bool
CrossbarFabric::tryInject(const Message &msg)
{
    const Admission a = admit(msg);
    if (a != Admission::kAdmitted)
        return a == Admission::kDropped;

    // Serialize on the per-lane egress pipe, then propagate (flat).
    const sim::NodeId srcId = msg.srcNid;
    const Lane lane = msg.lane();
    auto &link = endpoints_[srcId].ports[li(lane)];
    link.push(eq_.now(), serialization(msg, params_.linkBandwidth),
              params_.linkLatency, InFlight{msg.dstNid, 1, msg});
    link.arm(eq_, [this, srcId, lane] { drain(srcId, lane); });
    return true;
}

void
CrossbarFabric::drain(sim::NodeId srcId, Lane lane)
{
    endpoints_[srcId].ports[li(lane)].drain(
        eq_, [this](const InFlight &f) { arrive(f.msg); },
        [this, srcId, lane] { drain(srcId, lane); });
}

void
CrossbarFabric::arrive(const Message &msg)
{
    Endpoint &dst = endpoints_[msg.dstNid];
    const Endpoint &src = endpoints_[msg.srcNid];
    if (dst.failed || !src.linkUp[msg.dstNid] || src.lossy[msg.dstNid]) {
        drop(msg);
        return;
    }
    deliver(dst, msg);
}

std::uint32_t
CrossbarFabric::linkTo(sim::NodeId, sim::NodeId to) const
{
    return to;
}

std::uint32_t
CrossbarFabric::linkCount() const
{
    return static_cast<std::uint32_t>(nodeCount());
}

std::string
CrossbarFabric::portName(sim::NodeId id, std::uint32_t) const
{
    return "fabric.node" + std::to_string(id) + ".egress";
}

} // namespace sonuma::fab
