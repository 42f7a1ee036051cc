/**
 * @file
 * Full-crossbar fabric: the paper's simulated-hardware configuration
 * ("full crossbar with reliable links between RMCs and a flat latency of
 * 50 ns", §7.1).
 *
 * Each node has one egress serialization pipe per virtual lane; packets
 * then experience a flat propagation delay to any destination. Credits,
 * parking and faults are the shared FabricCore's. Every node has a
 * direct link to every other, so a link is named by its destination
 * node, and link faults are checked at arrival: packets already
 * serialized when a link dies are lost too, matching a real cable pull.
 */

#ifndef SONUMA_FABRIC_CROSSBAR_HH
#define SONUMA_FABRIC_CROSSBAR_HH

#include "fabric/core.hh"

namespace sonuma::fab {

/** Crossbar configuration. */
struct CrossbarParams
{
    sim::Tick linkLatency = sim::nsToTicks(50.0); //!< one-way, flat
    double linkBandwidth = 12.8e9;                //!< bytes/s per node/lane (QPI-class)
    std::uint32_t creditsPerLane = 64;            //!< in-flight packets
};

class CrossbarFabric : public FabricCore
{
  public:
    CrossbarFabric(sim::EventQueue &eq, sim::StatRegistry &stats,
                   const CrossbarParams &params = {});

    bool tryInject(const Message &msg) override;

    const CrossbarParams &params() const { return params_; }

  private:
    CrossbarParams params_;

    void drain(sim::NodeId src, Lane lane);
    void arrive(const Message &msg);

    std::uint32_t linkTo(sim::NodeId from, sim::NodeId to) const override;
    std::uint32_t linkCount() const override;
    std::string portName(sim::NodeId id, std::uint32_t port) const override;
};

} // namespace sonuma::fab

#endif // SONUMA_FABRIC_CROSSBAR_HH
