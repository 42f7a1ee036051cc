/**
 * @file
 * k-ary n-cube (torus) fabric with dimension-order routing.
 *
 * Per-hop cost = router pin-to-pin delay + link serialization (per-link
 * FIFO servers, so contention queues show up in latency). Flow control is
 * end-to-end credit based per (source, lane): hop-by-hop VC buffer
 * occupancy is abstracted away, which preserves the latency/bandwidth
 * behaviour at the paper's load levels while guaranteeing deadlock
 * freedom by construction (every in-network packet drains through
 * work-conserving servers; see DESIGN.md).
 *
 * Credits, parking and faults are the shared FabricCore's. Each output
 * direction is one port and one link; link faults are checked when a
 * packet departs a router, under both routing modes.
 */

#ifndef SONUMA_FABRIC_TORUS_HH
#define SONUMA_FABRIC_TORUS_HH

#include <vector>

#include "fabric/core.hh"
#include "fabric/router.hh"

namespace sonuma::fab {

/** Torus configuration. Defaults give a 4x4 2D torus of QPI-like links. */
struct TorusParams
{
    std::vector<std::uint32_t> dims = {4, 4};
    sim::Tick hopLatency = sim::nsToTicks(11.0); //!< Alpha 21364-like [39]
    double linkBandwidth = 25.6e9;               //!< bytes/s per link
    std::uint32_t creditsPerLane = 64;           //!< end-to-end, per source
    RoutingMode routing = RoutingMode::kDor;     //!< dor keeps artifacts stable
};

class TorusFabric : public FabricCore
{
  public:
    TorusFabric(sim::EventQueue &eq, sim::StatRegistry &stats,
                const TorusParams &params = {});

    bool tryInject(const Message &msg) override;

    const TorusRouting &routing() const { return routing_; }
    const TorusParams &params() const { return params_; }

    /** Mean hops of delivered messages (for topology ablation). */
    double
    meanHops() const
    {
        return delivered_.value() == 0
                   ? 0.0
                   : static_cast<double>(totalHops_.value()) /
                         static_cast<double>(delivered_.value());
    }

  private:
    /** Sentinel "no usable direction" value (also Message::lastDir unset). */
    static constexpr std::uint32_t kNoDir = 0xff;

    TorusParams params_;
    TorusRouting routing_;
    std::uint32_t hopCap_; //!< adaptive-misroute livelock backstop
    sim::Counter totalHops_;

    void forward(sim::NodeId here, const Message &msg, std::uint32_t hops);
    void drain(sim::NodeId node, std::uint32_t portIdx);
    std::uint32_t adaptiveDir(const Endpoint &ep, sim::NodeId here,
                              const Message &msg) const;

    std::uint32_t linkTo(sim::NodeId from, sim::NodeId to) const override;
    std::uint32_t linkCount() const override;
    std::string portName(sim::NodeId id, std::uint32_t port) const override;
};

} // namespace sonuma::fab

#endif // SONUMA_FABRIC_TORUS_HH
