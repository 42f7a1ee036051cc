/**
 * @file
 * ClusterSpec / TestBed tests: eager validation of bad configurations
 * (torus dims vs node count, zero nodes), declarative construction of
 * crossbar and torus beds, session caching, and qpDepth plumbing down
 * to the queue pairs.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "api/testbed.hh"
#include "fabric/fault.hh"
#include "fabric/router.hh"
#include "sim/simulation.hh"

namespace {

using namespace sonuma;
using api::ClusterSpec;
using api::TestBed;
using api::operator""_KiB;
using api::operator""_MiB;

TEST(ClusterParamsValidation, TorusDimsMustMultiplyToNodeCount)
{
    sim::Simulation sim(1);
    node::ClusterParams p;
    p.nodes = 16;
    p.topology = node::Topology::kTorus;
    p.torus.dims = {4, 3}; // 12 != 16
    try {
        node::Cluster cluster(sim, p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        // The message names both the dims and the node count.
        EXPECT_NE(msg.find("4x3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("16"), std::string::npos) << msg;
    }
}

TEST(ClusterParamsValidation, ZeroNodesRejected)
{
    sim::Simulation sim(1);
    node::ClusterParams p;
    p.nodes = 0;
    EXPECT_THROW(node::Cluster cluster(sim, p), std::invalid_argument);
}

TEST(ClusterParamsValidation, ZeroRadixAndEmptyDimsRejected)
{
    node::ClusterParams p;
    p.nodes = 8;
    p.topology = node::Topology::kTorus;
    p.torus.dims = {};
    EXPECT_THROW(node::validate(p), std::invalid_argument);
    p.torus.dims = {8, 0};
    EXPECT_THROW(node::validate(p), std::invalid_argument);
}

TEST(ClusterParamsValidation, Bad3dDimsNameTheOffendingVector)
{
    node::ClusterParams p;
    p.nodes = 256;
    p.topology = node::Topology::kTorus;
    p.torus.dims = {8, 8, 8}; // 512 != 256
    try {
        node::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("8x8x8"), std::string::npos) << msg;
        EXPECT_NE(msg.find("512"), std::string::npos) << msg;
        EXPECT_NE(msg.find("256"), std::string::npos) << msg;
    }
}

TEST(ClusterParamsValidation, ZeroRadixMessagePrintsTheDimsVector)
{
    node::ClusterParams p;
    p.nodes = 64;
    p.topology = node::Topology::kTorus;
    p.torus.dims = {8, 0, 8};
    try {
        node::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("8x0x8"), std::string::npos)
            << e.what();
    }
}

TEST(ClusterParamsValidation, CoresBeyondTheSharerBitmaskRejected)
{
    // The L2 directory holds one sharer bit per L1: 31 cores plus the
    // RMC's L1 fill all 32.
    node::ClusterParams p;
    p.node.cores = 31;
    EXPECT_NO_THROW(node::validate(p));
    p.node.cores = 32;
    try {
        node::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("cores 32"), std::string::npos)
            << e.what();
    }
}

TEST(ClusterParamsValidation, CachesWithoutOneFullSetRejected)
{
    auto expectRejected = [](node::ClusterParams p, const char *needle) {
        try {
            node::validate(p);
            FAIL() << "expected std::invalid_argument for " << needle;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << e.what();
        }
    };
    node::ClusterParams p;
    p.node.l1.sizeBytes = 64; // one line, 2-way: no full set
    expectRejected(p, "l1 of 64 B with assoc 2");
    p = {};
    p.node.l1.assoc = 0;
    expectRejected(p, "assoc 0");
    p = {};
    p.node.l2.sizeBytes = 8 * 64; // 8 lines, 16-way
    expectRejected(p, "l2 of 512 B with assoc 16");
    p = {};
    p.node.l2.sizeBytes = 16 * 64; // exactly one set
    EXPECT_NO_THROW(node::validate(p));
}

TEST(ClusterParamsValidation, PhysMemBeyond32BitLineKeysRejected)
{
    node::ClusterParams p;
    p.node.physMemBytes = (1ull << 32) * 64; // exactly 2^32 lines
    EXPECT_NO_THROW(node::validate(p));
    p.node.physMemBytes += 64;
    try {
        node::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(
                      std::to_string(p.node.physMemBytes)),
                  std::string::npos)
            << e.what();
    }
}

TEST(ClusterParamsValidation, L2AssocBeyondSixteenBitWayCountsRejected)
{
    node::ClusterParams p;
    p.node.l2.sizeBytes = 4ull << 20; // 65536 lines: one set at most
    p.node.l2.assoc = 65535;
    EXPECT_NO_THROW(node::validate(p));
    p.node.l2.assoc = 65536;
    try {
        node::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("l2 assoc 65536"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ClusterParamsValidation, DeriveCapacitiesScalesIttAndEjectRing)
{
    node::ClusterParams p;
    // Table 1 defaults must be a strict no-op (fig7 byte-identity).
    node::ClusterParams defaults = p;
    node::deriveCapacities(defaults);
    EXPECT_EQ(defaults.node.rmc.maxTids, p.node.rmc.maxTids);
    EXPECT_EQ(defaults.node.ni.ejectQueueDepth, p.node.ni.ejectQueueDepth);

    // A deep multi-QP window gets a tid per WQ slot...
    p.node.rmc.qpCount = 4;
    p.node.rmc.qpEntries = 64;
    // ...and a 512-node rack gets incast-depth eject rings.
    p.nodes = 512;
    node::deriveCapacities(p);
    EXPECT_EQ(p.node.rmc.maxTids, 256u);
    EXPECT_EQ(p.node.ni.ejectQueueDepth, 128u);
}

TEST(ClusterSpecTest, Torus3dBedBuildsAndValidates)
{
    using api::operator""_KiB;
    // {2, 2, 2} = 8 nodes builds; a wrong product throws eagerly.
    api::TestBed bed(api::ClusterSpec{}
                         .nodes(8)
                         .torus(2, 2, 2)
                         .segmentPerNode(64_KiB));
    EXPECT_EQ(bed.nodes(), 8u);
    EXPECT_THROW(api::ClusterSpec{}.nodes(8).torus(2, 2, 4).resolve(),
                 std::invalid_argument);
}

TEST(RmcParamsValidation, ZeroAndAbsurdQpConfigsRejectedEagerly)
{
    // qpCount = 0: no queue pair to post on.
    rmc::RmcParams p;
    p.qpCount = 0;
    try {
        rmc::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("qpCount"),
                  std::string::npos)
            << e.what();
    }

    // qpCount beyond the Context Table's per-context capacity.
    p = rmc::RmcParams{};
    p.qpCount = p.maxQpsPerContext + 1;
    try {
        rmc::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("maxQpsPerContext"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(p.qpCount)), std::string::npos)
            << msg;
    }

    // qpEntries = 0 and qpEntries beyond the CQ's 16-bit wqIndex.
    p = rmc::RmcParams{};
    p.qpEntries = 0;
    EXPECT_THROW(rmc::validate(p), std::invalid_argument);
    p.qpEntries = 65537;
    try {
        rmc::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("65536"), std::string::npos)
            << e.what();
    }

    // rgpQpBurst = 0 would stall the arbitration rotation forever.
    p = rmc::RmcParams{};
    p.rgpQpBurst = 0;
    EXPECT_THROW(rmc::validate(p), std::invalid_argument);

    // The defaults and both presets are valid.
    EXPECT_NO_THROW(rmc::validate(rmc::RmcParams{}));
    EXPECT_NO_THROW(rmc::validate(rmc::RmcParams::simulatedHardware()));
    EXPECT_NO_THROW(rmc::validate(rmc::RmcParams::emulationPlatform()));
}

TEST(RmcParamsValidation, ClusterBuildChecksRmcParams)
{
    // The check fires on every cluster construction path, TestBed
    // included, before any node is built.
    sim::Simulation sim(1);
    node::ClusterParams p;
    p.node.rmc.qpCount = 0;
    EXPECT_THROW(node::Cluster cluster(sim, p), std::invalid_argument);
    EXPECT_THROW(TestBed bed(ClusterSpec{}.nodes(2).qpCount(0)),
                 std::invalid_argument);
}

TEST(ClusterSpecTest, QpCountReachesTheSession)
{
    TestBed bed(ClusterSpec{}
                    .nodes(2)
                    .qpDepth(8)
                    .qpCount(4)
                    .segmentPerNode(64_KiB));
    auto &s = bed.session(1);
    EXPECT_EQ(s.qpCount(), 4u);
    EXPECT_EQ(s.perQpDepth(), 8u);
    EXPECT_EQ(s.queueDepth(), 32u);
    EXPECT_FALSE(s.doorbellBatching());

    TestBed batched(ClusterSpec{}
                        .nodes(2)
                        .qpCount(2)
                        .doorbellBatching()
                        .segmentPerNode(64_KiB));
    EXPECT_TRUE(batched.session(1).doorbellBatching());

    // Per-session override: a software layer pins one QP regardless of
    // the node default (the Workload barrier convention).
    api::SessionParams one;
    one.qpCount = 1;
    one.doorbellBatching = false;
    auto &pinned = batched.newSession(1, 0, one);
    EXPECT_EQ(pinned.qpCount(), 1u);
    EXPECT_FALSE(pinned.doorbellBatching());
}

TEST(ClusterSpecTest, BuildFailsEagerlyOnBadTorus)
{
    EXPECT_THROW(TestBed bed(ClusterSpec{}.nodes(6).torus(2, 2)),
                 std::invalid_argument);
    EXPECT_THROW(TestBed bed(ClusterSpec{}.nodes(0)),
                 std::invalid_argument);
}

TEST(ClusterSpecTest, DeclarativeTorusBedMovesBytesAcrossHops)
{
    TestBed bed(ClusterSpec{}
                    .nodes(4)
                    .torus(2, 2)
                    .context(1)
                    .segmentPerNode(64_KiB)
                    .seed(13));
    EXPECT_EQ(bed.nodes(), 4u);
    bed.process(3).addressSpace().writeT<std::uint64_t>(
        bed.segBase(3) + 128, 0x70517051ULL);

    auto &s = bed.session(0);
    const vm::VAddr buf = s.allocBuffer(64);
    api::OpResult r;
    bed.spawn([](api::RmcSession *s, vm::VAddr buf,
                 api::OpResult *out) -> sim::Task {
        *out = co_await s->read(3, 128, buf, 64);
    }(&s, buf, &r));
    bed.run();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(bed.process(0).addressSpace().readT<std::uint64_t>(buf),
              0x70517051ULL);
}

TEST(ClusterSpecTest, SessionAccessorCachesPerNodeCore)
{
    TestBed bed(ClusterSpec{}.nodes(2).segmentPerNode(64_KiB));
    auto &a = bed.session(0);
    auto &b = bed.session(0);
    EXPECT_EQ(&a, &b); // same QP on repeat access
    auto &fresh = bed.newSession(0);
    EXPECT_NE(&a, &fresh); // explicit new QP
}

TEST(ClusterSpecTest, QpDepthReachesTheQueuePair)
{
    TestBed bed(
        ClusterSpec{}.nodes(2).segmentPerNode(64_KiB).qpDepth(16));
    EXPECT_EQ(bed.session(1).queueDepth(), 16u);

    // The 16-deep ring throttles the async window: outstanding ops can
    // never exceed the depth.
    auto &s = bed.session(1);
    const vm::VAddr buf = s.allocBuffer(64ull * 16);
    std::uint32_t maxOutstanding = 0;
    bed.spawn([](api::RmcSession *s, vm::VAddr buf,
                 std::uint32_t *maxOut) -> sim::Task {
        for (int i = 0; i < 100; ++i) {
            co_await s->readAsync(0, (std::uint64_t(i) % 64) * 64,
                                  buf + (std::uint64_t(i) % 16) * 64, 64);
            *maxOut = std::max(*maxOut, s->outstanding());
        }
        co_await s->drain();
    }(&s, buf, &maxOutstanding));
    bed.run();
    EXPECT_LE(maxOutstanding, 16u);
    EXPECT_GT(maxOutstanding, 4u); // but the window does fill
}

TEST(ClusterSpecTest, AdaptiveRoutingRequiresATorus)
{
    // Adaptive routing is a torus policy; on a crossbar the spec must
    // fail eagerly at build time, not silently route dor.
    EXPECT_THROW(TestBed(ClusterSpec{}
                             .nodes(4)
                             .segmentPerNode(64_KiB)
                             .routing(fab::RoutingMode::kAdaptive)),
                 std::invalid_argument);
    // On a torus it builds.
    TestBed bed(ClusterSpec{}
                    .nodes(4)
                    .torus(2, 2)
                    .segmentPerNode(64_KiB)
                    .routing(fab::RoutingMode::kAdaptive));
    EXPECT_FALSE(bed.faultsActive());
}

TEST(ClusterSpecTest, FaultPlanArmsAndFires)
{
    // A spec-level fault plan is validated and armed at build time and
    // its events fire on the bed's queue: kill+recover leaves the
    // fabric healthy again but the NIs saw both notifications.
    fab::FaultPlan plan;
    plan.killNode(sim::usToTicks(1), 1);
    plan.recoverNode(sim::usToTicks(2), 1);
    TestBed bed(ClusterSpec{}
                    .nodes(2)
                    .segmentPerNode(64_KiB)
                    .faultPlan(plan));
    EXPECT_TRUE(bed.faultsActive());
    bed.run();
    EXPECT_EQ(bed.cluster().node(0).ni().lastFailure().kind,
              fab::FailureKind::kNodeUp);

    // An out-of-range victim throws from the TestBed constructor.
    fab::FaultPlan bad;
    bad.killNode(sim::usToTicks(1), 7);
    EXPECT_THROW(TestBed(ClusterSpec{}
                             .nodes(2)
                             .segmentPerNode(64_KiB)
                             .faultPlan(bad)),
                 std::invalid_argument);
}

TEST(ClusterSpecTest, LiteralsAndPhysMemSizing)
{
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(1_MiB, 1048576u);
    // A large segment auto-sizes physical memory (no PhysMem overflow).
    TestBed bed(ClusterSpec{}.nodes(2).segmentPerNode(128_MiB));
    EXPECT_EQ(bed.segBytes(), 128_MiB);
}

} // namespace
