/**
 * @file
 * Allocation-counting test hook: verifies the zero-allocation guarantee
 * of the simulation core. This binary overrides global operator
 * new/delete to count heap allocations, warms each subsystem up, and
 * then asserts that the steady-state event loop, coroutine spawn cycle,
 * and fabric message path perform zero allocations per event. It also
 * counts heap bytes, to bound what building a cluster costs per node.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "api/testbed.hh"
#include "fabric/crossbar.hh"
#include "fabric/fabric.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/frame_pool.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

static std::uint64_t g_allocCount = 0;
static std::uint64_t g_allocBytes = 0;

void *
operator new(std::size_t n)
{
    ++g_allocCount;
    g_allocBytes += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace sonuma;

TEST(AllocCounting, HookCountsAllocations)
{
    const std::uint64_t before = g_allocCount;
    // Call the replaceable allocation function directly: a plain
    // `new int` can legally be elided by the optimizer.
    void *p = ::operator new(8);
    EXPECT_GT(g_allocCount, before);
    ::operator delete(p);
}

TEST(AllocCounting, SteadyStateEventLoopIsAllocationFree)
{
    sim::EventQueue eq;
    eq.reserve(64);

    struct Chain
    {
        sim::EventQueue &eq;
        std::uint64_t fired = 0;
        std::uint64_t target = 0;

        void
        arm()
        {
            eq.scheduleAfter(1, [this] {
                ++fired;
                if (fired < target)
                    arm();
            });
        }
    } chain{eq};

    // Warm-up: grow heap storage, slot table, freelists.
    chain.target = 256;
    for (int i = 0; i < 16; ++i)
        chain.arm();
    eq.run();

    chain.fired = 0;
    chain.target = 10'000;
    for (int i = 0; i < 16; ++i)
        chain.arm();
    const std::uint64_t a0 = g_allocCount;
    eq.run();
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "steady-state schedule/fire must not allocate";
    EXPECT_GE(chain.fired, 10'000u);
}

TEST(AllocCounting, ScheduleCancelCycleIsAllocationFree)
{
    sim::EventQueue eq;
    eq.reserve(64);

    // Warm-up, including tombstone churn.
    for (int i = 0; i < 64; ++i) {
        auto id = eq.scheduleAfter(5, [] {});
        eq.cancel(id);
    }
    eq.run();

    const std::uint64_t a0 = g_allocCount;
    for (int i = 0; i < 10'000; ++i) {
        auto id = eq.scheduleAfter(5, [] {});
        eq.cancel(id);
        eq.run();
    }
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "cancel must recycle slots without allocating";
}

sim::FireAndForget
transaction(sim::EventQueue &eq, std::uint64_t *done)
{
    co_await sim::Delay(eq, 1);
    co_await sim::Delay(eq, 1);
    ++*done;
}

TEST(AllocCounting, SteadyStateCoroutineChurnIsAllocationFree)
{
    sim::EventQueue eq;
    eq.reserve(64);
    std::uint64_t done = 0;

    // Warm-up: pool a batch of frames.
    for (int i = 0; i < 32; ++i)
        transaction(eq, &done);
    eq.run();

    const std::uint64_t a0 = g_allocCount;
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 32; ++i)
            transaction(eq, &done);
        eq.run();
    }
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "warmed coroutine spawn/complete cycles must not allocate";
    EXPECT_EQ(done, 32u * 101);
}

TEST(AllocCounting, SteadyStateL1HitPathIsAllocationFree)
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    mem::DramChannel dram(eq, stats, "dram");
    mem::L2Cache l2(eq, stats, "l2", {}, dram);
    mem::L1Cache l1(eq, stats, "l1", {}, l2);

    std::uint64_t done = 0;
    auto bump = [&done] { ++done; };

    // Warm-up: fill the line (miss path touches MSHR/directory maps)
    // and let the access slot table reach steady size.
    for (int i = 0; i < 4; ++i) {
        l1.access(0x1000, false, bump);
        eq.run();
    }

    const std::uint64_t a0 = g_allocCount;
    for (int i = 0; i < 5'000; ++i) {
        l1.access(0x1000, false, bump);
        eq.run();
    }
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "L1 hits must ride the slot table, not heap closures";
    EXPECT_EQ(done, 5'004u);
}

TEST(AllocCounting, SteadyStateFabricPathIsAllocationFree)
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    fab::CrossbarFabric xbar(eq, stats);
    fab::NetworkInterface ni0(eq, stats, "ni0", 0, xbar);
    fab::NetworkInterface ni1(eq, stats, "ni1", 1, xbar);

    std::uint64_t received = 0;
    ni1.onArrival(fab::Lane::kRequest, [&ni1, &received] {
        while (ni1.hasMessage(fab::Lane::kRequest)) {
            ni1.pop(fab::Lane::kRequest);
            ++received;
        }
    });

    fab::Message msg;
    msg.op = fab::Op::kReadReq;
    msg.srcNid = 0;
    msg.dstNid = 1;

    struct Producer
    {
        sim::EventQueue &eq;
        fab::NetworkInterface &ni;
        fab::Message &msg;
        std::uint64_t toSend = 0;

        void
        pump()
        {
            while (toSend > 0 && ni.trySend(msg))
                --toSend;
            if (toSend > 0)
                eq.scheduleAfter(100, [this] { pump(); });
        }
    } producer{eq, ni0, msg};

    // Warm-up: sizes the NI rings, egress rings, and event storage.
    producer.toSend = 512;
    producer.pump();
    eq.run();
    received = 0;

    producer.toSend = 5'000;
    const std::uint64_t a0 = g_allocCount;
    producer.pump();
    eq.run();
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "warmed fabric send/deliver path must not allocate";
    EXPECT_EQ(received, 5'000u);
}

TEST(AllocCounting, ClusterBuildHeapFollowsTheWorkingSet)
{
    // Heap bytes and allocations requested while a 64-node 4x4x4 torus
    // with 1 MiB segments is built: the read-stream-64 benchmark cell.
    // Both are deterministic (531,985 B and 638 allocations per node;
    // the L2's flat fill order is 272 KB of that); the bounds are about
    // 2x, so a structure sized from a configured capacity (a presized
    // directory, reserved waiter lists) instead of the lines a run
    // touches, or one heap block per cache set, fails here. Simulated
    // memory lives outside the heap: the build writes one 1 MiB chunk
    // per node (kernel structures and page tables); zero-filling the
    // fresh segment creates none.
    constexpr std::uint32_t kNodes = 64;
    constexpr std::uint64_t kBoundBytesPerNode = 1'050'000;
    constexpr std::uint64_t kBoundAllocsPerNode = 1'300;
    const std::uint64_t b0 = g_allocBytes;
    const std::uint64_t a0 = g_allocCount;
    api::TestBed bed(api::ClusterSpec{}
                         .nodes(kNodes)
                         .torus(4, 4, 4)
                         .segmentPerNode(1ull << 20));
    const std::uint64_t perNode = (g_allocBytes - b0) / kNodes;
    const std::uint64_t allocsPerNode = (g_allocCount - a0) / kNodes;
    EXPECT_LE(perNode, kBoundBytesPerNode)
        << "cluster build heap per node grew; measured " << perNode;
    EXPECT_LE(allocsPerNode, kBoundAllocsPerNode)
        << "cluster build allocations per node grew; measured "
        << allocsPerNode;
    for (std::uint32_t n = 0; n < kNodes; ++n)
        EXPECT_LE(bed.node(n).phys().chunksCreated(), 1u) << n;
}

} // namespace
