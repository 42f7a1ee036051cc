/**
 * @file
 * Tests for the coherent cache hierarchy: hit/miss timing, MSHR merging
 * and limits, upgrades, cache-to-cache transfers (the mechanism behind
 * the paper's low-latency queue-pair polling), writebacks, inclusion,
 * and probe/writeback races; the flat L2 fill order against the
 * list-per-set layout it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace {

using namespace sonuma;
using mem::CacheParams;
using mem::DramChannel;
using mem::DramParams;
using mem::L1Cache;
using mem::L2Cache;
using sim::EventQueue;
using sim::StatRegistry;
using sim::Tick;

struct CacheFixture : public ::testing::Test
{
    EventQueue eq;
    StatRegistry stats;
    DramChannel dram{eq, stats, "dram", DramParams{}};
    L2Cache l2{eq, stats, "l2", L2Cache::Params{}, dram};
    L1Cache core{eq, stats, "core.l1", CacheParams{}, l2};
    L1Cache rmc{eq, stats, "rmc.l1", CacheParams{}, l2};

    /** Run one access to completion and return its latency in ns. */
    double
    timedAccess(L1Cache &l1, std::uint64_t addr, bool write)
    {
        const Tick start = eq.now();
        Tick end = 0;
        l1.access(addr, write, [&] { end = eq.now(); });
        eq.run();
        return sim::ticksToNs(end - start);
    }
};

TEST_F(CacheFixture, ColdMissGoesToDram)
{
    const double ns = timedAccess(core, 0x1000, false);
    // L1 (1.5) + L2 (3) + DRAM (~45-60) and fill path.
    EXPECT_GE(ns, 40.0);
    EXPECT_LE(ns, 90.0);
    EXPECT_EQ(core.misses(), 1u);
    EXPECT_EQ(l2.misses(), 1u);
    EXPECT_EQ(stats.counter("dram.reads")->value(), 1u);
}

TEST_F(CacheFixture, L1HitIsFast)
{
    timedAccess(core, 0x1000, false);
    const double ns = timedAccess(core, 0x1000, false);
    EXPECT_DOUBLE_EQ(ns, 1.5); // 3 cycles @ 2 GHz
    EXPECT_EQ(core.hits(), 1u);
}

TEST_F(CacheFixture, L2HitAvoidsDram)
{
    timedAccess(core, 0x2000, false);
    // A second L1 misses in its own L1 but hits the now-filled L2.
    const double ns = timedAccess(rmc, 0x2000, false);
    EXPECT_LT(ns, 10.0);
    EXPECT_EQ(stats.counter("dram.reads")->value(), 1u);
    EXPECT_EQ(l2.hits(), 1u);
}

TEST_F(CacheFixture, WriteThenRemoteReadIsCacheToCache)
{
    timedAccess(core, 0x3000, true); // core holds M
    const double ns = timedAccess(rmc, 0x3000, false);
    // Probe downgrade, not DRAM: this is the queue-pair polling path.
    EXPECT_LT(ns, 15.0);
    EXPECT_EQ(l2.cacheToCacheTransfers(), 1u);
    EXPECT_EQ(stats.counter("dram.reads")->value(), 1u); // only cold fill
}

TEST_F(CacheFixture, WriteInvalidatesOtherSharers)
{
    timedAccess(core, 0x4000, false);
    timedAccess(rmc, 0x4000, false); // both S
    timedAccess(core, 0x4000, true); // invalidates rmc
    // rmc read must now miss in its L1 (re-fetch via L2 + probe).
    const std::uint64_t missesBefore = rmc.misses();
    timedAccess(rmc, 0x4000, false);
    EXPECT_EQ(rmc.misses(), missesBefore + 1);
}

TEST_F(CacheFixture, UpgradeFromSharedToModified)
{
    timedAccess(core, 0x5000, false); // S
    const double ns = timedAccess(core, 0x5000, true);
    // Upgrade: L1 re-request to L2, but no DRAM traffic.
    EXPECT_LT(ns, 15.0);
    EXPECT_EQ(stats.counter("core.l1.upgrades")->value(), 1u);
    EXPECT_EQ(stats.counter("dram.reads")->value(), 1u);
}

TEST_F(CacheFixture, MshrMergesSameLineRequests)
{
    int done = 0;
    core.access(0x6000, false, [&] { ++done; });
    core.access(0x6000, false, [&] { ++done; });
    core.access(0x6020, false, [&] { ++done; }); // same 64 B line
    eq.run();
    EXPECT_EQ(done, 3);
    // One transaction serves all three.
    EXPECT_EQ(stats.counter("dram.reads")->value(), 1u);
}

TEST_F(CacheFixture, WriteWaiterOnReadFillRetriesAsUpgrade)
{
    int done = 0;
    core.access(0x7000, false, [&] { ++done; });
    // A write to the same line while the read is outstanding.
    core.access(0x7000, true, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    // The line must end up writable: a further write hits.
    const double ns = timedAccess(core, 0x7000, true);
    EXPECT_DOUBLE_EQ(ns, 1.5);
}

TEST_F(CacheFixture, MshrLimitBlocksExcessMisses)
{
    CacheParams small;
    small.mshrs = 2;
    L1Cache tiny(eq, stats, "tiny.l1", small, l2);
    int done = 0;
    for (int i = 0; i < 8; ++i)
        tiny.access(0x10000 + static_cast<std::uint64_t>(i) * 4096, false,
                    [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 8); // all eventually complete
}

TEST_F(CacheFixture, DirtyEvictionWritesBack)
{
    // Fill one L1 set beyond associativity with dirty lines.
    // 32 KB / 64 B / 2-way = 256 sets; same set every 256 lines.
    const std::uint64_t setStride = 256 * 64;
    for (int i = 0; i < 3; ++i)
        timedAccess(core, static_cast<std::uint64_t>(i) * setStride, true);
    EXPECT_EQ(stats.counter("core.l1.writebacks")->value(), 1u);
    // The evicted line's data must still be readable (from L2, clean).
    const double ns = timedAccess(core, 0, false);
    EXPECT_LT(ns, 15.0); // L2 hit: no DRAM re-fetch
}

TEST_F(CacheFixture, ProbeDuringPendingWritebackResolves)
{
    // core dirties line A, evicts it (PutM in flight), rmc reads A.
    const std::uint64_t setStride = 256 * 64;
    const std::uint64_t lineA = 0x8000;
    timedAccess(core, lineA, true);
    // Evict A by touching two more lines in its set (no run to completion:
    // keep the PutM and the rmc read racing).
    core.access(lineA + setStride, true, [] {});
    core.access(lineA + 2 * setStride, true, [] {});
    int rmcDone = 0;
    rmc.access(lineA, false, [&] { ++rmcDone; });
    eq.run();
    EXPECT_EQ(rmcDone, 1);
}

TEST_F(CacheFixture, L2EvictionBackInvalidatesL1)
{
    // Use a tiny L2 to force eviction.
    EventQueue eq2;
    StatRegistry st2;
    DramChannel dram2(eq2, st2, "dram", DramParams{});
    L2Cache::Params tiny;
    tiny.sizeBytes = 8 * 1024; // 128 lines, 16-way -> 8 sets
    L2Cache l2b(eq2, st2, "l2", tiny, dram2);
    L1Cache l1b(eq2, st2, "l1", CacheParams{}, l2b);

    auto touch = [&](std::uint64_t addr) {
        l1b.access(addr, false, [] {});
        eq2.run();
    };
    // 8 sets * 64 B = 512 B stride hits the same L2 set.
    for (int i = 0; i < 20; ++i)
        touch(static_cast<std::uint64_t>(i) * 512);
    EXPECT_GT(st2.counter("l2.evictions")->value(), 0u);
    // Inclusion: evicted lines were invalidated in the L1 too, so the L1
    // must re-miss on the earliest line.
    const std::uint64_t missesBefore = l1b.misses();
    touch(0);
    EXPECT_EQ(l1b.misses(), missesBefore + 1);
}

TEST_F(CacheFixture, ConcurrentMissesNeverOverfillAnL2Set)
{
    // Two read misses to distinct lines of a set holding assoc-1 lines:
    // the first reserves the last free way, so the second finds the set
    // full and evicts the set's own LRU line before it fetches. The set
    // never holds more than assoc lines, and replacement in either set
    // evicts only that set's lines.
    EventQueue eq2;
    StatRegistry st2;
    DramChannel dram2(eq2, st2, "dram", DramParams{});
    L2Cache::Params tiny;
    tiny.sizeBytes = 8 * 1024; // 128 lines, 16-way -> 8 sets
    L2Cache l2b(eq2, st2, "l2", tiny, dram2);
    const std::uint32_t assoc = tiny.assoc;

    // 8 sets * 64 B = 512 B stride stays in one set.
    auto setA = [](std::uint32_t i) { return std::uint64_t(i) * 512; };
    auto setB = [](std::uint32_t i) { return 64 + std::uint64_t(i) * 512; };
    auto read = [&](std::uint64_t line) {
        l2b.request(0, line, false, false, [] {});
        eq2.run();
    };
    auto dramReads = [&] { return st2.counter("dram.reads")->value(); };
    auto evictions = [&] { return st2.counter("l2.evictions")->value(); };

    for (std::uint32_t i = 0; i < assoc; ++i)
        read(setB(i));
    for (std::uint32_t i = 0; i + 1 < assoc; ++i)
        read(setA(i));
    int done = 0;
    l2b.request(0, setA(assoc - 1), false, false, [&] { ++done; });
    l2b.request(0, setA(assoc), false, false, [&] { ++done; });
    eq2.run();
    ASSERT_EQ(done, 2);
    EXPECT_EQ(l2b.trackedLines(), 2 * assoc);
    EXPECT_EQ(dramReads(), 2 * assoc + 1);
    EXPECT_EQ(evictions(), 1u);

    // The victim was set A's LRU line; every other line of both sets
    // is still resident.
    std::uint64_t before = dramReads();
    for (std::uint32_t i = 1; i <= assoc; ++i)
        read(setA(i));
    for (std::uint32_t i = 0; i < assoc; ++i)
        read(setB(i));
    EXPECT_EQ(dramReads(), before) << "a resident line was lost";
    read(setA(0));
    EXPECT_EQ(dramReads(), before + 1);
    EXPECT_EQ(evictions(), 2u);

    // A miss in either full set evicts one of its own lines.
    read(setB(assoc));
    EXPECT_EQ(evictions(), 3u);
    before = dramReads();
    for (std::uint32_t i = 0; i < assoc; ++i) {
        if (i != 1) // setA(1) was the victim of setA(0)'s miss
            read(setA(i));
    }
    read(setA(assoc));
    EXPECT_EQ(dramReads(), before) << "a neighbour-set miss evicted set A";
    EXPECT_EQ(l2b.trackedLines(), 2 * assoc);
}

TEST_F(CacheFixture, MissPastEveryReservedWayRetriesThenEvicts)
{
    // assoc+1 concurrent misses to one empty set: the first assoc
    // reserve every way, so the last finds nothing to evict and waits
    // on the retry path until a fill lands and unlocks, then evicts it.
    EventQueue eq2;
    StatRegistry st2;
    DramChannel dram2(eq2, st2, "dram", DramParams{});
    L2Cache::Params tiny;
    tiny.sizeBytes = 8 * 1024; // 128 lines, 16-way -> 8 sets
    L2Cache l2b(eq2, st2, "l2", tiny, dram2);
    const std::uint32_t assoc = tiny.assoc;

    std::vector<Tick> doneAt(assoc + 1, 0);
    for (std::uint32_t i = 0; i <= assoc; ++i) {
        l2b.request(0, std::uint64_t(i) * 512, false, false,
                    [&, i] { doneAt[i] = eq2.now(); });
    }
    eq2.run();
    for (std::uint32_t i = 0; i <= assoc; ++i)
        ASSERT_GT(doneAt[i], 0u) << "request " << i << " never completed";
    const Tick firstFill =
        *std::min_element(doneAt.begin(), doneAt.end() - 1);
    EXPECT_GT(doneAt[assoc], firstFill)
        << "the last miss completed before any way was free";
    EXPECT_EQ(st2.counter("l2.evictions")->value(), 1u);
    EXPECT_EQ(st2.counter("dram.reads")->value(), assoc + 1u);
    EXPECT_EQ(l2b.trackedLines(), assoc);
}

//
// SetFill against a reference list per set (the L2's former layout).
// The L2 evicts the first least-recently-used unlocked line in fill
// order, so equal candidate order means an equal victim, ties included.
//
struct FillVsReference
{
    FillVsReference(std::uint32_t s, std::uint32_t a)
        : sets(s), assoc(a), fill(s, a), ref(s), reserved(s)
    {
    }

    std::uint32_t sets;
    std::uint32_t assoc;
    mem::SetFill fill;
    std::vector<std::vector<mem::PAddr>> ref;
    std::vector<std::uint32_t> reserved; //!< ways promised per set
    std::unordered_map<mem::LineKey, Tick> lastUse;
    std::unordered_map<mem::LineKey, bool> locked;

    std::vector<mem::PAddr>
    candidates(std::uint32_t set) const
    {
        std::vector<mem::PAddr> out;
        fill.forEach(set, [&](mem::LineKey k) {
            out.push_back(mem::lineAddr(k));
        });
        return out;
    }

    /** First unlocked line of least lastUse, as L2 replacement picks. */
    template <typename Lines>
    bool
    lruVictim(const Lines &lines, mem::PAddr &victim) const
    {
        bool found = false;
        Tick best = 0;
        for (mem::PAddr line : lines) {
            const mem::LineKey k = mem::lineKey(line);
            if (locked.at(k))
                continue;
            if (!found || lastUse.at(k) < best) {
                victim = line;
                best = lastUse.at(k);
                found = true;
            }
        }
        return found;
    }

    void
    reserve(std::uint32_t set)
    {
        fill.reserve(set);
        ++reserved[set];
    }

    /** Install into a way reserved earlier. */
    void
    install(std::uint32_t set, mem::PAddr line, Tick use)
    {
        fill.install(set, mem::lineKey(line));
        --reserved[set];
        ref[set].push_back(line);
        lastUse[mem::lineKey(line)] = use;
        locked[mem::lineKey(line)] = false;
    }

    /** Evict the set's LRU victim from both; false if all are locked. */
    bool
    evict(std::uint32_t set)
    {
        mem::PAddr fromFill = 0, fromRef = 0;
        const bool found = lruVictim(candidates(set), fromFill);
        EXPECT_EQ(found, lruVictim(ref[set], fromRef));
        if (!found)
            return false;
        EXPECT_EQ(fromFill, fromRef);
        fill.erase(set, mem::lineKey(fromFill));
        auto &r = ref[set];
        r.erase(std::find(r.begin(), r.end(), fromRef));
        return true;
    }

    void
    expectSameOrder() const
    {
        for (std::uint32_t s = 0; s < sets; ++s) {
            ASSERT_EQ(candidates(s), ref[s]) << "set " << s;
            const std::size_t taken = ref[s].size() + reserved[s];
            ASSERT_LE(taken, assoc) << "set " << s;
            ASSERT_EQ(fill.full(s), taken == assoc) << "set " << s;
        }
    }
};

TEST(SetFillDifferential, MatchesPerSetListsUnderRandomInstallAndEvict)
{
    // Small sets and a coarse clock make LRU ties common. Ways are
    // reserved ahead of their installs, as L2 misses reserve before
    // their fetch, and a set fills up to assoc lines and reservations.
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        sim::Rng rng(seed);
        FillVsReference t{4, 4};
        mem::PAddr nextLine = 0;
        std::size_t fullSteps = 0;
        for (int step = 0; step < 3000; ++step) {
            const auto set = static_cast<std::uint32_t>(rng.below(t.sets));
            const std::size_t n = t.ref[set].size();
            if (!t.fill.full(set) && (n == 0 || rng.chance(0.4))) {
                t.reserve(set);
            } else if (t.reserved[set] > 0 && rng.chance(0.6)) {
                // Lines of set s are those with index == s (mod sets).
                nextLine += 64;
                const mem::PAddr line =
                    (nextLine / 64 * t.sets + set) * 64;
                t.install(set, line, rng.below(8));
            } else if (n > 0) {
                for (mem::PAddr line : t.ref[set]) {
                    const mem::LineKey k = mem::lineKey(line);
                    t.locked[k] = rng.chance(0.25);
                    if (rng.chance(0.3))
                        t.lastUse[k] = rng.below(8);
                }
                t.evict(set);
            }
            fullSteps += t.ref[set].size() == t.assoc;
            t.expectSameOrder();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_GT(fullSteps, 0u) << "seed " << seed
                                 << " never filled a set with lines";
    }
}

TEST(SetFill, AssocBeyondSixteenBitCountsIsFatal)
{
    EXPECT_NO_THROW(mem::SetFill(1, mem::SetFill::kMaxAssoc));
    EXPECT_THROW(mem::SetFill(1, mem::SetFill::kMaxAssoc + 1),
                 sim::FatalError);
}

TEST(SetFillDeathTest, ErasingALineMissingFromItsSetIsFatal)
{
    mem::SetFill fill(2, 2);
    fill.reserve(0);
    fill.reserve(0);
    fill.install(0, 0);
    fill.install(0, 2);
    EXPECT_DEATH(fill.erase(0, 6), "not in set 0");
    EXPECT_DEATH(fill.erase(1, 0), "not in set 1");
}

TEST(SetFillDeathTest, InstallWithoutAReservationIsFatal)
{
    mem::SetFill fill(2, 2);
    EXPECT_DEATH(fill.install(0, 0), "without a reservation in set 0");
    fill.reserve(1);
    fill.install(1, 1);
    EXPECT_DEATH(fill.install(1, 3), "without a reservation in set 1");
}

TEST(SetFillDeathTest, ReserveInAFullSetIsFatal)
{
    mem::SetFill fill(2, 2);
    fill.reserve(0);
    fill.reserve(0);
    EXPECT_DEATH(fill.reserve(0), "reserve in full set 0");
    fill.install(0, 0);
    fill.install(0, 2);
    EXPECT_DEATH(fill.reserve(0), "reserve in full set 0");
    fill.erase(0, 0);
    fill.reserve(0); // an eviction frees a way
}

TEST_F(CacheFixture, ConcurrentMixedTrafficCompletes)
{
    // Property-style smoke: many interleaved reads/writes from two L1s to
    // overlapping lines all complete, and no DRAM read is issued twice for
    // a line both L1s share via L2.
    int done = 0;
    const int kOps = 400;
    for (int i = 0; i < kOps; ++i) {
        L1Cache &l1 = (i % 3 == 0) ? rmc : core;
        const std::uint64_t addr = (static_cast<std::uint64_t>(i) % 32) * 64;
        const bool write = (i % 7 == 0);
        eq.schedule(static_cast<Tick>(i) * 100,
                    [&, addr, write, i]() mutable {
                        L1Cache &target = (i % 3 == 0) ? rmc : core;
                        (void)l1;
                        target.access(addr, write, [&] { ++done; });
                    });
    }
    eq.run();
    EXPECT_EQ(done, kOps);
    // 32 distinct lines -> at most 32 cold DRAM reads.
    EXPECT_LE(stats.counter("dram.reads")->value(), 32u);
}

} // namespace
