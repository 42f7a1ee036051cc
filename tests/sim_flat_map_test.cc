/**
 * @file
 * sim::FlatMap unit tests: the open-addressed map behind the L2
 * directory. Correctness across insert/find/backward-shift erase and
 * growth, plus the fixed-capacity-under-churn contract it exists for.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "sim/flat_map.hh"

namespace {

using sonuma::sim::FlatMap;

TEST(FlatMap, InsertFindEraseBasics)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(42), nullptr);

    m.insert(42, 7);
    ASSERT_NE(m.find(42), nullptr);
    EXPECT_EQ(*m.find(42), 7);
    EXPECT_EQ(m.size(), 1u);

    // Insert on an existing key replaces the value, not the count.
    m.insert(42, 9);
    EXPECT_EQ(*m.find(42), 9);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.get(42), 9);

    EXPECT_TRUE(m.erase(42));
    EXPECT_FALSE(m.erase(42));
    EXPECT_EQ(m.find(42), nullptr);
    EXPECT_TRUE(m.empty());
}

TEST(FlatMap, GrowthAndEraseAgreeWithReferenceMap)
{
    FlatMap<std::uint64_t, std::uint64_t> m(4);
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    // Cache-line-like keys (64-byte strides) with interleaved erases:
    // erases land in the middle of probe runs, so the entries behind
    // them must shift back without getting lost.
    for (std::uint64_t i = 0; i < 4000; ++i) {
        const std::uint64_t key = (i * 64) ^ ((i % 7) << 20);
        m.insert(key, i);
        ref[key] = i;
        if (i % 3 == 0) {
            const std::uint64_t victim = ((i / 2) * 64) ^
                                         (((i / 2) % 7) << 20);
            EXPECT_EQ(m.erase(victim), ref.erase(victim) == 1);
        }
    }
    EXPECT_EQ(m.size(), ref.size());
    for (const auto &[k, v] : ref) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(*m.find(k), v);
    }
}

TEST(FlatMap, RandomChurnOnADenseTableAgreesWithReferenceMap)
{
    // Few slots, long probe runs that wrap past the end of the slot
    // array: every backward shift on erase is checked against a
    // reference after each operation.
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::uint64_t x = 12345;
    const auto next = [&x] {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return x >> 33;
    };
    constexpr std::uint64_t kKeys = 40;
    for (std::uint64_t op = 0; op < 50'000; ++op) {
        const std::uint64_t key = next() % kKeys;
        if (next() % 2) {
            m.insert(key, op);
            ref[key] = op;
        } else {
            ASSERT_EQ(m.erase(key), ref.erase(key) == 1) << op;
        }
        ASSERT_EQ(m.size(), ref.size());
        for (std::uint64_t k = 0; k < kKeys; ++k) {
            const auto it = ref.find(k);
            const std::uint64_t *v = m.find(k);
            ASSERT_EQ(v != nullptr, it != ref.end()) << op << " " << k;
            if (v) {
                ASSERT_EQ(*v, it->second);
            }
        }
    }
    // 40 keys never pass 0.7 of 64 slots.
    EXPECT_EQ(m.capacity(), 64u);
}

TEST(FlatMap, SteadyStateChurnDoesNotGrowStorage)
{
    // Erase/insert churn over a fixed working set.
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t i = 0; i < 64; ++i)
        m.insert(i * 64, 1);
    const std::size_t cap = m.capacity();
    for (int round = 0; round < 1000; ++round) {
        const std::uint64_t k = std::uint64_t(round % 64) * 64;
        EXPECT_TRUE(m.erase(k));
        m.insert(k, round);
        EXPECT_EQ(m.size(), 64u);
    }
    EXPECT_EQ(m.capacity(), cap);
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_NE(m.find(i * 64), nullptr);

    // FIFO churn over distinct keys: a window of 32 live keys slides
    // across 200k fresh ones, the pattern of L2 replacement and of the
    // RRPP dedup window. The table must keep the size the live window
    // needs; erased slots must not count toward its load.
    constexpr std::uint64_t kLive = 32;
    FlatMap<std::uint64_t, std::uint64_t> fifo;
    for (std::uint64_t k = 0; k < kLive; ++k)
        fifo.insert(k * 64, k);
    const std::size_t fifoCap = fifo.capacity();
    for (std::uint64_t k = kLive; k < 200'000; ++k) {
        ASSERT_TRUE(fifo.erase((k - kLive) * 64));
        fifo.insert(k * 64, k);
    }
    EXPECT_EQ(fifo.capacity(), fifoCap);
    EXPECT_EQ(fifo.size(), kLive);
    for (std::uint64_t k = 200'000 - kLive; k < 200'000; ++k) {
        ASSERT_NE(fifo.find(k * 64), nullptr) << k;
        EXPECT_EQ(*fifo.find(k * 64), k);
    }
    EXPECT_EQ(fifo.find((200'000 - kLive - 1) * 64), nullptr);
}

TEST(FlatMap, ReserveSizesTheTableOnce)
{
    // The L2 lock index reserves its bound once; any number of live
    // entries up to that bound, and churn below it, must not rehash.
    constexpr std::uint32_t kBound = 128;
    FlatMap<std::uint32_t, std::uint32_t> m;
    m.reserve(kBound);
    const std::size_t cap = m.capacity();
    EXPECT_GT(cap * 7, kBound * 10);
    for (std::uint32_t k = 0; k < kBound; ++k)
        m.insert(k * 7919, k);
    EXPECT_EQ(m.capacity(), cap);
    for (std::uint32_t k = kBound; k < 50'000; ++k) {
        ASSERT_TRUE(m.erase((k - kBound) * 7919));
        m.insert(k * 7919, k);
    }
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.size(), kBound);

    // Reserving on a populated table keeps every entry.
    m.reserve(4 * kBound);
    EXPECT_GT(m.capacity(), cap);
    for (std::uint32_t k = 50'000 - kBound; k < 50'000; ++k) {
        ASSERT_NE(m.find(k * 7919), nullptr) << k;
        EXPECT_EQ(*m.find(k * 7919), k);
    }
    m.reserve(kBound); // never shrinks
    EXPECT_GT(m.capacity(), cap);
}

} // namespace
