/**
 * @file
 * Tests for sparse functional physical memory: zero semantics, chunk
 * boundaries, and that only writes create backing chunks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/phys_mem.hh"

namespace {

using sonuma::mem::PhysMem;

TEST(PhysMem, ZeroInitialized)
{
    PhysMem m(1 << 20);
    EXPECT_EQ(m.readT<std::uint64_t>(0), 0u);
    EXPECT_EQ(m.readT<std::uint64_t>((1 << 20) - 8), 0u);
}

TEST(PhysMem, ReadBackWritten)
{
    PhysMem m(1 << 20);
    m.writeT<std::uint64_t>(128, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(m.readT<std::uint64_t>(128), 0xdeadbeefcafef00dULL);
}

TEST(PhysMem, CrossChunkAccess)
{
    // Chunk size is 1 MiB; write a buffer straddling the boundary.
    PhysMem m(4ull << 20);
    std::vector<std::uint8_t> src(4096);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 13);
    const std::uint64_t addr = (1ull << 20) - 1000;
    m.write(addr, src.data(), src.size());
    std::vector<std::uint8_t> dst(src.size());
    m.read(addr, dst.data(), dst.size());
    EXPECT_EQ(src, dst);
}

TEST(PhysMem, SparseChunksOnlyMaterializeWhenTouched)
{
    // A 64 GB space must construct without allocating 64 GB.
    PhysMem m(64ull << 30);
    m.writeT<std::uint32_t>(48ull << 30, 7);
    EXPECT_EQ(m.readT<std::uint32_t>(48ull << 30), 7u);
}

TEST(PhysMem, FetchAdd64)
{
    PhysMem m(1 << 16);
    m.writeT<std::uint64_t>(64, 100);
    EXPECT_EQ(m.fetchAdd64(64, 5), 100u);
    EXPECT_EQ(m.fetchAdd64(64, 5), 105u);
    EXPECT_EQ(m.readT<std::uint64_t>(64), 110u);
}

TEST(PhysMem, CompareSwap64SucceedsOnMatch)
{
    PhysMem m(1 << 16);
    m.writeT<std::uint64_t>(8, 42);
    EXPECT_EQ(m.compareSwap64(8, 42, 77), 42u);
    EXPECT_EQ(m.readT<std::uint64_t>(8), 77u);
}

TEST(PhysMem, CompareSwap64FailsOnMismatch)
{
    PhysMem m(1 << 16);
    m.writeT<std::uint64_t>(8, 42);
    EXPECT_EQ(m.compareSwap64(8, 41, 77), 42u);
    EXPECT_EQ(m.readT<std::uint64_t>(8), 42u);
}

TEST(PhysMem, FillSetsRange)
{
    PhysMem m(1 << 16);
    m.fill(100, 0xab, 300);
    for (std::uint64_t a = 100; a < 400; ++a) {
        std::uint8_t b;
        m.read(a, &b, 1);
        EXPECT_EQ(b, 0xab);
    }
    std::uint8_t before, after;
    m.read(99, &before, 1);
    m.read(400, &after, 1);
    EXPECT_EQ(before, 0);
    EXPECT_EQ(after, 0);
}

TEST(PhysMem, ReadingUnwrittenMemoryCreatesNoChunk)
{
    PhysMem m(8ull << 20);
    // A read spanning four never-written chunks returns zeros.
    std::vector<std::uint8_t> buf(3ull << 20, 0xff);
    m.read(512 * 1024, buf.data(), buf.size());
    EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                            [](std::uint8_t b) { return b == 0; }));
    EXPECT_EQ(m.readT<std::uint64_t>((8ull << 20) - 8), 0u);
    // Zeroing memory that already reads as zero, and an atomic that
    // fails its compare, leave it unwritten too.
    m.fill(0, 0, 2ull << 20);
    EXPECT_EQ(m.compareSwap64(64, 1, 2), 0u);
    EXPECT_EQ(m.chunksCreated(), 0u);
}

TEST(PhysMem, WritesCreateOnlyTheChunksTheyTouch)
{
    PhysMem m(8ull << 20);
    std::vector<std::uint8_t> src(200);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i + 1);
    const std::uint64_t addr = (3ull << 20) - 100; // chunks 2 and 3
    m.write(addr, src.data(), src.size());
    EXPECT_EQ(m.chunksCreated(), 2u);

    std::vector<std::uint8_t> dst(src.size() + 2);
    m.read(addr - 1, dst.data(), dst.size());
    EXPECT_EQ(dst.front(), 0);
    EXPECT_EQ(dst.back(), 0);
    EXPECT_TRUE(std::equal(src.begin(), src.end(), dst.begin() + 1));
    EXPECT_EQ(m.chunksCreated(), 2u);
}

TEST(PhysMem, FillAndAtomicsWorkOnFreshChunks)
{
    PhysMem m(4ull << 20);
    EXPECT_EQ(m.fetchAdd64(1ull << 20, 5), 0u);
    EXPECT_EQ(m.readT<std::uint64_t>(1ull << 20), 5u);
    EXPECT_EQ(m.compareSwap64(2ull << 20, 0, 9), 0u);
    EXPECT_EQ(m.readT<std::uint64_t>(2ull << 20), 9u);

    // A fill crossing from chunk 2 into the fresh chunk 3.
    const std::uint64_t addr = (3ull << 20) - 10;
    m.fill(addr, 0x5a, 20);
    EXPECT_EQ(m.chunksCreated(), 3u);
    for (std::uint64_t a = addr; a < addr + 20; ++a)
        EXPECT_EQ(m.readT<std::uint8_t>(a), 0x5a) << a;
    EXPECT_EQ(m.readT<std::uint8_t>(addr + 20), 0);

    // Zeroing written bytes does write.
    m.fill(addr, 0, 20);
    for (std::uint64_t a = addr; a < addr + 20; ++a)
        EXPECT_EQ(m.readT<std::uint8_t>(a), 0) << a;
}

TEST(PhysMemDeathTest, OutOfRangePanics)
{
    PhysMem m(1024);
    std::uint8_t b = 0;
    EXPECT_DEATH(m.read(1024, &b, 1), "out of range");
    EXPECT_DEATH(m.write(1020, &b, 8), "out of range");
}

} // namespace
