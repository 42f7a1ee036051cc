/**
 * @file
 * Node-local coherent cache hierarchy (timing model).
 *
 * Per node: any number of private L1 caches (one per core, plus one for
 * the RMC — the paper's key integration point) backed by a shared,
 * inclusive L2 with a full-map directory. MESI-reduced MSI states per L1
 * line; coherence transactions serialize per line at the L2, which keeps
 * the protocol race-free while preserving the latency behaviour that
 * matters (cache-to-cache transfers for queue-pair polling).
 *
 * Functional data lives in PhysMem (see DESIGN.md); these classes model
 * timing only.
 */

#ifndef SONUMA_MEM_CACHE_HH
#define SONUMA_MEM_CACHE_HH

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/dram.hh"
#include "sim/callback.hh"
#include "sim/flat_map.hh"
#include "sim/slot_pool.hh"
#include "mem/phys_mem.hh"
#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sonuma::mem {

class L2Cache;

/** A cache line as a 32-bit index (address >> 6); see node::validate. */
using LineKey = std::uint32_t;

inline LineKey
lineKey(PAddr line)
{
    return static_cast<LineKey>(line / sim::kCacheLineBytes);
}

inline PAddr
lineAddr(LineKey key)
{
    return PAddr(key) * sim::kCacheLineBytes;
}

/**
 * Fill order of every set of a set-associative cache, in one flat
 * array. Set s keeps its lines in ways [s * assoc, ...), oldest first.
 *
 * A miss reserves a way of its set before it fetches, and its fill
 * installs into that way, so lines plus reservations never exceed
 * `assoc`: a set never holds more lines than the cache has ways.
 * Erasing a way shifts the later ways down, so forEach() visits a
 * set's lines in install order, the order in which LRU replacement
 * breaks ties.
 */
class SetFill
{
  public:
    /** Largest associativity; the per-set counts are 16 bits. */
    static constexpr std::uint32_t kMaxAssoc = 0xffff;

    SetFill(std::uint32_t numSets, std::uint32_t assoc);

    /** True when every way of @p set holds a line or is reserved. */
    bool
    full(std::uint32_t set) const
    {
        return std::uint32_t(counts_[set].lines) + counts_[set].reserved ==
               assoc_;
    }

    /** Promise a way of @p set to a fill; panics if the set is full. */
    void reserve(std::uint32_t set);

    /**
     * Append @p key as the newest line of @p set, in a way reserved
     * for it; panics if the set has no reservation.
     */
    void install(std::uint32_t set, LineKey key);

    /** Remove @p key from @p set; panics if the set does not hold it. */
    void erase(std::uint32_t set, LineKey key);

    /** Call @p visit(key) for every line of @p set, oldest first. */
    template <typename F>
    void
    forEach(std::uint32_t set, F &&visit) const
    {
        const LineKey *ways = &ways_[std::size_t(set) * assoc_];
        for (std::uint32_t w = 0; w < counts_[set].lines; ++w)
            visit(ways[w]);
    }

  private:
    struct Counts
    {
        std::uint16_t lines = 0;    //!< valid ways, from way 0
        std::uint16_t reserved = 0; //!< ways promised to fills
    };

    std::uint32_t assoc_;
    std::vector<LineKey> ways_;  //!< [set * assoc + way]
    std::vector<Counts> counts_; //!< [set], 4 B each
};

/** Cache geometry/timing configuration. */
struct CacheParams
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t latencyCycles = 3;  //!< tag+data access
    std::uint32_t mshrs = 32;
    double freqGhz = 2.0;

    sim::Tick
    latency() const
    {
        return sim::Clock(freqGhz).cycles(latencyCycles);
    }
};

/**
 * A private L1 cache (write-back, write-allocate) attached to an L2.
 *
 * All accesses are at cache-line granularity; callers align/split.
 * Completion is via callback after the full coherence transaction.
 */
class L1Cache
{
  public:
    L1Cache(sim::EventQueue &eq, sim::StatRegistry &stats, std::string name,
            const CacheParams &params, L2Cache &l2);

    L1Cache(const L1Cache &) = delete;
    L1Cache &operator=(const L1Cache &) = delete;

    /**
     * Timed access to the line containing @p addr.
     *
     * @param write true to acquire write (M) permission
     * @param done fires when the access commits
     */
    void access(PAddr addr, bool write, sim::Callback done);

    /**
     * Timed full-line store (the RMC's cache-line-wide interface,
     * paper §4.3). Like a write access, but an L2 miss allocates the
     * line without fetching stale data from DRAM since every byte is
     * overwritten ("write-validate").
     */
    void accessFullLineWrite(PAddr addr, sim::Callback done);

    /** Awaitable wrapper for coroutine users. */
    auto
    accessAwait(PAddr addr, bool write)
    {
        struct AccessAwaiter
        {
            L1Cache &cache;
            PAddr addr;
            bool write;

            bool await_ready() const noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                cache.access(addr, write, [h] { h.resume(); });
            }

            void await_resume() const noexcept {}
        };
        return AccessAwaiter{*this, addr, write};
    }

    /** Number of in-flight MSHRs (for tests). */
    std::size_t inflight() const { return mshrsInUse_; }

    const std::string &name() const { return name_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

  private:
    friend class L2Cache;

    enum class State : std::uint8_t { kInvalid, kShared, kModified };

    struct LineInfo
    {
        PAddr tag = 0;
        State state = State::kInvalid;
        sim::Tick lastUse = 0;
        bool valid = false;
    };

    /**
     * Miss-status holding register. Fixed slots (params.mshrs of them,
     * linear-scanned — the hardware's CAM): an unordered_map here would
     * allocate a node per miss, and queue-pair polling makes misses the
     * steady state. The waiters vector keeps its capacity across reuse,
     * so it grows to the deepest merge the run reaches and stops.
     */
    struct Mshr
    {
        bool busy = false;
        PAddr line = 0;
        bool write = false;               //!< permission being requested
        std::vector<std::pair<bool, sim::Callback>> waiters;
    };

    void accessImpl(PAddr addr, bool write, bool fullLine,
                    sim::Callback done);

    /**
     * A timed access parked while its L1 latency elapses (or while all
     * MSHRs are busy). Slot-table storage keeps the scheduled event's
     * capture at {this, slot} so it stays inline in sim::Callback.
     */
    struct PendingAccess
    {
        PAddr addr = 0;
        bool write = false;
        bool fullLine = false;
        sim::Callback done;
    };

    void fireAccess(std::uint32_t slot);

    sim::EventQueue &eq_;
    std::string name_;
    CacheParams params_;
    L2Cache &l2_;
    int l1Id_ = -1;

    std::uint32_t numSets_;
    std::vector<LineInfo> sets_; //!< [set * assoc + way]
    std::vector<Mshr> mshrs_;    //!< fixed slots (CAM)
    std::size_t mshrsInUse_ = 0;
    // Scratch for draining one MSHR's waiters after its slot is freed
    // (capacity persists; see handleFill).
    std::vector<std::pair<bool, sim::Callback>> fillScratch_;
    sim::SlotPool<PendingAccess> accessSlots_;
    sim::RingBuffer<PendingAccess> blocked_; //!< retry when an MSHR frees
    // PutMs in flight to the L2. A handful at most: linear vector, no
    // per-insert heap node.
    std::vector<PAddr> pendingPutbacks_;

    sim::Counter hits_;
    sim::Counter misses_;
    sim::Counter writebacks_;
    sim::Counter probes_;
    sim::Counter upgrades_;

    static PAddr lineOf(PAddr addr) { return addr & ~PAddr(63); }
    std::uint32_t setOf(PAddr line) const;
    LineInfo *firstWay(PAddr line); //!< ways of line's set, in order
    LineInfo *findLine(PAddr line);
    LineInfo *allocLine(PAddr line); //!< may trigger victim writeback

    Mshr *findMshr(PAddr line);
    bool pendingPutback(PAddr line) const;
    void erasePendingPutback(PAddr line);

    void startMiss(PAddr line, bool write, bool fullLine,
                   sim::Callback done);
    void handleFill(PAddr line, bool grantedWrite);
    void retryBlocked();

    /**
     * Coherence probe from the directory. Invalidate or downgrade; returns
     * true (via callback semantics at L2) once the probe took effect.
     * @param invalidate true for invalidation, false for downgrade to S
     * @retval true if this L1 had the line in M (data forwarded)
     */
    bool handleProbe(PAddr line, bool invalidate);
};

/**
 * Shared, inclusive L2 with a full-map directory over the attached L1s,
 * backed by a DRAM channel. Transactions serialize per line.
 */
class L2Cache
{
  public:
    struct Params
    {
        std::uint64_t sizeBytes = 4ull * 1024 * 1024;
        std::uint32_t assoc = 16;
        std::uint32_t latencyCycles = 6;
        std::uint32_t probeLatencyCycles = 4; //!< L2 <-> L1 probe hop
        double freqGhz = 2.0;

        sim::Tick
        latency() const
        {
            return sim::Clock(freqGhz).cycles(latencyCycles);
        }

        sim::Tick
        probeLatency() const
        {
            return sim::Clock(freqGhz).cycles(probeLatencyCycles);
        }
    };

    L2Cache(sim::EventQueue &eq, sim::StatRegistry &stats, std::string name,
            const Params &params, DramChannel &dram);

    L2Cache(const L2Cache &) = delete;
    L2Cache &operator=(const L2Cache &) = delete;

    /** Attach an L1; returns its directory id. */
    int registerL1(L1Cache *l1);

    /**
     * L1-initiated request for a line.
     * @param requester directory id of the requesting L1
     * @param write true for GetM (exclusive), false for GetS
     * @param fullLine the requester overwrites the whole line, so an L2
     *        miss may allocate without a DRAM fetch
     * @param done fires when permission is granted
     */
    void request(int requester, PAddr line, bool write, bool fullLine,
                 sim::Callback done);

    /** L1 write-back of a modified line (PutM). */
    void putback(int requester, PAddr line);

    /** Total directory-tracked lines (for tests). */
    std::size_t trackedLines() const { return lines_.size(); }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t cacheToCacheTransfers() const { return c2c_.value(); }

    const Params &params() const { return params_; }

  private:
    /**
     * Directory state of one resident line: 16 B, so a directory slot
     * (with its 32-bit line key and fill flag) is 24 B.
     */
    struct DirEntry
    {
        sim::Tick lastUse = 0;
        std::uint32_t sharers = 0; //!< bitmask over L1 ids (<= 32)
        std::int8_t owner = -1;    //!< L1 id holding M, or -1
        bool dirtyInL2 = false;
    };
    static_assert(sizeof(DirEntry) == 16);

    struct PendingReq
    {
        int requester;
        bool write;
        bool fullLine = false;
        bool isPutback = false;
        sim::Callback done;
    };

    sim::EventQueue &eq_;
    std::string name_;
    Params params_;
    DramChannel &dram_;
    std::vector<L1Cache *> l1s_;

    std::uint32_t numSets_;
    // Inclusive tag+directory state, keyed by line index. A line present
    // here is present in the L2 and in its set's fill order (fill_).
    // Flat map, not unordered_map: directory inserts happen on every
    // cold line and must not churn heap nodes once the working set is
    // resident. It grows with the lines the run touches and stays put
    // under replacement (erase leaves no tombstones).
    sim::FlatMap<LineKey, DirEntry> lines_;
    SetFill fill_; //!< per-set install order and reserved ways

    /**
     * Per-line transaction serialization. lockIndex_ maps a locked
     * line to its entry in locks_; unlocked entries wait on freeLocks_.
     * Concurrently locked lines are bounded by in-flight transactions,
     * so registerL1 sizes all three for each L1's MSHRs plus as many
     * in-flight putbacks: locking, unlocking and the replacement scan's
     * "is this line locked?" are O(1) and never allocate in steady
     * state. A lock entry keeps its waiting ring's capacity across
     * reuse.
     */
    struct LockEntry
    {
        sim::RingBuffer<PendingReq> waiting{2};
    };
    std::vector<LockEntry> locks_;
    std::vector<std::uint32_t> freeLocks_;
    sim::FlatMap<LineKey, std::uint32_t> lockIndex_;

    sim::Counter hits_;
    sim::Counter misses_;
    sim::Counter c2c_;
    sim::Counter evictions_;
    sim::Counter dramRetries_;

    /**
     * Requests parked on a scheduled event (the L2 tag latency before
     * process(), or the probe latency before completion). As in the L1,
     * slot storage keeps event captures at {this, slot}.
     */
    struct ParkedReq
    {
        PAddr line = 0;
        PendingReq req;
    };

    sim::SlotPool<ParkedReq> reqSlots_;

    std::uint32_t setOf(LineKey key) const { return key % numSets_; }
    bool lockLine(PAddr line, PendingReq req);
    void unlockLine(PAddr line);
    void process(PAddr line, PendingReq req);
    void fireProcess(std::uint32_t slot);
    void fireCompletion(std::uint32_t slot);
    void finishRequest(PAddr line, PendingReq &req);

    //
    // L2 miss path. The missing request is parked in reqSlots_ and only
    // {this, line, slot} travels through the continuations — parking
    // keeps every capture inside sim::Callback's inline buffer (the
    // PendingReq itself holds a Callback and would overflow it).
    //
    void ensureCapacity(PAddr line, std::uint32_t slot);
    void fillMissingLine(PAddr line, std::uint32_t slot);
    void fetchFromDram(PAddr line, std::uint32_t slot);
    void installLine(PAddr line, std::uint32_t slot);

    void writebackToDram(PAddr line);
};

} // namespace sonuma::mem

#endif // SONUMA_MEM_CACHE_HH
