/**
 * @file
 * Open-addressed hash map over flat vector storage.
 *
 * Replaces std::unordered_map on simulation hot paths: a node-based map
 * allocates (and frees) one heap node per insert (erase), so structures
 * that track a growing-then-stable working set — the L2 directory being
 * the canonical case — would keep touching the allocator in steady
 * state. This map stores slots inline, probes linearly, and allocates
 * only when its live entries pass the load factor: a warm-up cost,
 * zero in steady state, exactly like sim::RingBuffer and sim::SlotPool.
 *
 * Erase uses backward-shift deletion: the entries after the erased slot
 * in its probe run move back to close the gap, so the table never holds
 * tombstones. Capacity therefore tracks the peak number of live
 * entries, and insert/erase churn over distinct keys (FIFO eviction,
 * L2 replacement) never grows or rehashes it. Iteration order is
 * deliberately not exposed: the simulator must never depend on hash
 * order for determinism.
 */

#ifndef SONUMA_SIM_FLAT_MAP_HH
#define SONUMA_SIM_FLAT_MAP_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sonuma::sim {

template <typename K, typename V>
class FlatMap
{
  public:
    explicit FlatMap(std::size_t initialCapacity = 16)
    {
        std::size_t cap = 16;
        while (cap < initialCapacity)
            cap *= 2;
        slots_.resize(cap);
    }

    std::size_t size() const { return full_; }
    bool empty() const { return full_ == 0; }

    /** Number of slots; changes only when live entries pass 0.7 of it. */
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Size the table so that @p n live entries never grow it: a table
     * whose bound is known up front pays its one rehash here, not on
     * a hot path.
     */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = slots_.size();
        while (n * 10 >= cap * 7)
            cap *= 2;
        if (cap != slots_.size())
            rehash(cap);
    }

    /** Pointer to the mapped value, or nullptr. */
    V *
    find(const K &key)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (!s.full)
                return nullptr;
            if (s.key == key)
                return &s.val;
        }
    }

    const V *
    find(const K &key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /** Mapped value of a key that must be present. */
    V &
    get(const K &key)
    {
        V *v = find(key);
        assert(v && "FlatMap::get of an absent key");
        return *v;
    }

    /**
     * Insert @p key -> @p val; replaces the value if the key exists.
     * @return reference to the mapped value.
     */
    V &
    insert(const K &key, V val)
    {
        maybeGrow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (s.full && s.key == key) {
                s.val = std::move(val);
                return s.val;
            }
            if (!s.full) {
                s.full = true;
                s.key = key;
                s.val = std::move(val);
                ++full_;
                return s.val;
            }
        }
    }

    /** @retval true if the key was present and removed. */
    bool
    erase(const K &key)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t hole = hash(key) & mask;
        for (;; hole = (hole + 1) & mask) {
            if (!slots_[hole].full)
                return false;
            if (slots_[hole].key == key)
                break;
        }
        // Shift later members of the probe run back into the hole. An
        // entry may move only if its home slot does not lie cyclically
        // in (hole, j]; otherwise a lookup starting at its home would
        // pass over the hole before reaching it.
        for (std::size_t j = (hole + 1) & mask; slots_[j].full;
             j = (j + 1) & mask) {
            const std::size_t home = hash(slots_[j].key) & mask;
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                slots_[hole].key = slots_[j].key;
                slots_[hole].val = std::move(slots_[j].val);
                hole = j;
            }
        }
        slots_[hole].full = false;
        slots_[hole].val = V{}; // release held resources eagerly
        --full_;
        return true;
    }

  private:
    struct Slot
    {
        bool full = false;
        K key{};
        V val{};
    };

    std::vector<Slot> slots_;
    std::size_t full_ = 0; //!< live entries

    static std::size_t
    hash(const K &key)
    {
        // splitmix64 finalizer: line addresses are highly regular, so
        // spread them before masking.
        auto x = static_cast<std::uint64_t>(key);
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>(x ^ (x >> 31));
    }

    void
    maybeGrow()
    {
        if ((full_ + 1) * 10 >= slots_.size() * 7)
            rehash(slots_.size() * 2);
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<Slot> old(cap);
        old.swap(slots_);
        full_ = 0;
        for (Slot &s : old) {
            if (s.full)
                insert(s.key, std::move(s.val));
        }
    }
};

} // namespace sonuma::sim

#endif // SONUMA_SIM_FLAT_MAP_HH
