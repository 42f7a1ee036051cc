/**
 * @file
 * Coherent cache hierarchy implementation.
 */

#include "mem/cache.hh"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <string>

#include "sim/log.hh"

namespace sonuma::mem {

namespace {

/** Hex address of a line, for diagnostics. */
std::string
hexLine(LineKey key)
{
    std::ostringstream os;
    os << std::hex << lineAddr(key);
    return os.str();
}

/** Sets of a cache geometry; 0 when it cannot hold one full set. */
std::uint32_t
setsOf(std::uint64_t sizeBytes, std::uint32_t assoc)
{
    return assoc ? static_cast<std::uint32_t>(
                       sizeBytes / sim::kCacheLineBytes / assoc)
                 : 0;
}

} // namespace

//
// ------------------------------- L1 -----------------------------------
//

L1Cache::L1Cache(sim::EventQueue &eq, sim::StatRegistry &stats,
                 std::string name, const CacheParams &params, L2Cache &l2)
    : eq_(eq), name_(std::move(name)), params_(params), l2_(l2),
      hits_(stats, name_ + ".hits", "L1 hits"),
      misses_(stats, name_ + ".misses", "L1 misses"),
      writebacks_(stats, name_ + ".writebacks", "L1 dirty evictions"),
      probes_(stats, name_ + ".probes", "coherence probes received"),
      upgrades_(stats, name_ + ".upgrades", "S->M upgrade requests")
{
    numSets_ = setsOf(params_.sizeBytes, params_.assoc);
    if (numSets_ == 0)
        sim::fatal(name_ + ": an L1 must hold at least one set of assoc "
                           "lines (see node::validate)");
    sets_.resize(std::size_t(numSets_) * params_.assoc);
    mshrs_.resize(params_.mshrs);
    // Waiter lists and the fill scratch reserve nothing: each grows to
    // the deepest merge the run reaches during warm-up and keeps that
    // capacity. Putbacks in flight are few and rare (one per dirty
    // eviction), so a first one can land after warm-up; their list
    // reserves one entry per MSHR, a few hundred bytes.
    pendingPutbacks_.reserve(params_.mshrs);
    l1Id_ = l2_.registerL1(this);
}

L1Cache::Mshr *
L1Cache::findMshr(PAddr line)
{
    for (auto &m : mshrs_) {
        if (m.busy && m.line == line)
            return &m;
    }
    return nullptr;
}

bool
L1Cache::pendingPutback(PAddr line) const
{
    for (const PAddr p : pendingPutbacks_) {
        if (p == line)
            return true;
    }
    return false;
}

void
L1Cache::erasePendingPutback(PAddr line)
{
    for (auto &p : pendingPutbacks_) {
        if (p == line) {
            p = pendingPutbacks_.back();
            pendingPutbacks_.pop_back();
            return;
        }
    }
}

std::uint32_t
L1Cache::setOf(PAddr line) const
{
    return static_cast<std::uint32_t>((line / sim::kCacheLineBytes) %
                                      numSets_);
}

L1Cache::LineInfo *
L1Cache::firstWay(PAddr line)
{
    return &sets_[std::size_t(setOf(line)) * params_.assoc];
}

L1Cache::LineInfo *
L1Cache::findLine(PAddr line)
{
    LineInfo *ways = firstWay(line);
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (ways[w].valid && ways[w].tag == line)
            return &ways[w];
    }
    return nullptr;
}

L1Cache::LineInfo *
L1Cache::allocLine(PAddr line)
{
    if (LineInfo *existing = findLine(line))
        return existing; // upgrade fill: line already resident

    LineInfo *ways = firstWay(line);
    LineInfo *victim = nullptr;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (!ways[w].valid) {
            victim = &ways[w];
            break;
        }
    }
    if (!victim) {
        for (std::uint32_t w = 0; w < params_.assoc; ++w) {
            // Never victimize a line with an outstanding transaction.
            if (findMshr(ways[w].tag))
                continue;
            if (!victim || ways[w].lastUse < victim->lastUse)
                victim = &ways[w];
        }
    }
    assert(victim && "no evictable way (all have pending MSHRs)");

    if (victim->valid && victim->state == State::kModified) {
        writebacks_.inc();
        pendingPutbacks_.push_back(victim->tag);
        l2_.putback(l1Id_, victim->tag);
    }
    victim->valid = false;
    victim->state = State::kInvalid;
    victim->tag = line;
    return victim;
}

void
L1Cache::access(PAddr addr, bool write, sim::Callback done)
{
    accessImpl(addr, write, false, std::move(done));
}

void
L1Cache::accessFullLineWrite(PAddr addr, sim::Callback done)
{
    accessImpl(addr, true, true, std::move(done));
}

void
L1Cache::accessImpl(PAddr addr, bool write, bool fullLine,
                    sim::Callback done)
{
    const std::uint32_t slot = accessSlots_.put(
        PendingAccess{lineOf(addr), write, fullLine, std::move(done)});
    eq_.scheduleAfter(params_.latency(), [this, slot] { fireAccess(slot); });
}

void
L1Cache::fireAccess(std::uint32_t slot)
{
    PendingAccess p = accessSlots_.take(slot);
    const PAddr line = p.addr;
    LineInfo *info = findLine(line);
    const bool read_hit = info && !p.write;
    const bool write_hit = info && p.write &&
                           info->state == State::kModified;
    if (read_hit || write_hit) {
        hits_.inc();
        info->lastUse = eq_.now();
        p.done();
        return;
    }
    if (info && p.write && info->state == State::kShared)
        upgrades_.inc();
    misses_.inc();
    startMiss(line, p.write, p.fullLine, std::move(p.done));
}

void
L1Cache::startMiss(PAddr line, bool write, bool fullLine,
                   sim::Callback done)
{
    if (Mshr *hit = findMshr(line)) {
        // Merge into the outstanding transaction; incompatible waiters
        // (writes joining a read request) are retried after the fill.
        hit->waiters.emplace_back(write, std::move(done));
        return;
    }
    if (mshrsInUse_ >= params_.mshrs) {
        blocked_.push(
            PendingAccess{line, write, fullLine, std::move(done)});
        return;
    }
    Mshr *mshr = nullptr;
    for (auto &m : mshrs_) {
        if (!m.busy) {
            mshr = &m;
            break;
        }
    }
    assert(mshr && "mshrsInUse_ disagrees with the slot table");
    mshr->busy = true;
    mshr->line = line;
    mshr->write = write;
    mshr->waiters.emplace_back(write, std::move(done));
    ++mshrsInUse_;
    l2_.request(l1Id_, line, write, fullLine,
                [this, line, write] { handleFill(line, write); });
}

void
L1Cache::handleFill(PAddr line, bool grantedWrite)
{
    LineInfo *info = allocLine(line);
    info->valid = true;
    info->state = grantedWrite ? State::kModified : State::kShared;
    info->lastUse = eq_.now();

    Mshr *mshr = findMshr(line);
    assert(mshr);
    // Free the slot before draining its waiters: a waiter retry or
    // retryBlocked() below may start a fresh transaction on this same
    // line. Waiters move into a scratch list so both vectors keep
    // their own capacity.
    fillScratch_.clear();
    for (auto &w : mshr->waiters)
        fillScratch_.push_back(std::move(w));
    mshr->waiters.clear();
    mshr->busy = false;
    --mshrsInUse_;
    for (auto &[w, cb] : fillScratch_) {
        if (!w || grantedWrite) {
            cb();
        } else {
            // A write waiter on a read fill: retry as an upgrade.
            access(line, true, std::move(cb));
        }
    }
    retryBlocked();
}

void
L1Cache::retryBlocked()
{
    // Retry only the entries present now; anything re-blocked by these
    // retries lands behind them and keeps its relative order.
    std::size_t n = blocked_.size();
    while (n-- > 0) {
        PendingAccess p = blocked_.popFront();
        startMiss(p.addr, p.write, p.fullLine, std::move(p.done));
    }
}

bool
L1Cache::handleProbe(PAddr line, bool invalidate)
{
    probes_.inc();
    if (pendingPutback(line)) {
        // Our PutM is in flight; answer the probe as the dirty owner.
        erasePendingPutback(line);
        return true;
    }
    LineInfo *info = findLine(line);
    if (!info)
        return false;
    const bool wasDirty = info->state == State::kModified;
    if (invalidate) {
        info->valid = false;
        info->state = State::kInvalid;
    } else if (wasDirty) {
        info->state = State::kShared;
    }
    return wasDirty;
}

//
// ----------------------------- SetFill ---------------------------------
//

SetFill::SetFill(std::uint32_t numSets, std::uint32_t assoc)
    : assoc_(assoc), ways_(std::size_t(numSets) * assoc), count_(numSets)
{
}

void
SetFill::install(std::uint32_t set, LineKey key)
{
    if (count_[set] < assoc_)
        ways_[std::size_t(set) * assoc_ + count_[set]++] = key;
    else
        overflow_.push_back(Overflow{set, key});
}

void
SetFill::erase(std::uint32_t set, LineKey key)
{
    LineKey *ways = &ways_[std::size_t(set) * assoc_];
    std::uint32_t &count = count_[set];
    auto ofSet = [set](const Overflow &o) { return o.set == set; };
    LineKey *way = std::find(ways, ways + count, key);
    if (way != ways + count) {
        std::copy(way + 1, ways + count, way);
        // The set's oldest surplus line takes the freed last way.
        auto oldest =
            std::find_if(overflow_.begin(), overflow_.end(), ofSet);
        if (oldest == overflow_.end()) {
            --count;
        } else {
            ways[count - 1] = oldest->key;
            overflow_.erase(oldest);
        }
        return;
    }
    auto it = std::find_if(overflow_.begin(), overflow_.end(),
                           [&](const Overflow &o) {
                               return ofSet(o) && o.key == key;
                           });
    if (it == overflow_.end())
        sim::panic("SetFill: erase of line 0x" + hexLine(key) +
                   " that is not in set " + std::to_string(set));
    overflow_.erase(it);
}

//
// ------------------------------- L2 -----------------------------------
//

L2Cache::L2Cache(sim::EventQueue &eq, sim::StatRegistry &stats,
                 std::string name, const Params &params, DramChannel &dram)
    : eq_(eq), name_(std::move(name)), params_(params), dram_(dram),
      numSets_(setsOf(params_.sizeBytes, params_.assoc)),
      fill_(numSets_, params_.assoc),
      hits_(stats, name_ + ".hits", "L2 hits"),
      misses_(stats, name_ + ".misses", "L2 misses"),
      c2c_(stats, name_ + ".c2cTransfers", "cache-to-cache transfers"),
      evictions_(stats, name_ + ".evictions", "L2 evictions"),
      dramRetries_(stats, name_ + ".dramRetries", "DRAM queue-full retries")
{
    if (numSets_ == 0)
        sim::fatal(name_ + ": an L2 must hold at least one set of assoc "
                           "lines (see node::validate)");
    // The directory is not presized: it grows with the lines the run
    // touches, a warm-up cost. The fill order is flat, one way array
    // for every set, so first-touch installs never allocate.
}

int
L2Cache::registerL1(L1Cache *l1)
{
    if (l1s_.size() == 32)
        sim::fatal(name_ + ": the directory's sharer bitmask holds 32 "
                           "L1s; a 33rd cannot attach");
    l1s_.push_back(l1);
    // Grow the lock table past this L1's worst-case contribution to
    // concurrent transactions (its MSHRs plus in-flight putbacks), so
    // steady-state locking never constructs a new entry whatever the
    // core count or MSHR depth. Only that many misses can race past a
    // set's capacity check at once, so the same bound reserves the
    // fill order's overflow list.
    const std::size_t first = locks_.size();
    locks_.resize(first + 2 * std::size_t(l1->params_.mshrs));
    for (std::size_t i = locks_.size(); i-- > first;)
        freeLocks_.push_back(static_cast<std::uint32_t>(i));
    lockIndex_.reserve(locks_.size());
    fill_.reserveOverflow(locks_.size());
    return static_cast<int>(l1s_.size()) - 1;
}

bool
L2Cache::lockLine(PAddr line, PendingReq req)
{
    const LineKey key = lineKey(line);
    if (const std::uint32_t *held = lockIndex_.find(key)) {
        locks_[*held].waiting.push(std::move(req));
        return false;
    }
    if (freeLocks_.empty()) {
        // Past the registerL1 bound (not reached by any known traffic):
        // grow rather than fail.
        freeLocks_.push_back(static_cast<std::uint32_t>(locks_.size()));
        locks_.emplace_back();
    }
    lockIndex_.insert(key, freeLocks_.back());
    freeLocks_.pop_back();
    const std::uint32_t slot =
        reqSlots_.put(ParkedReq{line, std::move(req)});
    eq_.scheduleAfter(params_.latency(),
                      [this, slot] { fireProcess(slot); });
    return true;
}

void
L2Cache::fireProcess(std::uint32_t slot)
{
    ParkedReq parked = reqSlots_.take(slot);
    process(parked.line, std::move(parked.req));
}

void
L2Cache::unlockLine(PAddr line)
{
    const LineKey key = lineKey(line);
    const std::uint32_t *held = lockIndex_.find(key);
    if (!held)
        sim::panic(name_ + ": unlock of line 0x" + hexLine(key) +
                   " that is not locked");
    LockEntry &entry = locks_[*held];
    if (entry.waiting.empty()) {
        freeLocks_.push_back(*held); // recycles for the next locked line
        lockIndex_.erase(key);
        return;
    }
    // Hand the lock straight to the next waiter (the line stays
    // locked), scheduling its processing exactly as lockLine would.
    PendingReq next = entry.waiting.popFront();
    const std::uint32_t slot =
        reqSlots_.put(ParkedReq{line, std::move(next)});
    eq_.scheduleAfter(params_.latency(),
                      [this, slot] { fireProcess(slot); });
}

void
L2Cache::request(int requester, PAddr line, bool write, bool fullLine,
                 sim::Callback done)
{
    lockLine(line,
             PendingReq{requester, write, fullLine, false, std::move(done)});
}

void
L2Cache::putback(int requester, PAddr line)
{
    lockLine(line, PendingReq{requester, false, false, true, nullptr});
}

void
L2Cache::process(PAddr line, PendingReq req)
{
    DirEntry *entry = lines_.find(lineKey(line));

    if (req.isPutback) {
        if (entry && entry->owner == req.requester) {
            entry->owner = -1;
            entry->sharers |= 1u << req.requester;
            entry->dirtyInL2 = true;
            entry->lastUse = eq_.now();
        }
        // Stale putbacks (owner already changed by a probe) are dropped.
        l1s_[static_cast<std::size_t>(req.requester)]
            ->erasePendingPutback(line);
        unlockLine(line);
        return;
    }

    if (entry) {
        hits_.inc();
        finishRequest(line, req);
        return;
    }

    misses_.inc();
    const std::uint32_t slot =
        reqSlots_.put(ParkedReq{line, std::move(req)});
    ensureCapacity(line, slot);
}

void
L2Cache::fillMissingLine(PAddr line, std::uint32_t slot)
{
    const PendingReq &req = reqSlots_.peek(slot).req;
    if (req.fullLine && req.write) {
        // The requester overwrites the entire line: allocate without
        // fetching stale bytes from DRAM (RMC line-wide interface).
        installLine(line, slot);
    } else {
        fetchFromDram(line, slot);
    }
}

void
L2Cache::installLine(PAddr line, std::uint32_t slot)
{
    ParkedReq parked = reqSlots_.take(slot);
    DirEntry entry;
    entry.lastUse = eq_.now();
    entry.dirtyInL2 = parked.req.fullLine; // write-validate allocation
    const LineKey key = lineKey(line);
    lines_.insert(key, entry);
    fill_.install(setOf(key), key);
    finishRequest(line, parked.req);
}

void
L2Cache::finishRequest(PAddr line, PendingReq &req)
{
    DirEntry &dir = lines_.get(lineKey(line));
    dir.lastUse = eq_.now();

    bool probed = false;
    const std::uint32_t reqBit = 1u << req.requester;

    if (req.write) {
        // GetM: invalidate every other copy.
        for (std::size_t i = 0; i < l1s_.size(); ++i) {
            const std::uint32_t bit = 1u << i;
            const bool holds = (dir.sharers & bit) ||
                               dir.owner == static_cast<int>(i);
            if (!holds || static_cast<int>(i) == req.requester)
                continue;
            probed = true;
            if (l1s_[i]->handleProbe(line, true)) {
                dir.dirtyInL2 = true;
                c2c_.inc();
            }
        }
        dir.sharers = 0;
        dir.owner = static_cast<std::int8_t>(req.requester);
    } else {
        // GetS: downgrade a remote owner if present.
        if (dir.owner != -1 && dir.owner != req.requester) {
            probed = true;
            if (l1s_[static_cast<std::size_t>(dir.owner)]->handleProbe(
                    line, false)) {
                dir.dirtyInL2 = true;
                c2c_.inc();
            }
            dir.sharers |= 1u << dir.owner;
            dir.owner = -1;
        } else if (dir.owner == req.requester) {
            // Read request from the current owner (e.g. after a silent
            // state downgrade we never see). Keep ownership.
        }
        dir.sharers |= reqBit;
    }

    const sim::Tick extra = probed ? params_.probeLatency() : 0;
    const std::uint32_t slot =
        reqSlots_.put(ParkedReq{line, std::move(req)});
    eq_.scheduleAfter(extra, [this, slot] { fireCompletion(slot); });
}

void
L2Cache::fireCompletion(std::uint32_t slot)
{
    ParkedReq parked = reqSlots_.take(slot);
    if (parked.req.done)
        parked.req.done();
    unlockLine(parked.line);
}

void
L2Cache::ensureCapacity(PAddr line, std::uint32_t slot)
{
    const std::uint32_t set = setOf(lineKey(line));
    if (!fill_.full(set)) {
        fillMissingLine(line, slot);
        return;
    }

    // Evict the LRU line in the set that is not locked or awaited.
    LineKey victim = 0;
    bool found = false;
    sim::Tick best = 0;
    fill_.forEach(set, [&](LineKey cand) {
        if (lockIndex_.find(cand))
            return;
        const sim::Tick use = lines_.get(cand).lastUse;
        if (!found || use < best) {
            victim = cand;
            best = use;
            found = true;
        }
    });
    if (!found) {
        // Every line in the set is mid-transaction; retry shortly.
        eq_.scheduleAfter(params_.latency(), [this, line, slot] {
            ensureCapacity(line, slot);
        });
        return;
    }

    evictions_.inc();
    const PAddr victimLine = lineAddr(victim);
    DirEntry &dir = lines_.get(victim);
    // Inclusive hierarchy: back-invalidate all L1 copies.
    for (std::size_t i = 0; i < l1s_.size(); ++i) {
        const std::uint32_t bit = 1u << i;
        const bool holds = (dir.sharers & bit) ||
                           dir.owner == static_cast<int>(i);
        if (holds && l1s_[i]->handleProbe(victimLine, true))
            dir.dirtyInL2 = true;
    }
    if (dir.dirtyInL2)
        writebackToDram(victimLine);
    lines_.erase(victim);
    fill_.erase(set, victim);
    fillMissingLine(line, slot);
}

void
L2Cache::fetchFromDram(PAddr line, std::uint32_t slot)
{
    if (dram_.full()) {
        dramRetries_.inc();
        eq_.scheduleAfter(dram_.params().busTransfer, [this, line, slot] {
            fetchFromDram(line, slot);
        });
        return;
    }
    dram_.access(line, false, [this, line, slot] {
        installLine(line, slot);
    });
}

void
L2Cache::writebackToDram(PAddr line)
{
    if (!dram_.access(line, true, nullptr)) {
        dramRetries_.inc();
        eq_.scheduleAfter(dram_.params().busTransfer,
                          [this, line] { writebackToDram(line); });
    }
}

} // namespace sonuma::mem
