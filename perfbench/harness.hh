/**
 * @file
 * Measurement plumbing shared by the benchmark workloads: host clock,
 * the measured-region record, per-layer counter sums pulled from the
 * StatRegistry, the fixed-capacity span log of traced runs, exact
 * percentiles and the JSON report run.py reads.
 *
 * Nothing here reaches into the simulator beyond public calls: the
 * workloads hand in their TestBed, and counters are looked up by name
 * through StatRegistry::counter().
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "api/testbed.hh"
#include "sim/stats.hh"

namespace perfbench {

using sonuma::sim::Tick;

/** Host monotonic clock in nanoseconds. */
inline std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time this process has run, in nanoseconds. */
inline std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** splitmix64: input generation, payload patterns and digests. */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Order-sensitive digest of the generated inputs. */
struct Digest
{
    std::uint64_t h = 0x5ca1ab1e;
    void add(std::uint64_t v) { h = mix64(h ^ v); }
};

//
// Per-layer counters, summed over nodes.
//

enum Ctr : std::size_t
{
    kL1Hits, kL1Misses, kL2Hits, kL2Misses, kC2c, kDramReads, kDramWrites,
    kRowHits, kRowMisses, kWqEntries, kDoorbells, kReqPackets,
    kRrppRequests, kRcpCompletions, kMaqStalls, kTlbHits, kTlbMisses,
    kCtHits, kCtMisses, kRetransmits, kNiSent, kDelivered, kHops, kParked,
    kDropped, kNumCtrs
};

using CtrSnapshot = std::array<std::uint64_t, kNumCtrs>;

/**
 * Pointers to every node's instance of each counter, resolved once
 * after the TestBed is built so a snapshot is a plain sum of loads.
 */
class LayerCounters
{
  public:
    explicit LayerCounters(sonuma::api::TestBed &bed);

    CtrSnapshot snapshot() const;

    /** Does any node or the fabric keep counter @p c? */
    bool has(Ctr c) const { return !c_[c].empty(); }

  private:
    std::array<std::vector<const sonuma::sim::Counter *>, kNumCtrs> c_;
};

//
// The measured region.
//

/** Host and simulated bounds of the measured region, plus counters. */
struct Region
{
    std::int64_t hostStart = 0, hostEnd = 0;
    std::int64_t cpuStart = 0, cpuEnd = 0;
    Tick simStart = 0, simEnd = 0;
    std::uint64_t eventsStart = 0, eventsEnd = 0;
    CtrSnapshot ctrStart{}, ctrEnd{};
    bool started = false;

    void begin(sonuma::api::TestBed &bed, const LayerCounters &ctrs);
    void end(sonuma::api::TestBed &bed, const LayerCounters &ctrs);

    double wallSeconds() const { return (hostEnd - hostStart) * 1e-9; }
    double cpuSeconds() const { return (cpuEnd - cpuStart) * 1e-9; }
    double simUs() const { return sonuma::sim::ticksToUs(simEnd - simStart); }
    std::uint64_t events() const { return eventsEnd - eventsStart; }
    std::uint64_t ctr(Ctr c) const { return ctrEnd[c] - ctrStart[c]; }
};

//
// Spans of the traced run.
//

enum SpanName : std::uint32_t
{
    kSpanSetup, kSpanNodeBuild, kSpanInstall, kSpanRun, kSpanOp,
    kSpanPost, kSpanAwait, kSpanKvGet, kSpanKvPut, kSpanBarrier,
    kSpanVerify, kNumSpanNames
};

inline constexpr const char *kSpanNames[kNumSpanNames] = {
    "setup", "node.build", "app.install", "run", "op", "api.post",
    "api.await", "app.kv_get", "app.kv_put", "api.barrier", "app.verify"};

/** One recorded span; parent is an index into the same log. */
struct Span
{
    std::uint32_t name;
    std::uint32_t parent;
    std::uint64_t op;
    std::int64_t hostStart, hostEnd;
    Tick simStart, simEnd;
};

/**
 * Span recorder with a buffer sized before the run starts: recording
 * never allocates. Spans past capacity are counted, not stored; the
 * per-name totals behind the per-layer metrics cover every span either
 * way. A disabled log (untraced runs) records nothing and reads no
 * clock.
 */
class SpanLog
{
  public:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    struct Open
    {
        std::uint32_t idx = kNone;
        std::uint32_t name = 0;
        std::int64_t host = 0;
        Tick sim = 0;
    };

    struct Total
    {
        std::uint64_t count = 0;
        std::int64_t hostNs = 0;
        Tick simTicks = 0;
    };

    SpanLog(bool enabled, std::size_t capacity) : enabled_(enabled)
    {
        if (enabled_)
            spans_.reserve(capacity);
    }

    Open
    begin(SpanName name, std::uint32_t parent, std::uint64_t op, Tick sim)
    {
        if (!enabled_)
            return {};
        Open o{kNone, name, hostNs(), sim};
        if (spans_.size() < spans_.capacity()) {
            o.idx = static_cast<std::uint32_t>(spans_.size());
            spans_.push_back(Span{name, parent, op, o.host, 0, sim, 0});
        } else {
            ++dropped_;
        }
        return o;
    }

    void
    end(const Open &o, Tick sim)
    {
        if (!enabled_)
            return;
        const std::int64_t now = hostNs();
        Total &t = totals_[o.name];
        ++t.count;
        t.hostNs += now - o.host;
        t.simTicks += sim - o.sim;
        if (o.idx != kNone) {
            spans_[o.idx].hostEnd = now;
            spans_[o.idx].simEnd = sim;
        }
    }

    const Total &total(SpanName n) const { return totals_[n]; }

    /** Forget the totals so far (warm-up excluded from per-op means). */
    void resetTotals(SpanName n) { totals_[n] = Total{}; }

    std::uint64_t recorded() const { return spans_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    /** Write every stored span as one TSV line; once, at exit. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::array<Total, kNumSpanNames> totals_{};
    std::uint64_t dropped_ = 0;
};

//
// Report.
//

/** Exact nearest-rank percentile of sorted samples. */
struct Percentile
{
    double value = 0;
    std::uint64_t beyond = 0; //!< samples strictly after the rank
};

inline Percentile
percentile(const std::vector<Tick> &sorted, double p)
{
    const std::size_t n = sorted.size();
    if (n == 0)
        return {};
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return {sonuma::sim::ticksToNs(sorted[rank - 1]), n - rank};
}

/** Metrics plus the correctness verdict, rendered as one JSON line. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit, std::uint64_t samples = 0);

    void
    fail(const std::string &why)
    {
        ++failed_;
        if (firstFailure_.empty())
            firstFailure_ = why;
    }

    void attempted(std::uint64_t n) { attempted_ += n; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && checks_ > 0; }

    /** A correctness check ran (the gate needs at least one). */
    void checked(std::uint64_t n = 1) { checks_ += n; }

    void print(std::FILE *out, const std::string &workload,
               std::uint64_t seed, bool trace,
               std::uint64_t inputDigest) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        std::uint64_t samples;
    };
    std::vector<Entry> entries_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t checks_ = 0;
    std::string firstFailure_;
};

/** Peak resident set of this process in MiB. */
double peakRssMb();

/**
 * Median of @p v (copied; the caller's order is kept).
 * @pre !v.empty()
 */
double median(std::vector<double> v);

/**
 * Emit the per-layer metrics every workload shares: the memory, RMC
 * and fabric counter ratios over the region and the engine's host cost
 * per event. @p ops is the workload's op count in the region. A metric
 * whose counter the topology lacks is left out, not reported as 0.
 */
void layerMetrics(Report &r, const Region &reg, std::uint64_t ops,
                  const LayerCounters &ctrs);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
