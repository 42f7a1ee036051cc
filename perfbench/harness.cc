/**
 * @file
 * Measurement plumbing (see harness.hh).
 */

#include "harness.hh"

#include <sys/resource.h>

#include <cinttypes>
#include <cstring>

namespace perfbench {

namespace {

/**
 * Counter name suffixes per node ("node<i>." + suffix), or cluster-wide
 * names when the suffix starts with '@'. A counter that a topology
 * lacks (the crossbar has no hop count, the torus no park count)
 * resolves to nothing; LayerCounters::has() tells.
 */
struct CtrSource
{
    Ctr ctr;
    const char *suffix;
};

constexpr CtrSource kSources[] = {
    {kL2Hits, "l2.hits"},
    {kL2Misses, "l2.misses"},
    {kC2c, "l2.c2cTransfers"},
    {kDramReads, "dram.reads"},
    {kDramWrites, "dram.writes"},
    {kRowHits, "dram.rowHits"},
    {kRowMisses, "dram.rowMisses"},
    {kWqEntries, "rmc.rgp.wqEntries"},
    {kDoorbells, "rmc.rgp.doorbells"},
    {kReqPackets, "rmc.rgp.requestPackets"},
    {kRrppRequests, "rmc.rrpp.requests"},
    {kRcpCompletions, "rmc.rcp.completions"},
    {kMaqStalls, "rmc.maq.stalls"},
    {kTlbHits, "rmc.tlb.hits"},
    {kTlbMisses, "rmc.tlb.misses"},
    {kCtHits, "rmc.ct.ctCacheHits"},
    {kCtMisses, "rmc.ct.ctCacheMisses"},
    {kRetransmits, "rmc.retransmits"},
    {kNiSent, "ni.sent"},
    {kDelivered, "@torus.delivered"},
    {kDelivered, "@fabric.delivered"},
    {kHops, "@torus.totalHops"},
    {kParked, "@fabric.parked"},
    {kDropped, "@torus.dropped"},
    {kDropped, "@fabric.dropped"},
};

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

} // namespace

LayerCounters::LayerCounters(sonuma::api::TestBed &bed)
{
    const auto &stats = bed.sim().stats();
    for (const CtrSource &s : kSources) {
        if (s.suffix[0] == '@') {
            if (const auto *c = stats.counter(s.suffix + 1))
                c_[s.ctr].push_back(c);
            continue;
        }
        for (std::uint32_t n = 0; n < bed.nodes(); ++n)
            if (const auto *c = stats.counter(
                    "node" + std::to_string(n) + "." + s.suffix))
                c_[s.ctr].push_back(c);
    }
    // Every L1 of a node: one per core plus the RMC's own.
    for (std::uint32_t n = 0; n < bed.nodes(); ++n) {
        const std::string node = "node" + std::to_string(n) + ".l1.";
        std::vector<std::string> l1s{node + "rmc"};
        for (std::uint32_t k = 0;; ++k) {
            const std::string core = node + "c" + std::to_string(k);
            if (!stats.counter(core + ".hits"))
                break;
            l1s.push_back(core);
        }
        for (const auto &l1 : l1s) {
            c_[kL1Hits].push_back(stats.counter(l1 + ".hits"));
            c_[kL1Misses].push_back(stats.counter(l1 + ".misses"));
        }
    }
}

CtrSnapshot
LayerCounters::snapshot() const
{
    CtrSnapshot s{};
    for (std::size_t i = 0; i < kNumCtrs; ++i)
        for (const auto *c : c_[i])
            s[i] += c->value();
    return s;
}

void
Region::begin(sonuma::api::TestBed &bed, const LayerCounters &ctrs)
{
    started = true;
    simStart = bed.sim().now();
    eventsStart = bed.sim().eq().executedEvents();
    ctrStart = ctrs.snapshot();
    cpuStart = cpuNs();
    hostStart = hostNs();
}

void
Region::end(sonuma::api::TestBed &bed, const LayerCounters &ctrs)
{
    hostEnd = hostNs();
    cpuEnd = cpuNs();
    simEnd = bed.sim().now();
    eventsEnd = bed.sim().eq().executedEvents();
    ctrEnd = ctrs.snapshot();
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "# id\tname\tparent\top\thost_start_ns\thost_end_ns\t"
                    "sim_start_ps\tsim_end_ps\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const long long parent =
            s.parent == kNone ? -1 : static_cast<long long>(s.parent);
        std::fprintf(f,
                     "%zu\t%s\t%lld\t%" PRIu64 "\t%" PRId64 "\t%" PRId64
                     "\t%" PRIu64 "\t%" PRIu64 "\n",
                     i, kSpanNames[s.name], parent, s.op, s.hostStart,
                     s.hostEnd, s.simStart, s.simEnd);
    }
    std::fprintf(f, "# dropped\t%" PRIu64 "\n", dropped_);
    return std::fclose(f) == 0;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::uint64_t samples)
{
    entries_.push_back(Entry{name, value, unit, samples});
}

void
Report::print(std::FILE *out, const std::string &workload,
              std::uint64_t seed, bool trace,
              std::uint64_t inputDigest) const
{
    std::fprintf(out,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"trace\": %d, \"input_digest\": \"%016" PRIx64
                 "\", \"correct\": %s, \"attempted\": %" PRIu64
                 ", \"failed\": %" PRIu64 ", \"first_failure\": \"",
                 workload.c_str(), seed, trace ? 1 : 0, inputDigest,
                 correct() ? "true" : "false", attempted_, failed_);
    for (const char c : firstFailure_)
        if (c != '"' && c != '\\' && c >= 0x20)
            std::fputc(c, out);
    std::fprintf(out, "\", \"metrics\": {");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        std::fprintf(out,
                     "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"",
                     i ? ", " : "", e.name.c_str(), e.value, e.unit.c_str());
        if (e.samples)
            std::fprintf(out, ", \"samples\": %" PRIu64, e.samples);
        std::fprintf(out, "}");
    }
    std::fprintf(out, "}}\n");
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
layerMetrics(Report &r, const Region &reg, std::uint64_t ops,
             const LayerCounters &ctrs)
{
    const auto c = [&](Ctr k) { return reg.ctr(k); };
    r.metric("sim.host_ns_per_event",
             ratio(static_cast<std::uint64_t>(reg.cpuEnd - reg.cpuStart),
                   reg.events()),
             "ns");
    r.metric("mem.l1_accesses_per_op", ratio(c(kL1Hits) + c(kL1Misses), ops),
             "count");
    r.metric("mem.l1_miss_ratio",
             ratio(c(kL1Misses), c(kL1Hits) + c(kL1Misses)), "ratio");
    r.metric("mem.l2_miss_ratio",
             ratio(c(kL2Misses), c(kL2Hits) + c(kL2Misses)), "ratio");
    r.metric("mem.c2c_per_op", ratio(c(kC2c), ops), "count");
    r.metric("mem.dram_accesses_per_op",
             ratio(c(kDramReads) + c(kDramWrites), ops), "count");
    r.metric("mem.dram_row_hit_ratio",
             ratio(c(kRowHits), c(kRowHits) + c(kRowMisses)), "ratio");
    r.metric("rmc.wq_entries_per_op", ratio(c(kWqEntries), ops), "count");
    r.metric("rmc.doorbells_per_op", ratio(c(kDoorbells), ops), "count");
    r.metric("rmc.request_packets_per_op", ratio(c(kReqPackets), ops),
             "count");
    r.metric("rmc.rrpp_requests_per_op", ratio(c(kRrppRequests), ops),
             "count");
    r.metric("rmc.rcp_completions_per_op", ratio(c(kRcpCompletions), ops),
             "count");
    r.metric("rmc.maq_stalls_per_op", ratio(c(kMaqStalls), ops), "count");
    r.metric("rmc.tlb_miss_ratio",
             ratio(c(kTlbMisses), c(kTlbHits) + c(kTlbMisses)), "ratio");
    r.metric("rmc.ct_miss_ratio",
             ratio(c(kCtMisses), c(kCtHits) + c(kCtMisses)), "ratio");
    r.metric("rmc.retransmits", static_cast<double>(c(kRetransmits)),
             "count");
    r.metric("fabric.ni_sent_per_op", ratio(c(kNiSent), ops), "count");
    // Only the torus counts hops and only the crossbar counts parked
    // messages (the torus parks them too, uncounted).
    if (ctrs.has(kHops))
        r.metric("fabric.hops_per_msg", ratio(c(kHops), c(kDelivered)),
                 "count");
    if (ctrs.has(kParked))
        r.metric("fabric.parked_per_op", ratio(c(kParked), ops), "count");
    r.metric("fabric.dropped", static_cast<double>(c(kDropped)), "count");
}

} // namespace perfbench
