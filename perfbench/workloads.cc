/**
 * @file
 * The benchmark's workload process: builds one soNUMA cluster, runs one
 * workload on it for a fixed amount of work derived from --seconds,
 * checks the outputs and prints one JSON line of metrics.
 *
 *   perfbench_sim --workload read-stream-64 --seed 3 --seconds 10 [--trace]
 *
 * With --trace the spans of the run are written, at exit, to
 * spans/<workload>-seed<n>.tsv next to the executable.
 *
 * Workloads (see README.md for why each one was chosen):
 *   read-stream-64  64 nodes, 4x4x4 torus, closed-loop window of 16
 *                   64-B uniform remote reads per node, round-robin
 *                   over the peers.
 *   pagerank-256    Fig. 9 fine-grain PageRank, 256 nodes, 4x8x8
 *                   torus, V=16384, degree 8, 256 KiB L2 per node.
 *   kv-mixed-16     16-node crossbar, one KvServer shard and one
 *                   closed-loop client per node; Zipf keys, ~90% remote
 *                   GETs and ~10% local PUTs.
 *
 * Op counts are fixed by (workload, --seconds), never by the host
 * clock, so every simulated metric repeats exactly for a seed. Host
 * time is read only around set-up and around the measured region,
 * which starts after an untimed warm-up.
 */

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/barrier.hh"
#include "api/testbed.hh"
#include "api/workload.hh"
#include "app/graph.hh"
#include "app/kv_store.hh"
#include "app/pagerank.hh"
#include "harness.hh"
#include "sim/task.hh"

namespace perfbench {
namespace {

namespace api = sonuma::api;
namespace app = sonuma::app;
namespace sim = sonuma::sim;
namespace vm = sonuma::vm;
using api::operator""_KiB;
using api::operator""_MiB;

/**
 * Set-up is repeated this many times per run and setup_s is the median.
 * The first one or two set-ups of a process run several times slower
 * (first touch of fresh memory); eleven keep the median clear of them.
 * kSetupBefore of them run before the measured region (the last one
 * builds the measured cluster), the rest after it, so the median
 * samples the host over the whole run rather than its first seconds.
 */
constexpr int kSetupReps = 11;
constexpr int kSetupBefore = 5;

/** Stored spans per traced run (the rest are only totalled). */
constexpr std::size_t kSpanCapacity = 1 << 16;

/** Barrier episodes timed on the warmed cluster in a traced run. */
constexpr std::uint32_t kBarrierEpisodes = 3;

/** Isolated operations timed per probe in a traced run, after warm-up. */
constexpr std::uint32_t kProbeWarm = 32;
constexpr std::uint32_t kProbeOps = 256;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** Everything a workload run writes its results into. */
struct Ctx
{
    const Options &opt;
    Report report;
    SpanLog spans;
    Digest inputs;

    explicit Ctx(const Options &o)
        : opt(o), spans(o.trace, kSpanCapacity)
    {}
};

/** Host seconds of each set-up repetition, split by layer. */
struct SetupTimes
{
    std::vector<double> total, build, install;

    void
    add(std::int64_t t0, double buildS, std::int64_t t1)
    {
        const double all = (t1 - t0) * 1e-9;
        total.push_back(all);
        build.push_back(buildS);
        install.push_back(all - buildS);
    }

    void
    report(Report &r) const
    {
        r.metric("setup_s", median(total), "s", total.size());
        r.metric("node.build_s", median(build), "s", build.size());
        r.metric("app.install_s", median(install), "s", install.size());
    }
};

/** Exact latency percentiles, each only with >= 10 samples beyond it. */
void
latencyMetrics(Report &r, std::vector<Tick> &lat)
{
    if (lat.empty())
        return;
    std::sort(lat.begin(), lat.end());
    double sum = 0;
    for (const Tick t : lat)
        sum += sim::ticksToNs(t);
    r.metric("sim_lat_mean_ns", sum / static_cast<double>(lat.size()), "ns",
             lat.size());
    const std::pair<const char *, double> ps[] = {
        {"sim_lat_p50_ns", 50}, {"sim_lat_p99_ns", 99},
        {"sim_lat_p999_ns", 99.9}};
    for (const auto &[name, p] : ps) {
        const Percentile q = percentile(lat, p);
        if (q.beyond >= 10)
            r.metric(name, q.value, "ns", lat.size());
    }
}

/** End-to-end metrics every workload reports over its region. */
void
regionMetrics(Report &r, const Region &reg, std::uint64_t ops,
              double simUs, const LayerCounters &ctrs)
{
    r.metric("host_ops_per_s", ops / reg.cpuSeconds(), "1/s", ops);
    r.metric("wall_ops_per_s", ops / reg.wallSeconds(), "1/s", ops);
    r.metric("sim_events_per_op",
             static_cast<double>(reg.events()) / static_cast<double>(ops),
             "count", ops);
    r.metric("sim_mops", ops / simUs, "ops/us", ops);
    layerMetrics(r, reg, ops, ctrs);
}

/** Final metrics every workload shares. */
void
closingMetrics(Ctx &c, std::uint32_t nodes, double verifyS,
               std::uint64_t attempted)
{
    const double rss = peakRssMb();
    c.report.metric("peak_rss_mb", rss, "MB");
    c.report.metric("node.rss_mb_per_node", rss / nodes, "MB");
    c.report.metric("app.verify_s", verifyS, "s");
    c.report.attempted(attempted);
    c.report.metric("failed_op_frac",
                    attempted ? static_cast<double>(c.report.failed()) /
                                    static_cast<double>(attempted)
                              : 0.0,
                    "ratio", attempted);
    if (c.opt.trace) {
        c.report.metric("trace.spans_recorded",
                        static_cast<double>(c.spans.recorded()), "count");
        c.report.metric("trace.spans_dropped",
                        static_cast<double>(c.spans.dropped()), "count");
    }
}

//
// Barrier episodes (traced runs): the all-to-all barrier of §5.3 timed
// at node 0's call site on the warmed cluster, using a barrier region
// of the benchmark's own so the workload's barriers are untouched.
//

struct BarrierTimes
{
    std::vector<double> simUs, hostMs;
};

sim::Task
barrierLoop(api::Barrier &bar, sim::Simulation &s, bool timed,
            BarrierTimes &out, SpanLog &spans)
{
    for (std::uint32_t e = 0; e < kBarrierEpisodes; ++e) {
        const Tick t0 = s.now();
        const std::int64_t h0 = hostNs();
        const auto span =
            timed ? spans.begin(kSpanBarrier, SpanLog::kNone, e, t0)
                  : SpanLog::Open{};
        co_await bar.arrive();
        if (timed) {
            spans.end(span, s.now());
            out.simUs.push_back(sim::ticksToUs(s.now() - t0));
            out.hostMs.push_back((hostNs() - h0) * 1e-6);
        }
    }
}

/** Isolated post: node 0 alone reads one line of node 1, one at a time. */
sim::Task
postProbe(api::RmcSession &s, sim::Simulation &simu, std::uint64_t off,
          SpanLog &spans)
{
    const vm::VAddr buf = s.allocBuffer(64);
    for (std::uint32_t i = 0; i < kProbeWarm + kProbeOps; ++i) {
        if (i == kProbeWarm)
            spans.resetTotals(kSpanPost);
        const auto span =
            spans.begin(kSpanPost, SpanLog::kNone, i, simu.now());
        const api::OpHandle h = co_await s.readAsync(1, off, buf, 64);
        spans.end(span, simu.now());
        co_await h;
    }
}

/**
 * Traced runs only: API-layer probes on the warmed cluster after the
 * measured region. Barrier episodes run on a barrier region of the
 * benchmark's own at @p regionOffset; @p barriersInRun is how many
 * episodes Workload::elapsed() covers, so api.barrier_share estimates
 * the share of that region spent in barriers. Session posts are timed
 * alone: a post suspends for its simulated API overhead, so under load
 * its host time would also cover every other node's events.
 */
void
apiProbes(Ctx &c, api::TestBed &bed, std::uint64_t regionOffset,
          double barriersInRun, double elapsedUs)
{
    BarrierTimes t;
    t.simUs.reserve(kBarrierEpisodes);
    t.hostMs.reserve(kBarrierEpisodes);
    std::vector<sim::NodeId> all(bed.nodes());
    std::iota(all.begin(), all.end(), 0);
    api::SessionParams sp;
    sp.qpCount = 1;
    std::vector<std::unique_ptr<api::Barrier>> bars;
    for (std::uint32_t n = 0; n < bed.nodes(); ++n)
        bars.push_back(std::make_unique<api::Barrier>(
            bed.newSession(n, 0, sp), all, bed.segBase(n), regionOffset));
    for (std::uint32_t n = 0; n < bed.nodes(); ++n)
        bed.spawn(barrierLoop(*bars[n], bed.sim(), n == 0, t, c.spans));
    bed.run();
    const double simUs = median(t.simUs);
    c.report.metric("api.barrier_sim_us", simUs, "us", t.simUs.size());
    c.report.metric("api.barrier_host_ms", median(t.hostMs), "ms",
                    t.hostMs.size());
    c.report.metric("api.barrier_share", barriersInRun * simUs / elapsedUs,
                    "ratio");

    bed.spawn(postProbe(bed.newSession(0, 0, sp), bed.sim(), regionOffset,
                        c.spans));
    bed.run();
    const auto &post = c.spans.total(kSpanPost);
    c.report.metric("api.post_host_ns",
                    static_cast<double>(post.hostNs) / post.count, "ns",
                    post.count);
    c.report.metric("api.post_sim_ns",
                    sim::ticksToNs(post.simTicks) / post.count, "ns",
                    post.count);
}

//
// ------------------------------ read-stream-64 ------------------------
//

constexpr std::uint32_t kRsNodes = 64;
constexpr std::uint32_t kRsWindow = 16;
constexpr std::uint64_t kRsSegBytes = 1_MiB;
/** Reads per host second on the reference host: sizes the run. */
constexpr double kRsOpsPerHostSecond = 45000;
/** Every kRsCheckEvery-th read's payload is compared with the pattern. */
constexpr std::uint64_t kRsCheckEvery = 61;

struct RsState
{
    std::uint64_t seed;
    std::uint64_t dataOff;  //!< first data line in every segment
    std::uint64_t perNode;  //!< reads per node, warm-up included
    std::uint64_t warmTotal; //!< completions before the region starts
    std::vector<std::vector<std::uint32_t>> lines; //!< node -> line idxs

    api::TestBed *bed = nullptr;
    const LayerCounters *ctrs = nullptr;
    Ctx *c = nullptr;
    Region region;
    std::uint64_t completed = 0;
    std::vector<Tick> lat;
};

/** The 8-byte word @p w of data line @p line in node @p node. */
std::uint64_t
rsWord(std::uint64_t seed, std::uint64_t node, std::uint64_t line,
       std::uint64_t w)
{
    return mix64(seed * 0x100000001b3ULL ^ (node << 48) ^ (line << 3) ^ w);
}

/** Every data line of node @p node, as the segment must hold them. */
void
rsPattern(std::uint64_t seed, std::uint32_t node,
          std::vector<std::uint64_t> &out)
{
    for (std::uint64_t i = 0; i < out.size(); ++i)
        out[i] = rsWord(seed, node, i / 8, i % 8);
}

sim::Task
rsNode(api::Workload::NodeCtx &ctx, RsState &st)
{
    const std::uint32_t n = ctx.nodeId();
    auto &s = ctx.session();
    auto &as = s.process().addressSpace();
    sim::Simulation &simu = ctx.sim();
    SpanLog &spans = st.c->spans;
    const vm::VAddr lbuf = s.allocBuffer(std::uint64_t(s.queueDepth()) * 64);
    const auto &lines = st.lines[n];

    struct Pending
    {
        api::OpHandle h;
        std::uint32_t peer;
        std::uint32_t line;
        std::uint64_t op;
        SpanLog::Open span;
    };
    std::array<Pending, kRsWindow> ring{};
    std::uint32_t head = 0, inFlight = 0;

    auto retire = [&]() -> sim::Task {
        const Pending p = ring[head];
        head = (head + 1) % kRsWindow;
        --inFlight;
        const auto wait = spans.begin(kSpanAwait, p.span.idx, p.op,
                                      simu.now());
        const api::OpResult r = co_await p.h;
        spans.end(wait, simu.now());
        spans.end(p.span, simu.now());
        if (!r.ok())
            st.c->report.fail("read-stream: read failed");
        const std::uint64_t idx = st.completed++;
        if (idx == st.warmTotal)
            st.region.begin(*st.bed, *st.ctrs);
        if (idx >= st.warmTotal)
            st.lat.push_back(r.latency);
        if (p.op % kRsCheckEvery == 0) {
            std::uint64_t got[8];
            as.read(lbuf + std::uint64_t(p.h.slot()) * 64, got, 64);
            for (std::uint64_t w = 0; w < 8; ++w)
                if (got[w] != rsWord(st.seed, p.peer, p.line, w))
                    st.c->report.fail("read-stream: payload mismatch");
            st.c->report.checked();
        }
    };

    for (std::uint64_t i = 0; i < st.perNode; ++i) {
        if (inFlight == kRsWindow)
            co_await retire();
        const auto peer = static_cast<std::uint32_t>(
            (n + 1 + i % (kRsNodes - 1)) % kRsNodes);
        const std::uint32_t line = lines[i];
        const std::uint64_t op = (std::uint64_t(n) << 32) | i;
        const auto opSpan =
            spans.begin(kSpanOp, SpanLog::kNone, op, simu.now());
        const auto post = spans.begin(kSpanPost, opSpan.idx, op, simu.now());
        const std::uint32_t slot = s.nextSlot();
        const api::OpHandle h = co_await s.readAsync(
            peer, st.dataOff + std::uint64_t(line) * 64,
            lbuf + std::uint64_t(slot) * 64, 64);
        spans.end(post, simu.now());
        ring[(head + inFlight) % kRsWindow] =
            Pending{h, peer, line, op, opSpan};
        ++inFlight;
    }
    while (inFlight)
        co_await retire();
}

struct RsCell
{
    std::unique_ptr<api::TestBed> bed;
    std::unique_ptr<api::Workload> wl;
};

void
runReadStream(Ctx &c)
{
    RsState st;
    st.seed = c.opt.seed;
    st.c = &c;
    // Workload barrier region, then the traced run's barrier region.
    st.dataOff = 2 * api::Barrier::regionBytes(kRsNodes);
    const std::uint64_t dataLines = (kRsSegBytes - st.dataOff) / 64;
    const std::uint64_t measured = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(kRsOpsPerHostSecond *
                                       c.opt.seconds / kRsNodes));
    const std::uint64_t warm = measured / 8;
    st.perNode = warm + measured;
    st.warmTotal = warm * kRsNodes;

    // Inputs: the line each read targets, per node.
    st.lines.resize(kRsNodes);
    for (std::uint32_t n = 0; n < kRsNodes; ++n) {
        sim::Rng rng(mix64(c.opt.seed ^ (std::uint64_t(n + 1) << 40)));
        st.lines[n].resize(st.perNode);
        for (auto &l : st.lines[n]) {
            l = static_cast<std::uint32_t>(rng.below(dataLines));
            c.inputs.add(l);
        }
    }
    st.lat.reserve(measured * kRsNodes);

    SetupTimes setup;
    std::unique_ptr<RsCell> cell;
    std::vector<std::uint64_t> pattern(dataLines * 8);
    const auto setUp = [&](int rep) {
        cell.reset();
        const auto root =
            c.spans.begin(kSpanSetup, SpanLog::kNone, rep, 0);
        const std::int64_t t0 = cpuNs();
        cell = std::make_unique<RsCell>();
        const auto b = c.spans.begin(kSpanNodeBuild, root.idx, rep, 0);
        cell->bed = std::make_unique<api::TestBed>(
            api::ClusterSpec{}
                .nodes(kRsNodes)
                .torus(4, 4, 4)
                .qpDepth(kRsWindow)
                .segmentPerNode(kRsSegBytes)
                .seed(c.opt.seed));
        c.spans.end(b, 0);
        const double buildS = (cpuNs() - t0) * 1e-9;
        const auto inst = c.spans.begin(kSpanInstall, root.idx, rep, 0);
        for (std::uint32_t n = 0; n < kRsNodes; ++n) {
            rsPattern(c.opt.seed, n, pattern);
            cell->bed->process(n).addressSpace().write(
                cell->bed->segBase(n) + st.dataOff, pattern.data(),
                dataLines * 64);
        }
        cell->wl = std::make_unique<api::Workload>(*cell->bed, "rs");
        cell->wl->onEachNode([&st](api::Workload::NodeCtx &ctx) {
            return rsNode(ctx, st);
        });
        c.spans.end(inst, 0);
        c.spans.end(root, 0);
        setup.add(t0, buildS, cpuNs());
    };
    for (int rep = 0; rep < kSetupBefore; ++rep)
        setUp(rep);

    api::TestBed &bed = *cell->bed;
    const LayerCounters ctrs(bed);
    st.bed = &bed;
    st.ctrs = &ctrs;
    const auto run =
        c.spans.begin(kSpanRun, SpanLog::kNone, 0, bed.sim().now());
    cell->wl->run();
    st.region.end(bed, ctrs);
    c.spans.end(run, bed.sim().now());

    const std::uint64_t ops = st.completed - st.warmTotal;
    regionMetrics(c.report, st.region, ops, st.region.simUs(), ctrs);
    latencyMetrics(c.report, st.lat);
    if (c.opt.trace)
        apiProbes(c, bed, api::Barrier::regionBytes(kRsNodes), 1,
                  sim::ticksToUs(cell->wl->elapsed()));

    // Besides the sampled payloads checked in flight, the whole data
    // region must still hold its pattern after the run.
    const auto vspan =
        c.spans.begin(kSpanVerify, SpanLog::kNone, 0, bed.sim().now());
    const std::int64_t v0 = cpuNs();
    std::vector<std::uint64_t> got(dataLines * 8);
    for (std::uint32_t n = 0; n < kRsNodes; ++n) {
        rsPattern(c.opt.seed, n, pattern);
        bed.process(n).addressSpace().read(bed.segBase(n) + st.dataOff,
                                           got.data(), dataLines * 64);
        if (got != pattern)
            c.report.fail("read-stream: data region changed");
        c.report.checked();
    }
    if (st.completed != st.perNode * kRsNodes)
        c.report.fail("read-stream: not every read completed");
    const double verifyS = (cpuNs() - v0) * 1e-9;
    c.spans.end(vspan, bed.sim().now());
    closingMetrics(c, kRsNodes, verifyS, st.completed);
    for (int rep = kSetupBefore; rep < kSetupReps; ++rep)
        setUp(rep);
    setup.report(c.report);
}

//
// ------------------------------- kv-mixed-16 --------------------------
//

constexpr std::uint32_t kKvNodes = 16;
constexpr std::uint32_t kKvKeysPerShard = 4096;
constexpr std::uint32_t kKvBuckets = 4 * kKvKeysPerShard;
constexpr double kKvPutFraction = 0.10;
constexpr double kKvZipfS = 0.99;
/** GETs per host second on the reference host: sizes the run. */
constexpr double kKvGetsPerHostSecond = 70000;

/** One generated client op: a PUT to the own shard or a remote GET. */
struct KvOp
{
    std::uint32_t rank;  //!< Zipf rank of the key within its shard
    std::uint8_t put;
    std::uint8_t shard;  //!< owning node (own node for PUTs)
};

struct KvState
{
    std::uint64_t gets;      //!< GETs per node
    std::uint64_t warmTotal; //!< GET completions before the region
    std::vector<std::vector<KvOp>> ops;
    std::vector<std::uint64_t> seq; //!< latest sequence PUT, per key

    api::TestBed *bed = nullptr;
    const LayerCounters *ctrs = nullptr;
    Ctx *c = nullptr;
    std::vector<std::unique_ptr<app::KvServer>> servers;
    std::vector<std::vector<std::unique_ptr<app::KvClient>>> clients;
    Region region;
    std::uint64_t completed = 0; //!< GETs
    std::uint64_t puts = 0;
    std::vector<Tick> lat;
};

std::uint64_t
kvKey(std::uint32_t shard, std::uint32_t rank)
{
    return (std::uint64_t(shard) << 32) | (rank + 1);
}

/**
 * A value names its key, its sequence number and its writer, and
 * carries a checksum of the three: a torn value or one belonging to
 * another key fails the check.
 */
void
kvValue(std::uint64_t key, std::uint64_t seq, std::uint64_t out[5])
{
    out[0] = key;
    out[1] = seq;
    out[2] = key >> 32; // the owning shard writes every value
    out[3] = mix64(key * 0x9e3779b97f4a7c15ULL ^ seq);
    out[4] = ~out[3];
}

sim::Task
kvPopulate(app::KvServer &server, std::uint32_t shard, KvState &st)
{
    std::uint64_t v[5];
    for (std::uint32_t r = 0; r < kKvKeysPerShard; ++r) {
        const std::uint64_t key = kvKey(shard, r);
        st.seq[std::uint64_t(shard) * kKvKeysPerShard + r] = 1;
        kvValue(key, 1, v);
        if (!co_await server.put(key, v, sizeof(v)))
            st.c->report.fail("kv: table population failed");
    }
}

sim::Task
kvNode(api::Workload::NodeCtx &ctx, KvState &st)
{
    const std::uint32_t n = ctx.nodeId();
    sim::Simulation &simu = ctx.sim();
    SpanLog &spans = st.c->spans;
    app::KvServer &server = *st.servers[n];
    std::uint64_t v[5];
    for (std::uint64_t i = 0; i < st.ops[n].size(); ++i) {
        const KvOp &op = st.ops[n][i];
        const std::uint64_t key = kvKey(op.shard, op.rank);
        std::uint64_t &latest =
            st.seq[std::uint64_t(op.shard) * kKvKeysPerShard + op.rank];
        const std::uint64_t opId = (std::uint64_t(n) << 32) | i;
        if (op.put) {
            kvValue(key, ++latest, v);
            const auto span =
                spans.begin(kSpanKvPut, SpanLog::kNone, opId, simu.now());
            const bool ok = co_await server.put(key, v, sizeof(v));
            spans.end(span, simu.now());
            ++st.puts;
            if (!ok)
                st.c->report.fail("kv: PUT found no free bucket");
            continue;
        }
        const Tick t0 = simu.now();
        const auto span =
            spans.begin(kSpanKvGet, SpanLog::kNone, opId, t0);
        const bool found = co_await st.clients[n][op.shard]->get(key, v);
        spans.end(span, simu.now());
        const std::uint64_t idx = st.completed++;
        if (idx == st.warmTotal) {
            st.region.begin(*st.bed, *st.ctrs);
            spans.resetTotals(kSpanKvPut);
        }
        if (idx >= st.warmTotal)
            st.lat.push_back(simu.now() - t0);
        st.c->report.checked();
        if (!found)
            st.c->report.fail("kv: GET missed a populated key");
        else if (v[0] != key || v[1] == 0 || v[1] > latest ||
                 v[2] != op.shard ||
                 v[3] != mix64(key * 0x9e3779b97f4a7c15ULL ^ v[1]) ||
                 v[4] != ~v[3])
            st.c->report.fail("kv: GET returned a torn or foreign value");
    }
}

/** Isolated PUTs: node 0 alone re-writes keys of its own shard. */
sim::Task
kvPutProbe(app::KvServer &server, sim::Simulation &simu, KvState &st)
{
    SpanLog &spans = st.c->spans;
    std::uint64_t v[5];
    for (std::uint32_t i = 0; i < kProbeWarm + kProbeOps; ++i) {
        if (i == kProbeWarm)
            spans.resetTotals(kSpanKvPut);
        const std::uint32_t r = i % kKvKeysPerShard;
        const std::uint64_t key = kvKey(0, r);
        kvValue(key, ++st.seq[r], v);
        const auto span =
            spans.begin(kSpanKvPut, SpanLog::kNone, i, simu.now());
        const bool ok = co_await server.put(key, v, sizeof(v));
        spans.end(span, simu.now());
        if (!ok)
            st.c->report.fail("kv: PUT found no free bucket");
    }
}

struct KvCell
{
    std::unique_ptr<api::TestBed> bed;
    std::unique_ptr<api::Workload> wl;
};

void
runKv(Ctx &c)
{
    KvState st;
    st.c = &c;
    const std::uint64_t measured = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(kKvGetsPerHostSecond *
                                       c.opt.seconds / kKvNodes));
    const std::uint64_t warm = measured / 8;
    st.gets = warm + measured;
    st.warmTotal = warm * kKvNodes;
    st.seq.assign(std::uint64_t(kKvNodes) * kKvKeysPerShard, 0);

    // Inputs: Zipf-ranked keys; a GET targets a uniformly chosen other
    // shard, a PUT the client's own shard.
    std::vector<double> cdf(kKvKeysPerShard);
    double acc = 0;
    for (std::uint32_t r = 0; r < kKvKeysPerShard; ++r)
        cdf[r] = acc += 1.0 / std::pow(r + 1.0, kKvZipfS);
    for (auto &x : cdf)
        x /= acc;
    st.ops.resize(kKvNodes);
    for (std::uint32_t n = 0; n < kKvNodes; ++n) {
        sim::Rng rng(mix64(c.opt.seed ^ (std::uint64_t(n + 1) << 44)));
        std::uint64_t gets = 0;
        while (gets < st.gets) {
            KvOp op{};
            op.put = rng.chance(kKvPutFraction) ? 1 : 0;
            const double u = rng.uniform();
            op.rank = static_cast<std::uint32_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            op.rank = std::min(op.rank, kKvKeysPerShard - 1);
            op.shard = static_cast<std::uint8_t>(
                op.put ? n : (n + 1 + rng.below(kKvNodes - 1)) % kKvNodes);
            gets += op.put ? 0 : 1;
            st.ops[n].push_back(op);
            c.inputs.add((std::uint64_t(op.shard) << 40) |
                         (std::uint64_t(op.put) << 32) | op.rank);
        }
    }
    st.lat.reserve(measured * kKvNodes);

    // Segment: workload barrier, traced-run barrier, bucket table.
    const std::uint64_t tableOff = 2 * api::Barrier::regionBytes(kKvNodes);
    SetupTimes setup;
    std::unique_ptr<KvCell> cell;
    const auto setUp = [&](int rep) {
        st.clients.clear();
        st.servers.clear();
        cell.reset();
        const auto root =
            c.spans.begin(kSpanSetup, SpanLog::kNone, rep, 0);
        const std::int64_t t0 = cpuNs();
        cell = std::make_unique<KvCell>();
        const auto b = c.spans.begin(kSpanNodeBuild, root.idx, rep, 0);
        cell->bed = std::make_unique<api::TestBed>(
            api::ClusterSpec{}
                .nodes(kKvNodes)
                .crossbar()
                .segmentPerNode(tableOff +
                                app::KvServer::tableBytes(kKvBuckets))
                .seed(c.opt.seed));
        c.spans.end(b, 0);
        const double buildS = (cpuNs() - t0) * 1e-9;
        api::TestBed &bed = *cell->bed;
        const auto inst =
            c.spans.begin(kSpanInstall, root.idx, rep, bed.sim().now());
        st.clients.resize(kKvNodes);
        for (std::uint32_t n = 0; n < kKvNodes; ++n) {
            st.servers.push_back(std::make_unique<app::KvServer>(
                bed.session(n), bed.segBase(n), tableOff, kKvBuckets));
            st.clients[n].resize(kKvNodes);
            for (std::uint32_t s = 0; s < kKvNodes; ++s)
                if (s != n)
                    st.clients[n][s] = std::make_unique<app::KvClient>(
                        bed.session(n), s, tableOff, kKvBuckets);
        }
        for (std::uint32_t n = 0; n < kKvNodes; ++n)
            bed.spawn(kvPopulate(*st.servers[n], n, st));
        bed.run();
        cell->wl = std::make_unique<api::Workload>(bed, "kv");
        cell->wl->onEachNode([&st](api::Workload::NodeCtx &ctx) {
            return kvNode(ctx, st);
        });
        c.spans.end(inst, bed.sim().now());
        c.spans.end(root, bed.sim().now());
        setup.add(t0, buildS, cpuNs());
    };
    for (int rep = 0; rep < kSetupBefore; ++rep)
        setUp(rep);

    api::TestBed &bed = *cell->bed;
    const LayerCounters ctrs(bed);
    st.bed = &bed;
    st.ctrs = &ctrs;
    const auto run =
        c.spans.begin(kSpanRun, SpanLog::kNone, 0, bed.sim().now());
    cell->wl->run();
    st.region.end(bed, ctrs);
    c.spans.end(run, bed.sim().now());

    const std::uint64_t ops = st.completed - st.warmTotal;
    regionMetrics(c.report, st.region, ops, st.region.simUs(), ctrs);
    latencyMetrics(c.report, st.lat);
    std::uint64_t probes = 0;
    for (const auto &row : st.clients)
        for (const auto &cl : row)
            if (cl)
                probes += cl->readsIssued();
    c.report.metric("app.kv_probes_per_get",
                    static_cast<double>(probes) / st.completed, "count",
                    st.completed);
    if (c.opt.trace) {
        // PUT sim time under load from the run; host time alone, since a
        // PUT suspends on its timed stores while other nodes run.
        const auto &put = c.spans.total(kSpanKvPut);
        c.report.metric("app.kv_put_sim_ns",
                        sim::ticksToNs(put.simTicks) / put.count, "ns",
                        put.count);
        apiProbes(c, bed, api::Barrier::regionBytes(kKvNodes), 1,
                  sim::ticksToUs(cell->wl->elapsed()));
        bed.spawn(kvPutProbe(*st.servers[0], bed.sim(), st));
        bed.run();
        c.report.metric("app.kv_put_host_ns",
                        static_cast<double>(put.hostNs) / put.count, "ns",
                        put.count);
    }

    // Every bucket must end up holding the value of its key's last PUT.
    const auto vspan =
        c.spans.begin(kSpanVerify, SpanLog::kNone, 0, bed.sim().now());
    const std::int64_t v0 = cpuNs();
    for (std::uint32_t n = 0; n < kKvNodes; ++n) {
        const auto &as = bed.process(n).addressSpace();
        const vm::VAddr table = bed.segBase(n) + tableOff;
        for (std::uint32_t r = 0; r < kKvKeysPerShard; ++r) {
            const std::uint64_t key = kvKey(n, r);
            std::uint64_t want[5];
            kvValue(key, st.seq[std::uint64_t(n) * kKvKeysPerShard + r],
                    want);
            bool found = false;
            const std::uint64_t start = app::KvServer::hashKey(key);
            for (std::uint32_t p = 0; p < app::KvClient::kMaxProbes; ++p) {
                app::KvBucket b;
                as.read(table + ((start + p) & (kKvBuckets - 1)) * 64, &b,
                        sizeof(b));
                if (b.valid && b.key == key) {
                    found = (b.version & 1) == 0 &&
                            std::memcmp(b.value, want, sizeof(want)) == 0;
                    break;
                }
            }
            if (!found)
                c.report.fail("kv: final table lost a key's last PUT");
        }
        c.report.checked();
    }
    const double verifyS = (cpuNs() - v0) * 1e-9;
    c.spans.end(vspan, bed.sim().now());
    if (st.completed != st.gets * kKvNodes)
        c.report.fail("kv: not every GET completed");
    closingMetrics(c, kKvNodes, verifyS, st.completed + st.puts);
    for (int rep = kSetupBefore; rep < kSetupReps; ++rep)
        setUp(rep);
    setup.report(c.report);
    st.clients.clear();
    st.servers.clear();
}

//
// ------------------------------ pagerank-256 --------------------------
//

constexpr std::uint32_t kPrNodes = 256;
constexpr std::uint32_t kPrVertices = 16384;
constexpr std::uint32_t kPrDegree = 8;
constexpr std::uint64_t kPrL2Bytes = 256_KiB;
/** Host seconds one superstep takes on the reference host. */
constexpr double kPrSecondsPerSuperstep = 9;
/** Sampling period of the progress monitor, simulated. */
constexpr Tick kPrMonitorPeriod = sim::kTicksPerNs * 250;
/** The monitor gives up after this much simulated time. */
constexpr Tick kPrMonitorLimit = sim::kTicksPerMs * 100;

struct PrCell
{
    app::Graph g;
    app::Partition part;
    std::unique_ptr<app::PageRankFineWorkload> pr;
    std::unique_ptr<api::TestBed> bed;
    std::unique_ptr<api::Workload> wl;
};

/**
 * PageRank's node bodies are the library's own; the benchmark sees the
 * measured supersteps begin through the workload's "ops" counters,
 * which count measured reads only. The monitor samples them on
 * simulated time and opens the region at the first measured read.
 */
sim::Task
prMonitor(api::TestBed &bed, const LayerCounters &ctrs, Region &region,
          std::uint64_t expected)
{
    std::vector<const sim::Counter *> ops;
    while (bed.sim().now() < kPrMonitorLimit) {
        co_await sim::Delay(bed.sim().eq(), kPrMonitorPeriod);
        if (ops.size() < bed.nodes()) {
            ops.clear();
            for (std::uint32_t n = 0; n < bed.nodes(); ++n)
                if (const auto *c = bed.sim().stats().counter(
                        "pagerank.node" + std::to_string(n) + ".ops"))
                    ops.push_back(c);
            if (ops.size() < bed.nodes())
                continue;
        }
        std::uint64_t sum = 0;
        for (const auto *c : ops)
            sum += c->value();
        if (!region.started && sum > 0)
            region.begin(bed, ctrs);
        if (sum >= expected)
            co_return;
    }
}

void
runPageRank(Ctx &c)
{
    app::PageRankConfig cfg;
    cfg.warmupSupersteps = 1;
    cfg.supersteps = static_cast<std::uint32_t>(std::max(
        1.0, std::round(c.opt.seconds / kPrSecondsPerSuperstep)));
    cfg.seed = c.opt.seed;
    cfg.l2PerUnitBytes = kPrL2Bytes;

    SetupTimes setup;
    std::unique_ptr<PrCell> cell;
    std::uint64_t barrierOff = 0;
    const auto setUp = [&](int rep) {
        cell.reset();
        const auto root =
            c.spans.begin(kSpanSetup, SpanLog::kNone, rep, 0);
        const std::int64_t t0 = cpuNs();
        cell = std::make_unique<PrCell>();
        const auto gen = c.spans.begin(kSpanInstall, root.idx, rep, 0);
        sim::Rng grng(mix64(c.opt.seed ^ 0x6a09e667f3bcc908ULL));
        cell->g = app::generatePowerLaw(grng, kPrVertices, kPrDegree);
        sim::Rng prng(mix64(c.opt.seed ^ 0xbb67ae8584caa73bULL));
        cell->part = app::randomPartition(prng, kPrVertices, kPrNodes);
        cell->pr = std::make_unique<app::PageRankFineWorkload>(
            cell->g, cell->part, cfg);
        c.spans.end(gen, 0);
        const std::int64_t tb = cpuNs();
        const auto b = c.spans.begin(kSpanNodeBuild, root.idx, rep, 0);
        // The traced run's barrier region follows PageRank's data.
        barrierOff = (cell->pr->segmentBytesNeeded() + 63) / 64 * 64;
        cell->bed = std::make_unique<api::TestBed>(
            api::ClusterSpec{}
                .nodes(kPrNodes)
                .torus(4, 8, 8)
                .l2PerNode(kPrL2Bytes)
                .segmentPerNode(barrierOff +
                                api::Barrier::regionBytes(kPrNodes))
                .seed(c.opt.seed));
        c.spans.end(b, 0);
        const double buildS = (cpuNs() - tb) * 1e-9;
        const auto inst = c.spans.begin(kSpanInstall, root.idx, rep, 0);
        cell->wl = std::make_unique<api::Workload>(*cell->bed, "pagerank");
        cell->pr->install(*cell->bed, *cell->wl);
        c.spans.end(inst, 0);
        c.spans.end(root, 0);
        setup.add(t0, buildS, cpuNs());
    };
    for (int rep = 0; rep < kSetupBefore; ++rep)
        setUp(rep);

    app::Graph &g = cell->g;
    const app::Partition &part = cell->part;
    for (const std::uint32_t x : g.rowPtr)
        c.inputs.add(x);
    for (const std::uint32_t x : g.inNeighbor)
        c.inputs.add(x);
    for (const std::uint32_t x : part.owner)
        c.inputs.add(x);
    std::uint64_t crossEdges = 0;
    for (std::uint32_t v = 0; v < g.numVertices; ++v)
        for (std::uint32_t e = g.rowPtr[v]; e < g.rowPtr[v + 1]; ++e)
            crossEdges += part.owner[g.inNeighbor[e]] != part.owner[v];
    const std::uint64_t expected = crossEdges * cfg.supersteps;

    api::TestBed &bed = *cell->bed;
    const LayerCounters ctrs(bed);
    Region region;
    bed.spawn(prMonitor(bed, ctrs, region, expected));
    const auto run =
        c.spans.begin(kSpanRun, SpanLog::kNone, 0, bed.sim().now());
    cell->wl->run();
    region.end(bed, ctrs);
    c.spans.end(run, bed.sim().now());
    const app::PageRankRun res = cell->pr->collect(bed);

    const std::uint64_t ops = res.measuredRemoteOps;
    if (!region.started || ops != expected)
        c.report.fail("pagerank: measured reads " + std::to_string(ops) +
                      " != cross-partition edges x supersteps " +
                      std::to_string(expected));
    else {
        const double elapsedUs = sim::ticksToUs(res.elapsed);
        regionMetrics(c.report, region, ops, elapsedUs, ctrs);
        c.report.metric("sim_superstep_us", elapsedUs / cfg.supersteps,
                        "us", cfg.supersteps);
        // Exact mean of the per-read latency: the workload's histogram
        // keeps an exact sum and count, only its percentiles are binned.
        double sum = 0;
        std::uint64_t n = 0;
        for (std::uint32_t p = 0; p < kPrNodes; ++p)
            if (const auto *h = bed.sim().stats().histogram(
                    "pagerank.node" + std::to_string(p) + ".opLatencyNs")) {
                sum += h->sum();
                n += h->count();
            }
        c.report.metric("sim_lat_mean_ns", sum / n, "ns", n);
    }
    if (c.opt.trace)
        apiProbes(c, bed, barrierOff,
                       cfg.warmupSupersteps + cfg.supersteps + 1,
                  sim::ticksToUs(cell->wl->elapsed()));

    const auto vspan =
        c.spans.begin(kSpanVerify, SpanLog::kNone, 0, bed.sim().now());
    const std::int64_t v0 = cpuNs();
    const auto ref = app::referencePageRank(
        g, cfg.warmupSupersteps + cfg.supersteps, cfg.damping);
    double maxDiff = 0;
    for (std::size_t v = 0; v < ref.size(); ++v)
        maxDiff = std::max(maxDiff, std::abs(res.ranks[v] - ref[v]));
    c.report.checked(ref.size());
    if (maxDiff > 1e-9)
        c.report.fail("pagerank: ranks diverge from the host reference");
    if (res.aborts || res.errors)
        c.report.fail("pagerank: RMC aborts or errors");
    const double verifyS = (cpuNs() - v0) * 1e-9;
    c.spans.end(vspan, bed.sim().now());
    closingMetrics(c, kPrNodes, verifyS, res.remoteOps);
    for (int rep = kSetupBefore; rep < kSetupReps; ++rep)
        setUp(rep);
    setup.report(c.report);
}

//
// ----------------------------------- main -----------------------------
//

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_sim: %s\nusage: perfbench_sim --workload "
                 "read-stream-64|pagerank-256|kv-mixed-16 --seed N "
                 "--seconds S [--trace]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = true;
            else
                usage(("unknown flag " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (!(o.seconds > 0 && o.seconds <= 600))
        usage("--seconds must be in (0, 600]");
    return o;
}

/** spans/<workload>-seed<n>.tsv next to this executable; made here. */
std::string
spansPath(const Options &o)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path dir =
        fs::read_symlink("/proc/self/exe", ec).parent_path() / "spans";
    fs::create_directories(dir, ec);
    return (dir / (o.workload + "-seed" + std::to_string(o.seed) + ".tsv"))
        .string();
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parse(argc, argv);
    Ctx c(opt);
    if (opt.workload == "read-stream-64")
        runReadStream(c);
    else if (opt.workload == "kv-mixed-16")
        runKv(c);
    else if (opt.workload == "pagerank-256")
        runPageRank(c);
    else
        usage("unknown workload");
    if (opt.trace) {
        const std::string path = spansPath(opt);
        if (!c.spans.write(path)) {
            std::fprintf(stderr, "perfbench_sim: cannot write %s\n",
                         path.c_str());
            return 1;
        }
    }
    c.report.print(stdout, opt.workload, opt.seed, opt.trace,
                   c.inputs.h);
    return c.report.correct() ? 0 : 1;
}
