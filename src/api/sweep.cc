/**
 * @file
 * SweepDriver implementation plus the built-in "uniform" workload.
 */

#include "api/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>

#include "sim/log.hh"
#include "sim/time_series.hh"

namespace sonuma::api {

std::string
SweepCellResult::topologyName() const
{
    if (topology == node::Topology::kCrossbar)
        return "crossbar";
    std::string name = "torus";
    for (std::size_t i = 0; i < torusDims.size(); ++i) {
        name += (i == 0 ? "_" : "x");
        name += std::to_string(torusDims[i]);
    }
    return name;
}

std::string
SweepCellResult::label() const
{
    std::string out = "n";
    out += std::to_string(nodes);
    out += "_" + topologyName();
    out += "_rs" + std::to_string(requestBytes);
    out += "_qd" + std::to_string(qpDepth);
    if (qpCount != 1)
        out += "_qp" + std::to_string(qpCount);
    if (doorbellBatching)
        out += "_db"; // batched runs must not overwrite unbatched cells
    if (workload != "uniform")
        out += "_" + workload;
    if (routing == fab::RoutingMode::kAdaptive)
        out += "_adaptive";
    if (faultScenario != "none")
        out += "_" + fab::FaultPlan::scenarioOf(faultScenario);
    return out;
}

void
SweepCellResult::writeJson(std::ostream &os) const
{
    os << "{\"bench\": \"sweep\", \"schema\": 1"
       << ", \"workload\": \"" << sim::jsonEscape(workload) << "\""
       << ", \"nodes\": " << nodes
       << ", \"topology\": \"" << sim::jsonEscape(topologyName()) << "\""
       << ", \"request_bytes\": " << requestBytes
       << ", \"qp_depth\": " << qpDepth
       << ", \"qp_count\": " << qpCount
       << ", \"doorbell_batching\": " << (doorbellBatching ? 1 : 0)
       << ", \"ops\": " << ops
       << ", \"mops\": " << mops
       << ", \"gbps\": " << gbps
       << ", \"mean_latency_ns\": " << meanLatencyNs
       << ", \"p99_latency_ns\": " << p99LatencyNs;
    if (degraded()) {
        // Degraded fields only appear for degraded cells, so healthy
        // artifacts stay byte-identical to the pre-fault schema.
        os << ", \"routing\": \""
           << sim::jsonEscape(fab::routingModeName(routing)) << "\""
           << ", \"fault_scenario\": \"" << sim::jsonEscape(faultScenario)
           << "\""
           << ", \"goodput_mops\": " << goodputMops
           << ", \"ok_ops\": " << okOps
           << ", \"aborted_ops\": " << abortedOps
           << ", \"retried_ops\": " << retriedOps
           << ", \"failed_ops\": " << failedOps
           << ", \"dropped_messages\": " << droppedMessages
           << ", \"retransmits\": " << retransmits
           << ", \"dup_suppressed\": " << dupSuppressed
           << ", \"unrecoverable\": " << unrecoverable
           << ", \"p50_latency_ns\": " << p50LatencyNs
           << ", \"p95_latency_ns\": " << p95LatencyNs;
    }
    for (const auto &[key, value] : extra) {
        os << ", \"" << sim::jsonEscape(key) << "\": ";
        // Exact counts (vertices, edges) must never be rounded by the
        // default 6-significant-digit double formatting.
        if (value == std::floor(value) && std::abs(value) < 1e15)
            os << static_cast<long long>(value);
        else
            os << value;
    }
    os << ", \"sim_us\": " << simMicros
       << ", \"host_seconds\": " << hostSeconds << "}";
}

//
// ------------------------- workload registry ---------------------------
//

namespace {

/**
 * The built-in uniform remote-read kernel: node i streams a
 * full-window pipeline of requestBytes reads round-robin over its
 * peers, sampling per-op latency as handles complete (fig9's
 * fine-grain access pattern reduced to its fabric-facing core).
 */
class UniformReadWorkload : public SweepWorkload
{
  public:
    void
    configure(ClusterSpec &spec, const SweepCellResult &cell,
              const SweepConfig &cfg) override
    {
        const std::uint64_t dataOff = Barrier::regionBytes(cell.nodes);
        if (cfg.segmentBytes < dataOff + 2ull * cell.requestBytes)
            throw std::invalid_argument(
                "SweepDriver: segmentBytes " +
                std::to_string(cfg.segmentBytes) +
                " too small for the barrier region plus " +
                std::to_string(cell.requestBytes) + "-byte reads at " +
                std::to_string(cell.nodes) + " nodes");
        (void)spec;
    }

    void
    install(TestBed &bed, Workload &wl, const SweepCellResult &cell,
            const SweepConfig &cfg) override
    {
        (void)bed;
        const std::uint32_t ops = cfg.opsPerNode;
        const std::uint32_t requestBytes = cell.requestBytes;
        const std::uint64_t segBytes = cfg.segmentBytes;
        const std::uint32_t nodes = cell.nodes;
        const bool faulted = cfg.faultSpec != "none";
        const bool incast =
            fab::FaultPlan::scenarioOf(cfg.faultSpec) == "incast";
        ops_ = std::uint64_t(nodes) * ops;

        wl.onEachNode([ops, requestBytes, segBytes, nodes, faulted,
                       incast](Workload::NodeCtx &ctx) -> sim::Task {
            auto &s = ctx.session();
            auto &issued = ctx.counter("ops");
            auto &lat = ctx.histogram("opLatencyNs");
            auto &ok = ctx.counter("okOps");
            auto &aborted = ctx.counter("abortedOps");
            auto &retried = ctx.counter("retriedOps");
            auto &failed = ctx.counter("failedOps");
            const RetryPolicy &retry = ctx.retry();

            const std::uint32_t depth = s.queueDepth();
            const vm::VAddr buf =
                s.allocBuffer(std::uint64_t(depth) * requestBytes);
            const std::uint64_t dataOff = ctx.dataOffset();
            const std::uint64_t span =
                (segBytes - dataOff) / 2 / requestBytes * requestBytes;

            /** One outstanding read plus what a repost would need. */
            struct Pending
            {
                OpHandle h;
                sim::NodeId peer;
                std::uint64_t off;
                std::uint32_t attempt;
            };
            std::deque<Pending> window;
            auto retireFront = [&]() -> sim::Task {
                Pending p = window.front();
                window.pop_front();
                OpResult r = co_await p.h;
                if (r.ok()) {
                    ok.inc();
                    lat.sample(sim::ticksToNs(r.latency));
                    co_return;
                }
                if (!faulted)
                    sim::fatal("sweep read failed");
                // A fault aborted this attempt: back off and repost the
                // same read, or charge the op to failedOps at the cap.
                aborted.inc();
                if (p.attempt >= retry.maxRetries) {
                    failed.inc();
                    co_return;
                }
                retried.inc();
                co_await sim::Delay(ctx.sim().eq(),
                                    retry.delayFor(p.attempt + 1));
                const std::uint32_t slot = s.nextSlot();
                OpHandle h = co_await s.readAsync(
                    p.peer, p.off,
                    buf + std::uint64_t(slot) * requestBytes,
                    requestBytes);
                window.push_back(Pending{h, p.peer, p.off, p.attempt + 1});
            };
            for (std::uint32_t i = 0; i < ops; ++i) {
                sim::NodeId peer;
                if (incast) {
                    // All-to-one storm: every node hammers node 0's
                    // RRPP; node 0 keeps the round-robin so its own
                    // reads still have peers.
                    peer = ctx.nodeId() == 0
                               ? static_cast<sim::NodeId>(1 +
                                                          i % (nodes - 1))
                               : static_cast<sim::NodeId>(0);
                } else {
                    peer = static_cast<sim::NodeId>(
                        (ctx.nodeId() + 1 + i % (nodes - 1)) % nodes);
                }
                const std::uint64_t off =
                    dataOff + (std::uint64_t(i) * requestBytes) % span;
                // Full window: retire the oldest handle before its WQ
                // slot can be recycled by the next post (session.hh).
                while (window.size() >= depth)
                    co_await retireFront();
                const std::uint32_t slot = s.nextSlot();
                OpHandle h = co_await s.readAsync(
                    peer, off, buf + std::uint64_t(slot) * requestBytes,
                    requestBytes);
                issued.inc();
                window.push_back(Pending{h, peer, off, 0});
                // Opportunistically retire completed ops as they pass.
                while (!window.empty() && window.front().h.done())
                    co_await retireFront();
            }
            while (!window.empty())
                co_await retireFront();
        });
    }

    Outcome
    finish(TestBed &bed, const SweepCellResult &cell,
           const SweepConfig &cfg) override
    {
        (void)bed;
        (void)cell;
        (void)cfg;
        return Outcome{ops_, 0};
    }

  private:
    std::uint64_t ops_ = 0;
};

using Registry = std::map<std::string, SweepDriver::WorkloadFactory>;

Registry &
registry()
{
    static Registry r = {
        {"uniform", [] { return std::make_unique<UniformReadWorkload>(); }},
    };
    return r;
}

} // namespace

void
SweepDriver::registerWorkload(const std::string &name,
                              WorkloadFactory factory)
{
    registry()[name] = std::move(factory);
}

bool
SweepDriver::workloadRegistered(const std::string &name)
{
    return registry().count(name) != 0;
}

std::vector<std::string>
SweepDriver::registeredWorkloads()
{
    std::vector<std::string> names;
    for (const auto &[name, factory] : registry())
        names.push_back(name);
    return names;
}

//
// ------------------------- torus factorization -------------------------
//

std::vector<std::uint32_t>
SweepDriver::torusDimsFor(std::uint32_t nodes)
{
    return torusDimsFor(nodes, 2);
}

std::vector<std::uint32_t>
SweepDriver::torusDimsFor(std::uint32_t nodes, std::uint32_t ndims)
{
    // Peel off the largest divisor <= nodes^(1/remaining) each round:
    // radices come out ascending and as near-equal as the node count's
    // factorization allows (primes degrade to {1, ..., n}).
    std::vector<std::uint32_t> dims;
    std::uint32_t rest = nodes;
    for (std::uint32_t d = ndims; d >= 1; --d) {
        if (d == 1) {
            dims.push_back(rest);
            break;
        }
        auto a = static_cast<std::uint32_t>(std::floor(
            std::pow(static_cast<double>(rest), 1.0 / d) + 1e-9));
        while (a > 1 && rest % a != 0)
            --a;
        if (a == 0)
            a = 1;
        dims.push_back(a);
        rest /= a;
    }
    return dims;
}

//
// ----------------------------- cell runs -------------------------------
//

SweepCellResult
SweepDriver::runCell(std::uint32_t nodes, node::Topology topo,
                     std::uint32_t requestBytes, std::uint32_t qpDepth,
                     std::uint32_t qpCount)
{
    if (nodes < 2)
        throw std::invalid_argument(
            "SweepDriver: cells need >= 2 nodes (remote reads have no "
            "self-loop)");
    if (requestBytes == 0 || requestBytes % sim::kCacheLineBytes != 0)
        throw std::invalid_argument(
            "SweepDriver: request size must be a positive multiple of " +
            std::to_string(sim::kCacheLineBytes) + " bytes (got " +
            std::to_string(requestBytes) + ")");

    const auto it = registry().find(cfg_.workload);
    if (it == registry().end()) {
        std::string names;
        for (const auto &n : registeredWorkloads())
            names += " " + n;
        throw std::invalid_argument("SweepDriver: unknown workload '" +
                                    cfg_.workload + "'; registered:" +
                                    names);
    }
    std::unique_ptr<SweepWorkload> body = it->second();

    fab::FaultPlan plan;
    std::string planError;
    if (!fab::FaultPlan::parse(cfg_.faultSpec, nodes, &plan, &planError))
        throw std::invalid_argument("SweepDriver: " + planError);

    SweepCellResult cell;
    cell.workload = cfg_.workload;
    cell.nodes = nodes;
    cell.topology = topo;
    cell.requestBytes = requestBytes;
    cell.qpDepth = qpDepth;
    cell.qpCount = qpCount;
    cell.doorbellBatching = cfg_.doorbellBatching;
    cell.faultScenario = cfg_.faultSpec;
    cell.routing = cfg_.routing;
    if (topo == node::Topology::kTorus) {
        cell.torusDims = cfg_.torusDims.empty()
                             ? torusDimsFor(nodes, cfg_.torusNdims)
                             : cfg_.torusDims;
    }

    ClusterSpec spec;
    spec.nodes(nodes)
        .context(1)
        .segmentPerNode(cfg_.segmentBytes)
        .rmc(cfg_.rmcParams)
        .qpDepth(qpDepth)
        .qpCount(qpCount)
        .doorbellBatching(cfg_.doorbellBatching)
        .routing(cfg_.routing)
        .seed(cfg_.seed);
    if (cfg_.obsPeriodNs > 0)
        spec.observability(cfg_.obsPeriodNs);
    if (topo == node::Topology::kTorus)
        spec.torus(cell.torusDims);
    if (!plan.empty())
        spec.faultPlan(plan);
    body->configure(spec, cell, cfg_);

    const auto t0 = std::chrono::steady_clock::now();
    TestBed bed(spec);
    Workload wl(bed, "sweep");
    if (cfg_.faultSpec != "none") {
        RetryPolicy rp;
        rp.maxRetries = cfg_.maxRetries;
        rp.backoff = cfg_.retryBackoff;
        wl.setRetryPolicy(rp);
    }
    body->install(bed, wl, cell, cfg_);
    wl.run();

    cell.hostSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    const auto outcome = body->finish(bed, cell, cfg_);
    cell.ops = outcome.ops;
    cell.simMicros =
        sim::ticksToUs(outcome.measured ? outcome.measured : wl.elapsed());
    const double secs = cell.simMicros * 1e-6;
    cell.mops = static_cast<double>(cell.ops) / secs / 1e6;
    cell.gbps = static_cast<double>(cell.ops) * requestBytes * 8.0 /
                secs / 1e9;

    // Pool the per-node histograms so mean and p99 describe the whole
    // cluster's sample population, not any single node's.
    double latSum = 0, latMaxSample = 0;
    std::uint64_t latCount = 0;
    std::vector<std::uint64_t> pooled;
    for (std::uint32_t i = 0; i < nodes; ++i) {
        const auto *h = bed.sim().stats().histogram(
            "sweep.node" + std::to_string(i) + ".opLatencyNs");
        if (!h)
            continue;
        latSum += h->sum();
        latCount += h->count();
        latMaxSample = std::max(latMaxSample, h->max());
        const auto &b = h->buckets();
        if (b.size() > pooled.size())
            pooled.resize(b.size(), 0);
        for (std::size_t j = 0; j < b.size(); ++j)
            pooled[j] += b[j];
    }
    cell.meanLatencyNs = latCount ? latSum / latCount : 0.0;
    cell.p99LatencyNs = sim::Histogram::percentileFromBuckets(
        pooled, latCount, 99.0, latMaxSample);
    cell.p50LatencyNs = sim::Histogram::percentileFromBuckets(
        pooled, latCount, 50.0, latMaxSample);
    cell.p95LatencyNs = sim::Histogram::percentileFromBuckets(
        pooled, latCount, 95.0, latMaxSample);

    // Degraded accounting, pooled from the per-node counters the
    // workload bodies keep (zero when a body doesn't keep them).
    const auto sumCounters = [&](const std::string &name) {
        std::uint64_t total = 0;
        for (std::uint32_t i = 0; i < nodes; ++i)
            if (const auto *c = bed.sim().stats().counter(
                    "sweep.node" + std::to_string(i) + "." + name))
                total += c->value();
        return total;
    };
    cell.okOps = sumCounters("okOps");
    cell.abortedOps = sumCounters("abortedOps");
    cell.retriedOps = sumCounters("retriedOps");
    cell.failedOps = sumCounters("failedOps");
    cell.droppedMessages = bed.cluster().fabric().droppedMessages();
    cell.goodputMops = static_cast<double>(cell.okOps) / secs / 1e6;

    // Reliable-delivery counters live on the RMCs, not the workload.
    const auto sumRmcCounters = [&](const std::string &name) {
        std::uint64_t total = 0;
        for (std::uint32_t i = 0; i < nodes; ++i)
            if (const auto *c = bed.sim().stats().counter(
                    "node" + std::to_string(i) + ".rmc." + name))
                total += c->value();
        return total;
    };
    cell.retransmits = sumRmcCounters("retransmits");
    cell.dupSuppressed = sumRmcCounters("rrpp.dupSuppressed");
    cell.unrecoverable = sumRmcCounters("unrecoverable");

    // Drops-vs-lost-ops audit: a dropped packet may be retransmitted
    // (then it is a drop but not a lost op). With the workload-level
    // retry loop disabled, every op either completes or is aborted as
    // unrecoverable — anything else means a completion was lost or
    // double-delivered.
    if (cell.workload == "uniform" && cfg_.maxRetries == 0 &&
        fab::FaultPlan::scenarioOf(cell.faultScenario) == "drop" &&
        cell.okOps + cell.unrecoverable != cell.ops)
        sim::fatal("sweep: drop cell accounting broke: ok_ops " +
                   std::to_string(cell.okOps) + " + unrecoverable " +
                   std::to_string(cell.unrecoverable) + " != ops " +
                   std::to_string(cell.ops));

    body->annotate(cell);
    // Render the OBS sidecar while the TestBed (and its registered
    // series) is still alive; the string outlives the cell's models.
    if (cfg_.obsPeriodNs > 0)
        cell.obsJson = sim::renderObsJson(bed.sim().stats(), cell.label(),
                                          cfg_.obsPeriodNs);
    return cell;
}

void
SweepDriver::emit(const SweepCellResult &cell,
                  const std::string &prefix) const
{
    if (cfg_.echo) {
        cell.writeJson(std::cout);
        std::cout << "\n" << std::flush;
    }
    if (!cfg_.outDir.empty()) {
        const std::string path =
            cfg_.outDir + "/" + prefix + cell.label() + ".json";
        std::ofstream f(path);
        if (!f)
            sim::fatal("sweep: cannot write " + path);
        cell.writeJson(f);
        f << "\n";
        // Sampling sidecar (labels are unique across cell families, so
        // one OBS_ namespace cannot collide).
        if (!cell.obsJson.empty()) {
            const std::string obsPath =
                cfg_.outDir + "/OBS_" + cell.label() + ".json";
            std::ofstream of(obsPath);
            if (!of)
                sim::fatal("sweep: cannot write " + obsPath);
            of << cell.obsJson;
        }
    }
}

std::vector<SweepCellResult>
SweepDriver::run()
{
    // The artifact prefix is a property of the (sweep-wide) workload;
    // ask a fresh instance rather than carrying state out of runCell.
    std::string prefix = "SWEEP_";
    if (const auto it = registry().find(cfg_.workload);
        it != registry().end())
        prefix = it->second()->artifactPrefix();
    // Degraded cells get their own artifact family so healthy
    // SWEEP_/FIG9_ references are never overwritten by fault studies.
    if (cfg_.faultSpec != "none" ||
        cfg_.routing != fab::RoutingMode::kDor)
        prefix = "DEGRADED_";

    std::vector<SweepCellResult> results;
    for (const auto nodes : cfg_.nodeCounts)
        for (const auto topo : cfg_.topologies)
            for (const auto size : cfg_.requestSizes)
                for (const auto depth : cfg_.qpDepths)
                    for (const auto qps : cfg_.qpCounts) {
                        results.push_back(
                            runCell(nodes, topo, size, depth, qps));
                        emit(results.back(), prefix);
                    }
    return results;
}

} // namespace sonuma::api
