#include "traced.hh"

#include <algorithm>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/sim_error.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "sim/cmp.hh"
#include "sim/trace.hh"
#include "sim/trace_store.hh"
#include "timed_source.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace sim = bfsim::sim;
namespace mem = bfsim::mem;
namespace trace_store = bfsim::sim::trace_store;
namespace workloads = bfsim::workloads;

namespace {

/** Scheme that removes every memory stall: the core-only reference. */
const std::string perfectScheme = "perfect";

/** One traced simulation of one target under one scheme. */
struct Run
{
    bool ok = false;
    double constructS = 0.0;
    double runS = 0.0;
    DeliveryClock delivery;
    std::uint64_t retired = 0; ///< CmpResult::totalRetired (incl. tail)
    std::uint64_t frozen = 0;  ///< instructions in the frozen core stats
    std::vector<sim::CoreStats> cores;
    std::vector<mem::CoreMemStats> mem;
    bfsim::core::BFetchStats bfetch{};
    std::uint64_t queuePushed = 0;
    std::uint64_t queueDropped = 0;
    std::uint64_t queueDuplicates = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramPrefetchReads = 0;
    std::uint64_t dramQueueDelay = 0;
};

/** The CoreConfig the harness builds for `scheme` under `options`. */
sim::CoreConfig
coreConfig(const std::string &scheme, const harness::RunOptions &options)
{
    sim::CoreConfig cfg;
    cfg.width = options.width;
    cfg.robSize = options.robSize;
    cfg.bpSizeScale = options.bpSizeScale;
    cfg.predictor = options.predictor;
    cfg.prefetcher = scheme;
    cfg.bfetch = options.bfetch;
    cfg.deadlockCycles = options.deadlockCycles;
    return cfg;
}

mem::HierarchyConfig
hierarchyConfig(unsigned cores, const harness::RunOptions &options)
{
    mem::HierarchyConfig cfg;
    cfg.numCores = cores;
    cfg.l3PerCoreBytes = options.l3PerCoreBytes;
    return cfg;
}

void
addBFetch(bfsim::core::BFetchStats &into,
          const bfsim::core::BFetchStats &from)
{
    into.lookaheadWalks += from.lookaheadWalks;
    into.blocksVisited += from.blocksVisited;
    into.prefetchesGenerated += from.prefetchesGenerated;
    into.pattPrefetches += from.pattPrefetches;
    into.loopPrefetches += from.loopPrefetches;
    into.filteredByPerLoad += from.filteredByPerLoad;
    into.stopsConfidence += from.stopsConfidence;
    into.stopsBrtcMiss += from.stopsBrtcMiss;
    into.stopsDepth += from.stopsDepth;
    into.mhtLearnUpdates += from.mhtLearnUpdates;
    into.brtcUpdates += from.brtcUpdates;
}

/** Add the engine, queue and DRAM counters of a finished Cmp. */
void
collectCounters(Run &run, const sim::Cmp &cmp, unsigned cores)
{
    for (unsigned c = 0; c < cores; ++c) {
        if (const auto *engine = cmp.core(c).bfetchEngine())
            addBFetch(run.bfetch, engine->stats());
        const auto &queue = cmp.core(c).prefetchQueue();
        run.queuePushed += queue.pushed();
        run.queueDropped += queue.dropped();
        run.queueDuplicates += queue.duplicates();
    }
    const mem::Dram &dram = cmp.hierarchy().dram();
    run.dramReads += dram.reads();
    run.dramPrefetchReads += dram.prefetchReads();
    run.dramQueueDelay += dram.totalQueueDelay();
}

/** A full detailed run over shared warm trace buffers. */
Run
simulateFull(const std::vector<std::shared_ptr<sim::TraceBuffer>> &buffers,
             const std::string &scheme, const harness::RunOptions &options)
{
    Run run;
    const unsigned n = static_cast<unsigned>(buffers.size());
    std::vector<std::unique_ptr<sim::DynOpSource>> sources;
    for (const auto &buffer : buffers) {
        sources.push_back(std::make_unique<TimedSource>(
            std::make_unique<sim::TraceReplay>(buffer), run.delivery));
    }
    std::uint64_t start = nowNs();
    sim::Cmp cmp(std::vector<sim::CoreConfig>(n, coreConfig(scheme, options)),
                 std::move(sources), hierarchyConfig(n, options));
    run.constructS = secondsSince(start);
    start = nowNs();
    try {
        sim::CmpResult result = cmp.run(options.instructions);
        run.runS = secondsSince(start);
        run.ok = true;
        run.cores = result.cores;
        run.mem = result.memStats;
        run.retired = result.totalRetired;
        for (const sim::CoreStats &core : result.cores)
            run.frozen += core.instructions;
    } catch (const bfsim::SimError &) {
        // The reference sweep must have failed this job too; the caller
        // compares outcomes.
        run.runS = secondsSince(start);
    }
    collectCounters(run, cmp, n);
    return run;
}

/**
 * A checkpoint-restored sampled run of one kernel, window by window, in
 * the schedule order the harness uses: a fresh Cmp per window over a
 * disk-tier window source, its L1-D warmed from the newest covering
 * checkpoint, and the measured deltas accumulated like the harness does.
 */
Run
simulateSampled(const workloads::Workload &workload,
                const trace_store::ArtifactReader &reader,
                const sim::TraceBuffer &checkpoints,
                const std::string &scheme, const harness::RunOptions &options)
{
    Run run;
    run.cores.resize(1);
    run.mem.resize(1);
    for (const harness::SampleWindow &win :
         harness::sampleSchedule(options.instructions, options.sample)) {
        std::vector<std::unique_ptr<sim::DynOpSource>> sources;
        sources.push_back(std::make_unique<TimedSource>(
            std::make_unique<sim::ArtifactWindowSource>(
                workload.program, reader.clone(), win.begin, win.end()),
            run.delivery));
        sim::WindowWarmup warm;
        bool have_warm = false;
        trace_store::Checkpoint ckpt;
        if (options.sample.ckptWarm && win.begin > 0 &&
            checkpoints.checkpointAtOrBefore(win.begin, ckpt)) {
            warm.l1Tags.push_back(std::move(ckpt.cacheTags));
            warm.snapshotWays = trace_store::checkpointCacheWays;
            have_warm = true;
        }
        std::uint64_t start = nowNs();
        sim::Cmp cmp({coreConfig(scheme, options)}, std::move(sources),
                     hierarchyConfig(1, options));
        run.constructS += secondsSince(start);
        start = nowNs();
        sim::CmpResult result = cmp.runWindow(
            win.warmup, win.measure, have_warm ? &warm : nullptr);
        run.runS += secondsSince(start);
        sim::accumulateCoreStats(run.cores[0], result.cores.at(0));
        mem::accumulateMemStats(run.mem[0], result.memStats.at(0));
        run.retired += result.totalRetired;
        run.frozen += result.totalRetired;
        collectCounters(run, cmp, 1);
    }
    run.ok = true;
    return run;
}

/** Ratio that reads 0 when nothing was measured. */
double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** runs[target][scheme]. */
using RunTable = std::vector<std::map<std::string, Run>>;

/**
 * Nanoseconds per retired op of `scheme` minus that of `base`, over the
 * targets where both ran to completion.
 */
double
differentialNsPerOp(const RunTable &runs, const std::string &scheme,
                    const std::string &base)
{
    double s_time = 0.0, b_time = 0.0;
    std::uint64_t s_ops = 0, b_ops = 0;
    for (const auto &by_scheme : runs) {
        auto s = by_scheme.find(scheme);
        auto b = by_scheme.find(base);
        if (s == by_scheme.end() || b == by_scheme.end() || !s->second.ok ||
            !b->second.ok)
            continue;
        s_time += s->second.runS;
        s_ops += s->second.retired;
        b_time += b->second.runS;
        b_ops += b->second.retired;
    }
    return 1e9 * (ratio(s_time, static_cast<double>(s_ops)) -
                  ratio(b_time, static_cast<double>(b_ops)));
}

/** Label -> reference batch item. */
std::map<std::string, const harness::BatchItem *>
itemsByLabel(const harness::BatchResult &batch)
{
    std::map<std::string, const harness::BatchItem *> items;
    for (const harness::BatchItem &item : batch.items)
        items[item.label] = &item;
    return items;
}

/**
 * Assemble the figure-style results of the reference sweep (the Fig. 8
 * speedup table, or mix weighted speedups over completed mixes only —
 * the abort-prone Fig. 10 printer is never called) and the JSON batch
 * report, filling the result.* metrics.
 */
void
assembleReport(const Sweep &sweep, const harness::BatchResult &ref,
               std::map<std::string, double> &m)
{
    auto items = itemsByLabel(ref);
    auto ok = [&](std::size_t t, const std::string &scheme) {
        const harness::BatchItem *item = items.at(sweep.label(t, scheme));
        return item->failed ? nullptr : item;
    };
    for (const char *scheme : {"Stride", "SMS", "Bfetch"}) {
        m["result.geomean_speedup." + std::string(scheme)] = 0.0;
        m["result.geomean_ws." + std::string(scheme)] = 0.0;
    }

    std::vector<harness::SpeedupSeries> series;
    bool complete = true;
    for (const std::string &scheme : sweep.schemes) {
        if (scheme == "None")
            continue;
        harness::SpeedupSeries s{scheme, {}};
        for (std::size_t t = 0; t < sweep.targets.size(); ++t) {
            const harness::BatchItem *base = ok(t, "None");
            const harness::BatchItem *with = ok(t, scheme);
            if (!base || !with)
                continue;
            s.values[sweep.targetNames[t]] =
                sweep.mix ? with->mix->weightedSpeedup /
                                base->mix->weightedSpeedup
                          : with->single->core.ipc / base->single->core.ipc;
        }
        std::vector<std::string> names;
        for (const auto &[name, value] : s.values)
            names.push_back(name);
        double g = names.empty() ? 0.0 : harness::seriesGeomean(s, names);
        m[(sweep.mix ? "result.geomean_ws." : "result.geomean_speedup.") +
          scheme] = g;
        complete = complete && names.size() == sweep.targets.size();
        series.push_back(std::move(s));
    }
    // The Fig. 8 table needs every kernel in every series.
    if (!sweep.mix && complete) {
        std::ostringstream table;
        harness::speedupTable(sweep.targetNames,
                              workloads::prefetchSensitiveNames(), series)
            .print(table);
    }
    // Mix results carry no B-Fetch stats; single-core ones do.
    double depth_sum = 0.0;
    std::size_t depths = 0;
    bool bfetch = std::find(sweep.schemes.begin(), sweep.schemes.end(),
                            "Bfetch") != sweep.schemes.end();
    for (std::size_t t = 0; bfetch && !sweep.mix && t < sweep.targets.size();
         ++t) {
        if (const harness::BatchItem *item = ok(t, "Bfetch")) {
            depth_sum += item->single->avgLookaheadDepth;
            ++depths;
        }
    }
    m["result.avg_lookahead_depth"] =
        ratio(depth_sum, static_cast<double>(depths));
    std::ostringstream report;
    harness::writeBatchReportJson(report, "perfbench-" + sweep.name, ref);
}

} // namespace

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> metrics{
        {"workloads.build_s", "s"},
        {"harness.mixes.foa_s", "s"},
        {"sim.trace.capture_s", "s"},
        {"sim.trace.capture_mops", "Mop/s"},
        {"sim.trace.resident_mb", "MB"},
        {"sim.trace.delivery_ns_per_op", "ns"},
        {"sim.trace_store.save_s", "s"},
        {"sim.trace_store.decode_s", "s"},
        {"sim.trace_store.bytes_per_op", "B"},
        {"sim.trace_store.hits", "count"},
        {"sim.trace_store.fallbacks", "count"},
        {"harness.sampling.windows", "count"},
        {"harness.sampling.checkpoint_hits", "count"},
        {"harness.sampling.ff_skipped_mops", "Mop"},
        {"harness.sampling.cpi_ci95_pct", "%"},
        {"harness.sampling.ms_per_window", "ms"},
        {"sim.cmp.construct_s", "s"},
        {"sim.cmp.run_s", "s"},
        {"sim.cmp.tail_frac", "fraction"},
        {"sim.ooo_core.ns_per_op", "ns"},
        {"sim.ooo_core.ipc", "ipc"},
        {"branch.mispredict_rate", "fraction"},
        {"core.bfetch.ns_per_op", "ns"},
        {"core.bfetch.walks", "count"},
        {"core.bfetch.blocks_per_walk", "blocks"},
        {"core.bfetch.prefetches_generated", "count"},
        {"core.bfetch.filtered_frac", "fraction"},
        {"core.bfetch.stops_confidence", "count"},
        {"core.bfetch.stops_brtc_miss", "count"},
        {"core.bfetch.stops_depth", "count"},
        {"prefetch.sms.ns_per_op", "ns"},
        {"prefetch.stride.ns_per_op", "ns"},
        {"prefetch.queue.pushed", "count"},
        {"prefetch.queue.dropped", "count"},
        {"prefetch.queue.duplicates", "count"},
        {"mem.ns_per_op", "ns"},
        {"mem.l1_hit_rate", "fraction"},
        {"mem.l2_hits", "count"},
        {"mem.l3_hits", "count"},
        {"mem.dram_accesses", "count"},
        {"mem.writebacks", "count"},
        {"mem.prefetch_accuracy", "fraction"},
        {"mem.prefetch_late_frac", "fraction"},
        {"mem.dram.reads", "count"},
        {"mem.dram.prefetch_reads", "count"},
        {"mem.dram.queue_delay_per_read", "cycles"},
        {"harness.batch.cpu_s", "s"},
        {"harness.batch.idle_frac", "fraction"},
        {"harness.batch.job_s_p50", "s"},
        {"harness.batch.job_s_max", "s"},
        {"harness.batch.jobs", "count"},
        {"harness.batch.jobs_failed", "count"},
        {"harness.report_s", "s"},
        {"result.geomean_speedup.Stride", "x"},
        {"result.geomean_speedup.SMS", "x"},
        {"result.geomean_speedup.Bfetch", "x"},
        {"result.geomean_ws.Stride", "x"},
        {"result.geomean_ws.SMS", "x"},
        {"result.geomean_ws.Bfetch", "x"},
        {"result.avg_lookahead_depth", "blocks"},
        {"tracing.overhead_ratio", "x"},
    };
    return metrics;
}

TracedOutcome
tracedRun(const Sweep &sweep, std::uint64_t seed, std::ostream &info)
{
    TracedOutcome out;
    std::map<std::string, double> &m = out.metrics;
    const harness::RunOptions &options = sweep.options;

    // ---- reference sweep, untraced ----
    trace_store::Stats store_before = trace_store::stats();
    harness::BatchResult ref =
        runSweepOnce(sweep, shuffledJobs(sweep, seed, 0));
    trace_store::Stats store_after = trace_store::stats();
    harness::TraceCacheStats trace_cache = harness::traceCacheStats();
    out.jobs = ref.items.size();
    out.failed = ref.failures();
    std::map<std::string, std::string> ref_digests = jobDigests(ref);
    if (!sweep.storeDir.empty()) {
        std::vector<std::string> problems = storeReadProblems(ref);
        if (!problems.empty())
            throw std::runtime_error("sampled store check: " +
                                     problems.front());
    }

    std::uint64_t start = nowNs();
    assembleReport(sweep, ref, m);
    m["harness.report_s"] = secondsSince(start);

    // The traced run keeps its own buffers; drop the harness's.
    harness::clearTraceCache();

    // ---- traced serial re-simulation ----
    std::vector<std::string> schemes{perfectScheme};
    schemes.insert(schemes.end(), sweep.schemes.begin(),
                   sweep.schemes.end());
    RunTable runs(sweep.targets.size());
    std::vector<std::string> mismatches;

    std::map<std::string, std::size_t> last_use;
    for (std::size_t t = 0; t < sweep.targets.size(); ++t)
        for (const std::string &name : sweep.targets[t])
            last_use[name] = t;
    std::map<std::string, std::shared_ptr<sim::TraceBuffer>> buffers;
    // Provision what the longest run may walk (frozen mix cores keep
    // executing up to the contention-tail cap; cores read ahead by whole
    // delivery batches), so capture never lands inside a timed delivery
    // span.
    const std::uint64_t provision =
        options.instructions *
            (sweep.mix ? sim::Cmp::contentionTailFactor : 1) +
        2 * sim::opBatchSize + sim::TraceBuffer::chunkOps;

    for (std::size_t t = 0; t < sweep.targets.size(); ++t) {
        std::vector<std::shared_ptr<sim::TraceBuffer>> target_buffers;
        std::unique_ptr<trace_store::ArtifactReader> reader;
        std::unique_ptr<sim::TraceBuffer> checkpoints;
        const workloads::Workload &first =
            workloads::workloadByName(sweep.targets[t].front());
        if (!sweep.storeDir.empty()) {
            reader = trace_store::openArtifact(
                trace_store::makeKey(first.name, options.instructions,
                                     first.program),
                first.program);
            if (!reader || !reader->seekable())
                throw std::runtime_error("no seekable store artifact for " +
                                         first.name);
            checkpoints = std::make_unique<sim::TraceBuffer>(
                first.program, reader->clone());
        } else {
            for (const std::string &name : sweep.targets[t]) {
                auto &buffer = buffers[name];
                if (!buffer) {
                    buffer = std::make_shared<sim::TraceBuffer>(
                        workloads::workloadByName(name).program);
                    buffer->ensure(provision);
                }
                target_buffers.push_back(buffer);
            }
        }
        for (const std::string &scheme : schemes) {
            Run run = reader ? simulateSampled(first, *reader, *checkpoints,
                                               scheme, options)
                             : simulateFull(target_buffers, scheme, options);
            if (scheme != perfectScheme) {
                // MixResult carries no B-Fetch stats to compare against.
                std::string label = sweep.label(t, scheme);
                std::string digest =
                    run.ok ? digestStats(run.cores, run.mem,
                                         sweep.mix ? bfsim::core::BFetchStats{}
                                                   : run.bfetch)
                           : "failed";
                if (digest != ref_digests.at(label))
                    mismatches.push_back(label);
            }
            runs[t][scheme] = std::move(run);
        }
        for (const std::string &name : sweep.targets[t])
            if (last_use[name] == t)
                buffers.erase(name);
    }
    if (!mismatches.empty())
        throw std::runtime_error(
            std::to_string(mismatches.size()) +
            " traced job(s) differ from the untraced sweep, first " +
            mismatches.front());

    // ---- per-layer aggregation ----
    double construct = 0.0, run_s = 0.0, delivery_ns = 0.0;
    std::uint64_t delivered = 0, retired = 0, frozen = 0;
    double perfect_core_s = 0.0;
    std::uint64_t perfect_ops = 0;
    std::uint64_t none_insts = 0, none_cycles = 0, cond = 0, mispred = 0;
    bfsim::core::BFetchStats bfetch{};
    std::uint64_t pushed = 0, dropped = 0, dups = 0;
    mem::CoreMemStats mem_sum{};
    std::uint64_t dram_reads = 0, dram_pf = 0, dram_delay = 0;
    for (const auto &by_scheme : runs) {
        for (const auto &[scheme, run] : by_scheme) {
            delivery_ns += static_cast<double>(run.delivery.ns);
            delivered += run.delivery.ops;
            if (scheme == perfectScheme) {
                if (run.ok) {
                    perfect_core_s +=
                        run.runS -
                        static_cast<double>(run.delivery.ns) / 1e9;
                    perfect_ops += run.retired;
                }
                continue;
            }
            construct += run.constructS;
            run_s += run.runS;
            if (!run.ok)
                continue;
            retired += run.retired;
            frozen += run.frozen;
            if (scheme == "None") {
                for (const sim::CoreStats &core : run.cores) {
                    none_insts += core.instructions;
                    none_cycles += core.cycles;
                    cond += core.condBranches;
                    mispred += core.mispredicts;
                }
            }
            addBFetch(bfetch, run.bfetch);
            pushed += run.queuePushed;
            dropped += run.queueDropped;
            dups += run.queueDuplicates;
            for (const mem::CoreMemStats &core_mem : run.mem)
                mem::accumulateMemStats(mem_sum, core_mem);
            dram_reads += run.dramReads;
            dram_pf += run.dramPrefetchReads;
            dram_delay += run.dramQueueDelay;
        }
    }
    const double r = static_cast<double>(retired);
    const SetupSpans &setup = sweep.setup;
    m["workloads.build_s"] = setup.workloadsBuild;
    m["harness.mixes.foa_s"] = setup.foa;
    m["sim.trace.capture_s"] = setup.capture;
    m["sim.trace.capture_mops"] =
        ratio(static_cast<double>(setup.capturedOps) / 1e6, setup.capture);
    m["sim.trace.resident_mb"] =
        static_cast<double>(trace_cache.residentBytes) / (1024.0 * 1024.0);
    m["sim.trace.delivery_ns_per_op"] =
        ratio(delivery_ns, static_cast<double>(delivered));
    m["sim.trace_store.save_s"] = setup.save;
    m["sim.trace_store.decode_s"] =
        store_after.decodeSeconds - store_before.decodeSeconds;
    m["sim.trace_store.bytes_per_op"] = store_before.bytesPerOp();
    m["sim.trace_store.hits"] =
        static_cast<double>(store_after.hits - store_before.hits);
    m["sim.trace_store.fallbacks"] =
        static_cast<double>(store_after.fallbacks - store_before.fallbacks);

    std::uint64_t windows = 0, ckpt_hits = 0, ff_skipped = 0;
    double ci_pct = 0.0, sampled_s = 0.0;
    std::size_t sampled_jobs = 0;
    for (const harness::BatchItem &item : ref.items) {
        if (item.failed || !item.single || !item.single->sampled.enabled)
            continue;
        const harness::SampledStats &s = item.single->sampled;
        windows += s.windows;
        ckpt_hits += s.checkpointHits;
        ff_skipped += s.ffSkippedOps;
        ci_pct += 100.0 * ratio(s.cpiCi95, s.cpi);
        sampled_s += item.seconds;
        ++sampled_jobs;
    }
    m["harness.sampling.windows"] = static_cast<double>(windows);
    m["harness.sampling.checkpoint_hits"] = static_cast<double>(ckpt_hits);
    m["harness.sampling.ff_skipped_mops"] =
        static_cast<double>(ff_skipped) / 1e6;
    m["harness.sampling.cpi_ci95_pct"] =
        ratio(ci_pct, static_cast<double>(sampled_jobs));
    m["harness.sampling.ms_per_window"] =
        1e3 * ratio(sampled_s, static_cast<double>(windows));

    m["sim.cmp.construct_s"] = construct;
    m["sim.cmp.run_s"] = run_s;
    m["sim.cmp.tail_frac"] =
        sweep.storeDir.empty() ? ratio(r - static_cast<double>(frozen), r)
                               : 0.0;
    m["sim.ooo_core.ns_per_op"] =
        1e9 * ratio(perfect_core_s, static_cast<double>(perfect_ops));
    m["sim.ooo_core.ipc"] = ratio(static_cast<double>(none_insts),
                                  static_cast<double>(none_cycles));
    m["branch.mispredict_rate"] =
        ratio(static_cast<double>(mispred), static_cast<double>(cond));

    auto has = [&](const char *scheme) {
        return std::find(sweep.schemes.begin(), sweep.schemes.end(),
                         scheme) != sweep.schemes.end();
    };
    m["core.bfetch.ns_per_op"] =
        has("Bfetch") ? differentialNsPerOp(runs, "Bfetch", "None") : 0.0;
    m["core.bfetch.walks"] = static_cast<double>(bfetch.lookaheadWalks);
    m["core.bfetch.blocks_per_walk"] =
        ratio(static_cast<double>(bfetch.blocksVisited),
              static_cast<double>(bfetch.lookaheadWalks));
    m["core.bfetch.prefetches_generated"] =
        static_cast<double>(bfetch.prefetchesGenerated);
    m["core.bfetch.filtered_frac"] =
        ratio(static_cast<double>(bfetch.filteredByPerLoad),
              static_cast<double>(bfetch.filteredByPerLoad +
                                  bfetch.prefetchesGenerated));
    m["core.bfetch.stops_confidence"] =
        static_cast<double>(bfetch.stopsConfidence);
    m["core.bfetch.stops_brtc_miss"] =
        static_cast<double>(bfetch.stopsBrtcMiss);
    m["core.bfetch.stops_depth"] = static_cast<double>(bfetch.stopsDepth);
    m["prefetch.sms.ns_per_op"] =
        has("SMS") ? differentialNsPerOp(runs, "SMS", "None") : 0.0;
    m["prefetch.stride.ns_per_op"] =
        has("Stride") ? differentialNsPerOp(runs, "Stride", "None") : 0.0;
    m["prefetch.queue.pushed"] = static_cast<double>(pushed);
    m["prefetch.queue.dropped"] = static_cast<double>(dropped);
    m["prefetch.queue.duplicates"] = static_cast<double>(dups);

    m["mem.ns_per_op"] = differentialNsPerOp(runs, "None", perfectScheme);
    m["mem.l1_hit_rate"] = ratio(static_cast<double>(mem_sum.l1Hits),
                                 static_cast<double>(mem_sum.accesses));
    m["mem.l2_hits"] = static_cast<double>(mem_sum.l2Hits);
    m["mem.l3_hits"] = static_cast<double>(mem_sum.l3Hits);
    m["mem.dram_accesses"] = static_cast<double>(mem_sum.dramAccesses);
    m["mem.writebacks"] = static_cast<double>(mem_sum.writebacks);
    m["mem.prefetch_accuracy"] =
        ratio(static_cast<double>(mem_sum.usefulPrefetches),
              static_cast<double>(mem_sum.usefulPrefetches +
                                  mem_sum.uselessPrefetches));
    m["mem.prefetch_late_frac"] =
        ratio(static_cast<double>(mem_sum.latePrefetches),
              static_cast<double>(mem_sum.usefulPrefetches));
    m["mem.dram.reads"] = static_cast<double>(dram_reads);
    m["mem.dram.prefetch_reads"] = static_cast<double>(dram_pf);
    m["mem.dram.queue_delay_per_read"] =
        ratio(static_cast<double>(dram_delay),
              static_cast<double>(dram_reads + dram_pf));

    std::vector<double> job_seconds;
    for (const harness::BatchItem &item : ref.items)
        job_seconds.push_back(item.seconds);
    std::sort(job_seconds.begin(), job_seconds.end());
    m["harness.batch.cpu_s"] = ref.cpuSeconds;
    m["harness.batch.idle_frac"] =
        1.0 - ratio(ref.cpuSeconds, ref.threads * ref.wallSeconds);
    m["harness.batch.job_s_p50"] =
        job_seconds.empty() ? 0.0 : job_seconds[job_seconds.size() / 2];
    m["harness.batch.job_s_max"] =
        job_seconds.empty() ? 0.0 : job_seconds.back();
    m["harness.batch.jobs"] = static_cast<double>(ref.items.size());
    m["harness.batch.jobs_failed"] = static_cast<double>(ref.failures());
    m["tracing.overhead_ratio"] = ratio(construct + run_s, ref.cpuSeconds);

    for (const auto &[name, unit] : perLayerMetrics()) {
        if (!m.count(name))
            throw std::logic_error("traced run did not set " + name);
    }
    if (m.size() != perLayerMetrics().size())
        throw std::logic_error("traced run set an unlisted metric");

    info << "informational, never gated (unvalidated model: synthetic "
            "kernels, no reference hardware):\n";
    if (sweep.mix) {
        info << "  result.geomean_ws.SMS = " << m["result.geomean_ws.SMS"]
             << " over completed mixes (paper Fig. 10: 1.196)\n"
             << "  result.geomean_ws.Bfetch = "
             << m["result.geomean_ws.Bfetch"]
             << " over completed mixes (paper Fig. 10: 1.285)\n";
    } else {
        info << "  result.geomean_speedup.SMS = "
             << m["result.geomean_speedup.SMS"]
             << " (paper Fig. 8: 1.197)\n";
        if (has("Bfetch"))
            info << "  result.geomean_speedup.Bfetch = "
                 << m["result.geomean_speedup.Bfetch"]
                 << " (paper Fig. 8: 1.232)\n";
    }
    for (const harness::BatchItem &item : ref.items) {
        if (item.failed)
            info << "  failed: " << item.label << ": " << item.error << '\n';
    }
    return out;
}

} // namespace perfbench
