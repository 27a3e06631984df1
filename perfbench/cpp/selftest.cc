/**
 * @file
 * Benchmark self-test: the forwarding TimedSource must be transparent.
 * One kernel is simulated with and without the wrapper, over the span
 * delivery path (trace replay) and the batch path (live execution), and
 * the CoreStats / CoreMemStats / BFetchStats digests must match. Exits 0
 * when every case matches.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/cmp.hh"
#include "sim/trace.hh"
#include "sweep.hh"
#include "timed_source.hh"
#include "workloads/workload.hh"

namespace {

using namespace perfbench;
namespace sim = bfsim::sim;

constexpr std::uint64_t budget = 100'000;

std::string
simulate(std::unique_ptr<sim::DynOpSource> source, const std::string &scheme)
{
    sim::CoreConfig cfg;
    cfg.prefetcher = scheme;
    cfg.deadlockCycles = 2'000'000;
    std::vector<std::unique_ptr<sim::DynOpSource>> sources;
    sources.push_back(std::move(source));
    sim::Cmp cmp({cfg}, std::move(sources), bfsim::mem::HierarchyConfig{});
    sim::CmpResult result = cmp.run(budget);
    bfsim::core::BFetchStats bfetch{};
    if (const auto *engine = cmp.core(0).bfetchEngine())
        bfetch = engine->stats();
    return digestStats(result.cores, result.memStats, bfetch);
}

} // namespace

int
main()
{
    try {
        refuseBfsimEnvironment();
        const auto &workload = bfsim::workloads::workloadByName("mcf");
        auto buffer = std::make_shared<sim::TraceBuffer>(workload.program);
        buffer->ensure(budget + sim::TraceBuffer::chunkOps);
        int failures = 0;
        for (const std::string scheme : {"None", "SMS", "Bfetch"}) {
            DeliveryClock span_clock, batch_clock;
            bool same_span =
                simulate(std::make_unique<sim::TraceReplay>(buffer),
                         scheme) ==
                simulate(std::make_unique<TimedSource>(
                             std::make_unique<sim::TraceReplay>(buffer),
                             span_clock),
                         scheme);
            bool same_batch =
                simulate(std::make_unique<sim::LiveSource>(workload.program),
                         scheme) ==
                simulate(std::make_unique<TimedSource>(
                             std::make_unique<sim::LiveSource>(
                                 workload.program),
                             batch_clock),
                         scheme);
            bool counted =
                span_clock.ops >= budget && batch_clock.ops >= budget;
            std::printf("%-7s span path %s, batch path %s, ops counted %s\n",
                        scheme.c_str(), same_span ? "identical" : "DIFFERS",
                        same_batch ? "identical" : "DIFFERS",
                        counted ? "yes" : "NO");
            failures += !same_span + !same_batch + !counted;
        }
        std::printf("selftest %s\n", failures ? "FAILED" : "ok");
        return failures ? 1 : 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench_selftest: %s\n", error.what());
        return 1;
    }
}
