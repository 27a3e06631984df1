/**
 * @file
 * The traced run behind the per-layer metrics. It runs the sweep once
 * untraced (the reference: harness.batch numbers and per-job digests),
 * then re-simulates every job serially from the benchmark's own code:
 * each Cmp is built from public CoreConfig / HierarchyConfig fields over
 * TimedSource-wrapped trace cursors, with spans around the constructor
 * and run. Every re-simulated job must reproduce the reference job's
 * stats, which proves the traced run measures the same program.
 *
 * Differential rows re-simulate each target under another scheme on the
 * same warm trace: "perfect" (no memory stalls) isolates the core, None
 * minus perfect the memory system, and a prefetcher minus None that
 * scheme's cost, including the extra fills it induces.
 */

#ifndef BFSIM_PERFBENCH_TRACED_HH_
#define BFSIM_PERFBENCH_TRACED_HH_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sweep.hh"

namespace perfbench {

/** Every per-layer metric the traced run emits: {name, unit}. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

struct TracedOutcome
{
    /** Value of each perLayerMetrics() name. */
    std::map<std::string, double> metrics;
    std::size_t jobs = 0;   ///< reference-sweep jobs attempted
    std::size_t failed = 0; ///< reference-sweep jobs failed
};

/**
 * Run the reference sweep and the traced re-simulation, writing the
 * informational result-vs-paper lines to `info`. Throws
 * std::runtime_error when a correctness check fails.
 */
TracedOutcome tracedRun(const Sweep &sweep, std::uint64_t seed,
                        std::ostream &info);

} // namespace perfbench

#endif // BFSIM_PERFBENCH_TRACED_HH_
