/**
 * @file
 * The benchmark's three workloads, driven through the harness library's
 * public API (harness::runBatch and friends) rather than through the
 * figure binaries:
 *
 *  - single:  the Fig. 8 sweep, 18 kernels x {None, Stride, SMS, Bfetch},
 *             full detailed single-core runs at the figure's 400K budget.
 *  - mix4:    the first ten FOA-selected 4-app mixes x the same schemes on
 *             a 4-core Cmp at the Fig. 10 budget (shared L3 + DRAM).
 *  - sampled: 18 kernels x {None, SMS}, checkpoint-restored SMARTS
 *             sampling at a converged 4M budget, every window read from a
 *             fresh on-disk trace store.
 *
 * Every option is set here in code; nothing is read from BFSIM_*
 * variables (refuseBfsimEnvironment rejects a process that has any).
 */

#ifndef BFSIM_PERFBENCH_SWEEP_HH_
#define BFSIM_PERFBENCH_SWEEP_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/batch.hh"

namespace perfbench {

namespace harness = bfsim::harness;

/**
 * Simulation threads per workload: batch workers x sampling-window
 * threads. Two leaves headroom on a 4-vCPU host shared with the
 * benchmark's own process and the machine's other tenants.
 */
constexpr unsigned simThreads = 2;

/** Wall seconds since `start` on the steady clock. */
double secondsSince(std::uint64_t start_ns);

/** Now on the steady clock, in nanoseconds. */
std::uint64_t nowNs();

/** Wall-clock spans of the set-up phases (seconds). */
struct SetupSpans
{
    double workloadsBuild = 0.0; ///< first workloads::allWorkloads()
    /**
     * FOA profiles (mix4 only). The profiling runs share the mix
     * budget's trace-cache keys, so they capture the traces too.
     */
    double foa = 0.0;
    double capture = 0.0;        ///< warmSharedTrace calls
    std::uint64_t capturedOps = 0; ///< ops those calls materialised
    double save = 0.0;           ///< persistTraceStore (sampled only)
};

/** One prepared workload: its options, job list and set-up record. */
struct Sweep
{
    std::string name;
    harness::RunOptions options;
    /** Prefetch schemes the sweep compares, "None" first. */
    std::vector<std::string> schemes;
    /**
     * Simulation targets: one workload name per single-core target, the
     * member names per mix. Jobs are targets x schemes.
     */
    std::vector<std::vector<std::string>> targets;
    /** Display name of each target ("astar", "mix3", ...). */
    std::vector<std::string> targetNames;
    bool mix = false;
    /** Directory of the on-disk trace store ("" = store unused). */
    std::string storeDir;
    SetupSpans setup;

    /** Label of the job simulating target `t` under `scheme`. */
    std::string label(std::size_t t, const std::string &scheme) const;

    /** All jobs in canonical (target-major) order. */
    std::vector<harness::BatchJob> jobs() const;
};

/**
 * Perform the workload's set-up — workload image build, FOA profiles
 * (mix4), trace capture, and for `sampled` the store write into
 * `store_dir` followed by harness::clearTraceCache() — and return the
 * prepared sweep. Throws std::invalid_argument for an unknown name.
 */
Sweep prepareSweep(const std::string &workload, const std::string &store_dir);

/**
 * The sweep's jobs in a seed-determined order: scheme by scheme, the
 * targets shuffled by (seed, rep). Results never depend on the order
 * (the memo and trace caches make every job deterministic); only
 * scheduling, and thus batch load balance, does.
 */
std::vector<harness::BatchJob> shuffledJobs(const Sweep &sweep,
                                            std::uint64_t seed,
                                            std::uint64_t rep);

/**
 * Run one timed repetition of the sweep from cold memo caches (and, for
 * `sampled`, a cold trace cache, so every window reads the store). The
 * returned items are valid until the next call.
 */
harness::BatchResult runSweepOnce(const Sweep &sweep,
                                  const std::vector<harness::BatchJob> &jobs);

/** FNV-1a digest of simulated statistics, as a 16-digit hex string. */
std::string digestStats(const std::vector<bfsim::sim::CoreStats> &cores,
                        const std::vector<bfsim::mem::CoreMemStats> &mem,
                        const bfsim::core::BFetchStats &bfetch);

/**
 * Per-job digests keyed by label: the stats digest of a completed job,
 * "failed" for a job that failed.
 */
std::map<std::string, std::string>
jobDigests(const harness::BatchResult &batch);

/** One digest over a whole label -> digest map. */
std::string combinedDigest(const std::map<std::string, std::string> &jobs);

/**
 * Problems with how `sampled` read its traces this repetition (empty when
 * every job opened the store, no trace path fell back, no window
 * materialised a prefix sequentially, and windows restored checkpoints).
 */
std::vector<std::string> storeReadProblems(const harness::BatchResult &batch);

/**
 * Throw std::runtime_error naming the first BFSIM_* environment variable
 * set in this process: any of them could silently change what is
 * measured.
 */
void refuseBfsimEnvironment();

} // namespace perfbench

#endif // BFSIM_PERFBENCH_SWEEP_HH_
