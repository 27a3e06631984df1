#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "harness/experiment.hh"
#include "harness/mixes.hh"
#include "sim/ooo_core.hh"
#include "sim/trace_store.hh"
#include "workloads/workload.hh"

extern char **environ;

namespace perfbench {

namespace sim = bfsim::sim;
namespace mem = bfsim::mem;
namespace workloads = bfsim::workloads;

namespace {

/** Fig. 10 compares the first ten of the paper's 29 FOA-selected mixes. */
constexpr unsigned mixCount = 10;

/**
 * Sampling schedule for `sampled`: 20 windows per 4M-op run, each 1K ops
 * of detailed warmup after a checkpoint restore plus 8K measured ops
 * (the CI sampling gate's window shape).
 */
constexpr const char *sampleSpec = "200000:1000:8000:ckpt";

const std::vector<std::string> fullSchemes{"None", "Stride", "SMS",
                                           "Bfetch"};

/** Paper baseline options with every knob set explicitly. */
harness::RunOptions
baselineOptions(std::uint64_t instructions)
{
    harness::RunOptions options;
    options.instructions = instructions;
    options.width = 4;
    options.robSize = 192;
    options.bpSizeScale = 1.0;
    options.predictor = "tournament";
    options.bfetch = bfsim::core::BFetchConfig{};
    options.l3PerCoreBytes = 2 * 1024 * 1024;
    options.deadlockCycles = 2'000'000;
    options.sample = harness::SampleConfig{};
    options.sample.enabled = false;
    options.sample.jobs = 1;
    return options;
}

/** The batch failure policy and backend, every field set explicitly. */
harness::BatchOptions
batchOptions()
{
    harness::BatchOptions options;
    options.retries = 0;
    options.failFast = false;
    options.jobDeadlineSeconds = 0.0;
    options.isolate = harness::IsolateMode::None;
    options.journalDir.clear();
    options.poisonThreshold = 3;
    options.heartbeatTimeoutSeconds = 30.0;
    return options;
}

void
noProgress(const harness::BatchItem &, std::size_t, std::size_t)
{
}

/**
 * Call `body` for every name on simThreads threads. Plain threads, not
 * runBatch: runBatch persists the trace store when it finishes, which
 * would fold the store write into the capture span.
 */
void
forEachParallel(const std::vector<std::string> &names,
                const std::function<void(const std::string &)> &body)
{
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    auto worker = [&] {
        for (std::size_t i = next++; i < names.size(); i = next++) {
            try {
                body(names[i]);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> threads;
    try {
        for (unsigned t = 0; t < simThreads; ++t)
            threads.emplace_back(worker);
    } catch (...) {
        // Never destroy a joinable thread; the started ones finish the
        // remaining names before the failure propagates.
        for (std::thread &thread : threads)
            thread.join();
        throw;
    }
    for (std::thread &thread : threads)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

/** Materialise the shared trace of every workload in `names`. */
void
warmTraces(Sweep &sweep, const std::vector<std::string> &names)
{
    std::uint64_t ops_before = harness::traceCacheStats().opsExecuted;
    std::uint64_t start = nowNs();
    forEachParallel(names, [&options = sweep.options](
                               const std::string &name) {
        harness::warmSharedTrace(name, options);
    });
    sweep.setup.capture += secondsSince(start);
    sweep.setup.capturedOps +=
        harness::traceCacheStats().opsExecuted - ops_before;
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;

void
fnv(std::uint64_t &hash, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
}

template <typename T>
void
fnvValue(std::uint64_t &hash, T value)
{
    fnv(hash, &value, sizeof(value));
}

std::string
hex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

std::string
Sweep::label(std::size_t t, const std::string &scheme) const
{
    return name + '/' + targetNames.at(t) + '/' + scheme;
}

std::vector<harness::BatchJob>
Sweep::jobs() const
{
    std::vector<harness::BatchJob> jobs;
    for (std::size_t t = 0; t < targets.size(); ++t) {
        for (const std::string &scheme : schemes) {
            jobs.push_back(
                mix ? harness::BatchJob::mix(targets[t], scheme, options,
                                             label(t, scheme))
                    : harness::BatchJob::single(targets[t].front(), scheme,
                                                options, label(t, scheme)));
        }
    }
    return jobs;
}

Sweep
prepareSweep(const std::string &workload, const std::string &store_dir)
{
    Sweep sweep;
    sweep.name = workload;

    std::uint64_t start = nowNs();
    const std::vector<workloads::Workload> &suite = workloads::allWorkloads();
    sweep.setup.workloadsBuild = secondsSince(start);
    std::vector<std::string> kernels;
    for (const workloads::Workload &w : suite)
        kernels.push_back(w.name);

    if (workload == "single") {
        sweep.options = baselineOptions(400'000);
        sweep.schemes = fullSchemes;
        for (const std::string &kernel : kernels) {
            sweep.targets.push_back({kernel});
            sweep.targetNames.push_back(kernel);
        }
        warmTraces(sweep, kernels);
    } else if (workload == "mix4") {
        sweep.options = baselineOptions(200'000);
        sweep.schemes = fullSchemes;
        sweep.mix = true;
        start = nowNs();
        forEachParallel(kernels, [](const std::string &kernel) {
            harness::foaProfile(kernel);
        });
        std::vector<harness::Mix> mixes = harness::selectMixes(4, 29);
        sweep.setup.foa = secondsSince(start);
        std::vector<std::string> members;
        for (unsigned m = 0; m < mixCount && m < mixes.size(); ++m) {
            sweep.targets.push_back(mixes[m].workloads);
            sweep.targetNames.push_back("mix" + std::to_string(m + 1));
            for (const std::string &name : mixes[m].workloads) {
                if (std::find(members.begin(), members.end(), name) ==
                    members.end())
                    members.push_back(name);
            }
        }
        warmTraces(sweep, members);
    } else if (workload == "sampled") {
        if (store_dir.empty())
            throw std::invalid_argument("sampled needs a store directory");
        sweep.options = baselineOptions(4'000'000);
        sweep.options.sample = harness::SampleConfig::parse(sampleSpec);
        sweep.options.sample.jobs = 1;
        sweep.schemes = {"None", "SMS"};
        sweep.storeDir = store_dir;
        sim::trace_store::setDirectory(store_dir);
        for (const std::string &kernel : kernels) {
            sweep.targets.push_back({kernel});
            sweep.targetNames.push_back(kernel);
        }
        // Capture, persist and drop simThreads traces at a time, so the
        // resident set holds two 4M-op buffers, not eighteen.
        for (std::size_t i = 0; i < kernels.size(); i += simThreads) {
            std::vector<std::string> batch(
                kernels.begin() + static_cast<std::ptrdiff_t>(i),
                kernels.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(i + simThreads,
                                               kernels.size())));
            warmTraces(sweep, batch);
            start = nowNs();
            std::size_t written = harness::persistTraceStore();
            sweep.setup.save += secondsSince(start);
            if (written != batch.size())
                throw std::runtime_error("trace store wrote " +
                                         std::to_string(written) + " of " +
                                         std::to_string(batch.size()) +
                                         " artifacts");
            harness::clearTraceCache();
        }
    } else {
        throw std::invalid_argument("unknown workload '" + workload + "'");
    }
    return sweep;
}

std::vector<harness::BatchJob>
shuffledJobs(const Sweep &sweep, std::uint64_t seed, std::uint64_t rep)
{
    std::vector<std::size_t> order(sweep.targets.size());
    for (std::size_t t = 0; t < order.size(); ++t)
        order[t] = t;
    std::uint64_t state = seed * 0x100000001b3ull + rep;
    for (std::size_t i = order.size(); i > 1; --i) {
        std::size_t j = static_cast<std::size_t>(splitmix64(state) % i);
        std::swap(order[i - 1], order[j]);
    }
    // Scheme-major, most expensive scheme (listed last) first: the batch
    // then ends on short jobs, so load imbalance in its tail stays small
    // whatever order the seed picks for the targets.
    std::vector<harness::BatchJob> all = sweep.jobs();
    std::vector<harness::BatchJob> jobs;
    const std::size_t schemes = sweep.schemes.size();
    for (std::size_t s = schemes; s-- > 0;)
        for (std::size_t t : order)
            jobs.push_back(all[t * schemes + s]);
    return jobs;
}

harness::BatchResult
runSweepOnce(const Sweep &sweep, const std::vector<harness::BatchJob> &jobs)
{
    harness::clearMemoCaches();
    if (!sweep.storeDir.empty())
        harness::clearTraceCache();
    return harness::runBatch(jobs, simThreads, noProgress, batchOptions());
}

std::string
digestStats(const std::vector<sim::CoreStats> &cores,
            const std::vector<mem::CoreMemStats> &mem,
            const bfsim::core::BFetchStats &bfetch)
{
    std::uint64_t hash = fnvOffset;
    for (const sim::CoreStats &c : cores) {
        fnvValue(hash, c.instructions);
        fnvValue(hash, c.cycles);
        fnvValue(hash, c.ipc);
        fnvValue(hash, c.condBranches);
        fnvValue(hash, c.mispredicts);
        fnvValue(hash, c.branchMissRate);
        fnvValue(hash, c.loads);
        fnvValue(hash, c.stores);
        for (std::uint64_t n : c.branchesPerFetchCycle)
            fnvValue(hash, n);
        fnvValue(hash, c.fetchCyclesWithBranch);
    }
    for (const mem::CoreMemStats &m : mem) {
        for (std::uint64_t n :
             {m.accesses, m.l1Hits, m.l2Hits, m.l3Hits, m.dramAccesses,
              m.prefetchesIssued, m.prefetchesDuplicate,
              m.usefulPrefetches, m.uselessPrefetches, m.latePrefetches,
              m.writebacks})
            fnvValue(hash, n);
    }
    for (std::uint64_t n :
         {bfetch.lookaheadWalks, bfetch.blocksVisited,
          bfetch.prefetchesGenerated, bfetch.pattPrefetches,
          bfetch.loopPrefetches, bfetch.filteredByPerLoad,
          bfetch.stopsConfidence, bfetch.stopsBrtcMiss, bfetch.stopsDepth,
          bfetch.mhtLearnUpdates, bfetch.brtcUpdates})
        fnvValue(hash, n);
    return hex(hash);
}

std::map<std::string, std::string>
jobDigests(const harness::BatchResult &batch)
{
    std::map<std::string, std::string> digests;
    for (const harness::BatchItem &item : batch.items) {
        std::string digest = "failed";
        if (!item.failed && item.single) {
            digest = digestStats({item.single->core}, {item.single->mem},
                                 item.single->bfetch);
        } else if (!item.failed && item.mix) {
            digest = digestStats(item.mix->cores, item.mix->mem, {});
        }
        digests[item.label] = digest;
    }
    return digests;
}

std::string
combinedDigest(const std::map<std::string, std::string> &jobs)
{
    std::uint64_t hash = fnvOffset;
    for (const auto &[label, digest] : jobs) {
        fnv(hash, label.data(), label.size());
        fnv(hash, "=", 1);
        fnv(hash, digest.data(), digest.size());
        fnv(hash, ";", 1);
    }
    return hex(hash);
}

std::vector<std::string>
storeReadProblems(const harness::BatchResult &batch)
{
    std::vector<std::string> problems;
    for (const harness::BatchItem &item : batch.items) {
        const harness::SampledStats *sampled =
            item.single ? &item.single->sampled : nullptr;
        if (item.failed || !sampled || !sampled->enabled) {
            problems.push_back(item.label + ": no sampled result");
            continue;
        }
        if (item.traceDiskHits == 0)
            problems.push_back(item.label + ": no trace-store hit");
        if (item.traceFallbacks != 0)
            problems.push_back(item.label + ": trace fallback");
        if (sampled->ffInstructions != 0)
            problems.push_back(item.label +
                               ": window prefix materialised from memory");
        if (sampled->checkpointHits == 0)
            problems.push_back(item.label + ": no checkpoint restore");
    }
    if (sim::trace_store::stats().fallbacks != 0)
        problems.push_back("trace store reported fallbacks");
    return problems;
}

void
refuseBfsimEnvironment()
{
    for (char **env = environ; env && *env; ++env) {
        if (std::strncmp(*env, "BFSIM_", 6) == 0) {
            std::string entry = *env;
            throw std::runtime_error(
                "refusing to run with " + entry.substr(0, entry.find('=')) +
                " set: BFSIM_* variables change what is measured");
        }
    }
}

} // namespace perfbench
