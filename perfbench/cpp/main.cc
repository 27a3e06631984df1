/**
 * @file
 * bfsim_perfbench: one benchmark session for one workload.
 *
 *   bfsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--store-dir DIR]
 *   bfsim_perfbench --list-metrics
 *
 * --trace 0: set up (timed from process start), then run the sweep from
 * cold memo caches repeatedly until S seconds of sweep time have passed
 * (at least once). Prints one JSON line with the set-up time, peak RSS
 * and each repetition's wall time, MIPS, failures and stats digest.
 *
 * --trace 1: set up, then the traced per-layer run (traced.hh). Prints
 * one JSON line with every per-layer metric.
 *
 * `sampled` writes its trace store into --store-dir, which must be a
 * fresh directory owned by the caller. perfbench/run.py drives the
 * sessions and aggregates them into the benchmark's result line.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep.hh"
#include "traced.hh"

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string storeDir;
};

std::uint64_t
parseCount(const std::string &flag, const std::string &value)
{
    std::size_t used = 0;
    unsigned long long n = std::stoull(value, &used, 10);
    if (used != value.size())
        throw std::invalid_argument(flag + " expects a whole number");
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false, have_seed = false, have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + " expects a value");
        std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = parseCount(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            std::size_t used = 0;
            args.seconds = std::stod(value, &used);
            if (used != value.size() || !(args.seconds > 0.0))
                throw std::invalid_argument("--seconds expects a positive "
                                            "number");
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace expects 0 or 1");
            args.trace = value == "1";
            have_trace = true;
        } else if (flag == "--store-dir") {
            args.storeDir = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        throw std::invalid_argument(
            "usage: bfsim_perfbench --workload NAME --seed N --seconds S "
            "--trace 0|1 [--store-dir DIR]");
    return args;
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** `text` as the body of a JSON string literal. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** %.17g: every digit the double holds. */
std::string
num(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

int
timedSession(const Args &args, std::uint64_t process_start)
{
    Sweep sweep = prepareSweep(args.workload, args.storeDir);
    double setup_s = secondsSince(process_start);

    std::string reps;
    std::map<std::string, std::string> failures;
    double measured = 0.0;
    for (std::uint64_t rep = 0; rep == 0 || measured < args.seconds;
         ++rep) {
        std::vector<harness::BatchJob> jobs =
            shuffledJobs(sweep, args.seed, rep);
        std::uint64_t start = nowNs();
        harness::BatchResult batch = runSweepOnce(sweep, jobs);
        double wall = secondsSince(start);
        measured += wall;
        if (!sweep.storeDir.empty()) {
            std::vector<std::string> problems = storeReadProblems(batch);
            if (!problems.empty())
                throw std::runtime_error("sampled store check: " +
                                         problems.front());
        }
        for (const harness::BatchItem &item : batch.items)
            if (item.failed)
                failures[item.label] = item.error;
        if (!reps.empty())
            reps += ',';
        reps += "{\"wall_s\":" + num(wall) + ",\"mips\":" +
                num(batch.mips()) + ",\"jobs\":" +
                std::to_string(batch.items.size()) + ",\"failed\":" +
                std::to_string(batch.failures()) + ",\"digest\":\"" +
                combinedDigest(jobDigests(batch)) + "\"}";
    }

    std::string failed;
    for (const auto &[label, error] : failures) {
        if (!failed.empty())
            failed += ',';
        failed += '"' + jsonEscape(label) + "\":\"" + jsonEscape(error) + '"';
    }
    std::cout << "{\"mode\":\"timed\",\"workload\":\"" << sweep.name
              << "\",\"setup_s\":" << num(setup_s)
              << ",\"peak_rss_mb\":" << num(peakRssMb()) << ",\"reps\":["
              << reps << "],\"failures\":{" << failed << "}}" << std::endl;
    return 0;
}

int
tracedSession(const Args &args)
{
    Sweep sweep = prepareSweep(args.workload, args.storeDir);
    TracedOutcome outcome = tracedRun(sweep, args.seed, std::cerr);
    std::string metrics;
    for (const auto &[name, unit] : perLayerMetrics()) {
        if (!metrics.empty())
            metrics += ',';
        metrics += '"' + name + "\":{\"value\":" +
                   num(outcome.metrics.at(name)) + ",\"unit\":\"" + unit +
                   "\"}";
    }
    std::cout << "{\"mode\":\"traced\",\"workload\":\"" << sweep.name
              << "\",\"jobs\":" << outcome.jobs
              << ",\"failed\":" << outcome.failed << ",\"metrics\":{"
              << metrics << "}}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t process_start = nowNs();
    try {
        if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
            for (const auto &[name, unit] : perLayerMetrics())
                std::cout << name << ' ' << unit << '\n';
            return 0;
        }
        refuseBfsimEnvironment();
        Args args = parseArgs(argc, argv);
        return args.trace ? tracedSession(args)
                          : timedSession(args, process_start);
    } catch (const std::exception &error) {
        std::cerr << "bfsim_perfbench: " << error.what() << std::endl;
        return 1;
    }
}
