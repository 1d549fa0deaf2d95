/**
 * @file
 * cac_perfbench — one workload per process (see README.md):
 *
 *   cac_perfbench --workload swim_compare|mix_attribution|advisor_open
 *                 --seed N --seconds S --trace 0|1 --workdir DIR
 *                 [--expect-digest HEX]
 *
 * Prints the run manifest, the host calibration, the workload's own
 * tables, then one "metric NAME VALUE UNIT n=SAMPLES" line per metric,
 * the output digest and a "result" line. --trace 0 reports the
 * end-to-end metrics; --trace 1 runs the traced pass and the layer
 * ladder and reports the per-layer metrics.
 */

#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "obs/manifest.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

/** Fixed scalar kernel: 2^24 dependent xorshift-multiply steps. */
double
calibrationMops()
{
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
        std::uint64_t x = 0x9e3779b97f4a7c15ull + rep;
        const auto start = Clock::now();
        for (int i = 0; i < (1 << 24); ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x *= 0x2545f4914f6cdd1dull;
        }
        const double s = secondsSince(start);
        if (x == 42) // keeps the loop observable
            std::printf("#");
        reps.push_back((1 << 24) / s / 1e6);
    }
    return median(reps);
}

/** Fixed spin of 2^25 steps; returns its wall seconds. */
double
spin()
{
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 1;
    const auto start = Clock::now();
    for (int i = 0; i < (1 << 25); ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    sink = x;
    (void)sink;
    return secondsSince(start);
}

/**
 * Parallel capacity: k threads each running the fixed spin, against
 * one thread: k * t1 / tk. About 1 on a host with one core of real
 * parallelism whatever nproc says.
 */
double
parallelCapacity(unsigned k)
{
    const double t1 = spin();
    const auto start = Clock::now();
    std::vector<std::thread> workers;
    for (unsigned i = 1; i < k; ++i)
        workers.emplace_back([] { spin(); });
    spin();
    for (std::thread &t : workers)
        t.join();
    return k * t1 / secondsSince(start);
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload swim_compare|mix_attribution|"
                 "advisor_open --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--expect-digest HEX]\n",
                 argv0);
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options options;
    std::uint64_t seed_arg = options.seed;
    for (int i = 1; i < argc; ++i) {
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            options.workload = value();
        else if (!std::strcmp(argv[i], "--seed"))
            seed_arg = std::strtoull(value().c_str(), nullptr, 0);
        else if (!std::strcmp(argv[i], "--seconds"))
            options.seconds = std::strtod(value().c_str(), nullptr);
        else if (!std::strcmp(argv[i], "--trace"))
            options.trace = value() != "0";
        else if (!std::strcmp(argv[i], "--workdir"))
            options.workdir = value();
        else if (!std::strcmp(argv[i], "--expect-digest"))
            options.expectDigest = value();
        else
            usage(argv[0]);
    }
    options.seed = seed_arg % kSeedRange;
    void (*run)(const Options &, Report &) = nullptr;
    if (options.workload == "swim_compare")
        run = runSwimCompare;
    else if (options.workload == "mix_attribution")
        run = runMixAttribution;
    else if (options.workload == "advisor_open")
        run = runAdvisorOpen;
    if (!run || !(options.seconds > 0))
        usage(argv[0]);

    cac::obs::RunManifest manifest =
        cac::obs::buildRunManifest("cac_perfbench");
    manifest.workload = options.workload;
    manifest.seed = seed_arg;
    manifest.threads = 1;
    std::printf("%s", cac::obs::manifestText(manifest).c_str());
    const unsigned k = 4;
    std::printf("host: calibration %.2f Mops/s (scalar kernel), parallel "
                "capacity %.2f of %u threads (nproc %u)\n",
                calibrationMops(), parallelCapacity(k), k,
                std::thread::hardware_concurrency());
    std::printf("run: workload %s, seed %llu (input seed %llu), %.1f s, "
                "%s, caches start empty\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(seed_arg),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? "traced" : "untraced");
    std::fflush(stdout);

    // Open-loop generators sleep until each request is due; the
    // default 50 us timer slack would read as latency.
    prctl(PR_SET_TIMERSLACK, 1UL);
    Report report;
    try {
        run(options, report);
    } catch (const std::exception &e) {
        report.check(false, std::string("exception: ") + e.what());
    }
    if (!options.trace)
        report.metric("peak_rss_mb", "MB", peakRssMb(), 1);
    report.print(options);
    return 0;
}
