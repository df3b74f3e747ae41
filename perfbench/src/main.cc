/**
 * @file
 * perfbench: the repository benchmark harness.
 *
 *   perfbench --workload NAME --seed S --seconds T --trace 0|1
 *             [--smoke] [--spans PATH]
 *
 * Workloads: train_sparse, train_dense, cosim_sweep, concurrent (see
 * perfbench/README.md). The last line of standard output is one JSON
 * object of raw samples and per-layer values; perfbench/run.py derives
 * the named metrics from it. Human-readable progress goes to stderr.
 *
 * The shared thread pool is pinned to min(4, nproc) threads. The
 * harness refuses to run when an environment variable would silently
 * change what a workload executes.
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"
#include "kernels/sparse_microkernels.h"
#include "tensor/tensor.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/** CPUs this process may run on (what `nproc` prints). */
int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload train_sparse|train_dense|"
                 "cosim_sweep|concurrent --seed S --seconds T "
                 "--trace 0|1 [--smoke] [--spans PATH]\n",
                 argv0);
    return 2;
}

/** Print a JSON string literal (names here never need escaping
    beyond quotes and backslashes). */
void
printJsonString(const std::string &s)
{
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        std::putchar(c < 0x20 ? ' ' : c);
    }
    std::putchar('"');
}

void
printSamples(const char *key, const std::vector<double> &v)
{
    std::printf("\"%s\": [", key);
    for (size_t i = 0; i < v.size(); ++i)
        std::printf("%s%.17g", i ? ", " : "", v[i]);
    std::printf("]");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            opt.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            opt.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && has_value) {
            trace = std::atoi(argv[++i]);
        } else if (a == "--spans" && has_value) {
            opt.spansPath = argv[++i];
        } else if (a == "--smoke") {
            opt.smoke = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (opt.workload.empty() || (trace != 0 && trace != 1) ||
        !(opt.seconds > 0.0))
        return usage(argv[0]);
    opt.trace = trace == 1;

    // Each of these would change the executed workload without any
    // trace of it in the result: refuse instead.
    for (const char *var :
         {"PROCRUSTES_NUM_THREADS", "PROCRUSTES_SIMD",
          "PROCRUSTES_KERNEL_BACKEND", "PROCRUSTES_STORAGE_PRECISION"}) {
        if (std::getenv(var) != nullptr) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; the "
                         "benchmark fixes threads, SIMD level, backends "
                         "and storage precision itself — unset it\n",
                         var);
            return 2;
        }
    }
    // Never more pool threads than CPUs, and never more than the four
    // the bounds were set with.
    const int nproc = availableCpus();
    procrustes::ThreadPool::resetGlobal(std::min(4, nproc));

    RunResult res;
    if (opt.workload == "train_sparse") {
        runTrain(opt, /*sparse=*/true, &res);
    } else if (opt.workload == "train_dense") {
        runTrain(opt, /*sparse=*/false, &res);
    } else if (opt.workload == "cosim_sweep") {
        runCosim(opt, &res);
    } else if (opt.workload == "concurrent") {
        runConcurrent(opt, &res);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return usage(argv[0]);
    }

    std::printf("{\"workload\": ");
    printJsonString(opt.workload);
    std::printf(", \"provenance\": {\"nproc\": %d, \"pool_threads\": %d, "
                "\"simd\": \"%s\", \"storage_precision\": \"%s\", "
                "\"seed\": %llu, \"build_type\": \"%s\", "
                "\"seconds\": %.17g, \"trace\": %d, \"smoke\": %s}",
                nproc, procrustes::ThreadPool::global().numThreads(),
                procrustes::kernels::simdLevelName(
                    procrustes::kernels::activeSimdLevel()),
                procrustes::precisionName(
                    procrustes::defaultStoragePrecision()),
                static_cast<unsigned long long>(opt.seed),
                PERFBENCH_BUILD_TYPE, opt.seconds, opt.trace ? 1 : 0,
                opt.smoke ? "true" : "false");
    const int64_t attempted = std::max<int64_t>(res.attempted, 1);
    std::printf(", \"attempted\": %lld, \"failed\": %lld, \"failures\": [",
                static_cast<long long>(attempted),
                static_cast<long long>(std::min(res.failed, attempted)));
    for (size_t i = 0; i < res.failures.size(); ++i) {
        if (i)
            std::printf(", ");
        printJsonString(res.failures[i]);
    }
    std::printf("], ");
    printSamples("setup_s", res.setupS);
    std::printf(", ");
    printSamples("op_ms", res.opMs);
    std::printf(", \"work_per_s\": %.17g, \"aux_per_s\": %.17g, "
                "\"final_loss\": %.17g, \"peak_rss_mb\": %.17g, "
                "\"per_layer\": {",
                res.workPerS, res.auxPerS, res.finalLoss, peakRssMb());
    bool first = true;
    for (const auto &kv : res.layers) {
        std::printf("%s", first ? "" : ", ");
        printJsonString(kv.first);
        std::printf(": {\"value\": %.17g, \"unit\": \"%s\"}",
                    kv.second.first, kv.second.second.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return 0;
}
