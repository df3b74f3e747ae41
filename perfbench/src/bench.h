/**
 * @file
 * Shared pieces of the benchmark harness: run options, the raw result
 * every workload fills, and the network / data recipes the workloads
 * share.
 *
 * The harness is closed-loop and single-client: each timed operation
 * starts when the previous one has finished. It prints raw samples;
 * perfbench/run.py turns them into the named metrics.
 */

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "nn/data.h"
#include "nn/network.h"
#include "tracer.h"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;   //!< tiny sizes, one set-up, no sample floor
    std::string spansPath;
};

/** Closed-loop ops a run must time before it may stop; 200 samples
    give the p95 ten samples beyond it. */
constexpr int64_t kMinOps = 200;

/** Set-ups per run. The first is cold (first-touch page faults, pool
    start-up, first allocations); setup_s is the median of the rest. */
constexpr int kSetupReps = 6;

/** Raw measurements of one run. */
struct RunResult
{
    int64_t attempted = 0;        //!< closed-loop ops run
    int64_t failed = 0;           //!< ops that failed a check
    std::vector<std::string> failures;

    // The timings below are CPU time (processCpuMs / threadCpuMs), which
    // a busy or oversubscribed host does not inflate; wall-clock time
    // feeds only the per-layer metrics and the progress lines.
    std::vector<double> setupS;   //!< CPU s per set-up, the cold one first
    std::vector<double> opMs;     //!< CPU ms of each of the workload's ops
    double workPerS = 0.0;        //!< headline throughput per CPU second
    double auxPerS = 0.0;         //!< second throughput per CPU second
    double finalLoss = 0.0;       //!< fixed-work training loss (guard)

    /** Per-layer metrics of a traced run: name -> (value, unit). */
    std::map<std::string, std::pair<double, std::string>> layers;

    /** Record a check over `ops` ops; false marks them failed. */
    void check(bool ok, int64_t ops, const std::string &what);

    void
    layer(const std::string &name, double value, const char *unit)
    {
        layers[name] = {value, unit};
    }
};

/** Time budget of one measured phase, with the op-count floor. */
class Budget
{
  public:
    Budget(double seconds, int64_t min_ops)
        : start_(Clock::now()), seconds_(seconds), minOps_(min_ops)
    {}

    /** True while the phase should run another op: until both the time
        and the op floor are met, but never past 4x the time. */
    bool
    more(int64_t ops_done) const
    {
        const double s = msBetween(start_, Clock::now()) / 1000.0;
        if (s >= 4.0 * seconds_)
            return false;
        return s < seconds_ || ops_done < minOps_;
    }

  private:
    Clock::time_point start_;
    double seconds_;
    int64_t minOps_;
};

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);

/** Sum of a sample. */
double sum(const std::vector<double> &v);

/** Bitwise equality of two tensor lists (same sizes). */
bool sameTensors(const std::vector<procrustes::Tensor> &a,
                 const std::vector<procrustes::Tensor> &b);

/** Bitwise equality of two networks' parameter values. */
bool sameParams(procrustes::nn::Network &a, procrustes::nn::Network &b);

/** Bitwise equality of two doubles. */
bool sameBits(double a, double b);

/**
 * Blob-image train/validation splits: class templates from `seed`,
 * per-sample noise from seed-derived streams, so one seed fixes both.
 */
std::pair<procrustes::nn::Dataset, procrustes::nn::Dataset>
blobData(uint64_t seed, int64_t side, int64_t train_per_class,
         int64_t val_per_class);

/** Recipe of a plain conv / batch-norm / ReLU CNN with an fc head. */
struct CnnSpec
{
    struct Conv
    {
        int64_t out;
        int64_t stride;
    };
    std::vector<Conv> convs;
    int classes = 10;
    bool sparse = false;   //!< CSB backend for conv + fc, else gemm
};

/** The five-conv net the train and cosim workloads run. */
CnnSpec mainNet(bool sparse);

/**
 * Build `spec` into `net`, every layer wrapped in a TracedLayer bound
 * to `tracer` (null: pure pass-through), Kaiming-initialized from
 * `seed`.
 */
void buildCnn(procrustes::nn::Network &net, const CnnSpec &spec,
              uint64_t seed, Tracer *tracer);

/** Log self time per module and write the spans file, if asked. */
void finishTrace(const Tracer &tracer, const Options &opt);

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** The three workload families. */
void runTrain(const Options &opt, bool sparse, RunResult *out);
void runCosim(const Options &opt, RunResult *out);
void runConcurrent(const Options &opt, RunResult *out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
