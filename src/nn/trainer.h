/**
 * @file
 * The training step, written once: a cursor-based Trainer, the pieces
 * it is built from (which the scale-out shard engine reuses around its
 * slice loop), and trainNetwork, a loop over it.
 */

#ifndef PROCRUSTES_NN_TRAINER_H_
#define PROCRUSTES_NN_TRAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/data.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/sgd.h"

namespace procrustes {
namespace nn {

/**
 * Everything the network measured during one training step: one
 * LayerStepReport per reporting layer, in layer order, sampled after
 * the optimizer update that closed the step (so each report's mask is
 * the post-update live mask). This is the unit the workload-trace
 * pipeline (arch/workload_trace.h) aggregates.
 */
struct StepTelemetry
{
    int64_t epoch = 0;
    int64_t step = 0;        //!< global step index across epochs
    int64_t batchSize = 0;
    double batchLoss = 0.0;
    std::vector<LayerStepReport> reports;
};

/**
 * Per-step observer invoked by trainNetwork after each optimizer step.
 * Collecting reports costs O(activations) per step, so the trainer
 * only gathers them when an observer is attached.
 */
using StepObserver = std::function<void(const StepTelemetry &)>;

/** Builds a network (must be deterministic). */
using NetworkBuilder = std::function<void(Network &)>;

/** Creates an optimizer (must be deterministic). */
using OptimizerFactory = std::function<std::unique_ptr<Optimizer>()>;

/** One epoch's summary statistics. */
struct EpochStats
{
    int64_t epoch = 0;
    double trainLoss = 0.0;
    double trainAccuracy = 0.0;
    double valAccuracy = 0.0;
    double weightSparsity = 0.0;  //!< zero fraction over prunable params
};

/** Training-loop configuration. */
struct TrainConfig
{
    int64_t epochs = 10;
    int64_t batchSize = 16;
    uint64_t shuffleSeed = 7;
};

/**
 * Where a training run is in its sample stream, plus the running
 * accumulators of the open epoch. `stepInEpoch` counts completed
 * optimizer steps within `epoch`; the next batch starts at sample
 * offset stepInEpoch * batchSize of epochOrder(n, seed, epoch).
 */
struct TrainCursor
{
    int64_t epoch = 0;
    int64_t stepInEpoch = 0;
    int64_t globalStep = 0;
    double lossSum = 0.0;  //!< open-epoch sums, see accumulate()
    double accSum = 0.0;
    int64_t samples = 0;
};

/** Loss, accuracy and size of one forward/backward pass. */
struct BatchResult
{
    double loss = 0.0;      //!< mean cross-entropy over the batch
    double accuracy = 0.0;  //!< top-1 accuracy over the batch
    int64_t samples = 0;
};

/** Abort unless the batch size is positive and `train` non-empty. */
void checkTrainConfig(const TrainConfig &cfg, const Dataset &train);

/**
 * Gather samples order[begin, end) of `data`, zero the gradients, and
 * run forward (training mode), softmax cross-entropy and backward. The
 * optimizer step is the caller's.
 */
BatchResult forwardBackward(Network &net, const Dataset &data,
                            const std::vector<int64_t> &order,
                            int64_t begin, int64_t end);

/** Add a pass to the cursor's sums, weighted by its sample count (a
    ragged last batch counts in proportion, as in evaluateAccuracy). */
void accumulate(TrainCursor *cursor, const BatchResult &batch);

/** The step reports of every reporting layer, in layer order. */
std::vector<LayerStepReport> collectStepReports(Network &net);

/** The EpochStats of the cursor's epoch (train means from its sums,
    validation accuracy and sparsity of `net`); the cursor moves on to
    the next epoch. */
EpochStats closeEpoch(Network &net, const Dataset &val,
                      TrainCursor *cursor);

/** A training run of borrowed (net, opt, train, val), advanced one
    optimizer step at a time. */
class Trainer
{
  public:
    Trainer(Network &net, Optimizer &opt, const Dataset &train,
            const Dataset &val, const TrainConfig &cfg);

    /**
     * One optimizer step on the cursor's next batch. A non-null `t`
     * receives the step's telemetry, with the layer reports only when
     * `with_reports`. Returns true when the batch was its epoch's
     * last; call closeEpoch() before stepping on.
     */
    bool step(StepTelemetry *t = nullptr, bool with_reports = true);

    EpochStats closeEpoch() { return nn::closeEpoch(net_, val_, &cursor_); }

    bool finished() const { return cursor_.epoch >= cfg_.epochs; }
    const TrainCursor &cursor() const { return cursor_; }

    /** Continue from `cursor`, e.g. one restored from a checkpoint. */
    void setCursor(const TrainCursor &cursor) { cursor_ = cursor; }

  private:
    Network &net_;
    Optimizer &opt_;
    const Dataset &train_;
    const Dataset &val_;
    TrainConfig cfg_;
    std::vector<Param *> params_;
    TrainCursor cursor_;
    std::vector<int64_t> order_;  //!< epochOrder of orderEpoch_
    int64_t orderEpoch_ = -1;
};

/**
 * Run SGD-style training of `net` on `train`, validating on `val` after
 * each epoch; returns one EpochStats per epoch. The loop is
 * deterministic given the seeds in the configs. When `observer` is
 * non-null it receives a StepTelemetry after every optimizer step
 * (e.g. arch::WorkloadTrace::observer() to drive the accelerator
 * model from the measured run).
 */
std::vector<EpochStats> trainNetwork(Network &net, Optimizer &opt,
                                     const Dataset &train,
                                     const Dataset &val,
                                     const TrainConfig &cfg,
                                     const StepObserver &observer = {});

/** Evaluate top-1 accuracy of `net` on a dataset (inference mode). */
double evaluateAccuracy(Network &net, const Dataset &ds,
                        int64_t batch_size = 64);

/** Zero fraction across all prunable parameters of a network. */
double weightSparsity(Network &net);

} // namespace nn
} // namespace procrustes

#endif // PROCRUSTES_NN_TRAINER_H_
