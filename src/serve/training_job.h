/**
 * @file
 * A resumable training job: the unit the multi-tenant service runs.
 *
 * TrainingJob owns a network replica, an optimizer, a pruning/update
 * schedule (whatever the optimizer implements) and references to its
 * datasets, and drives them with an nn::Trainer — the step
 * nn::trainNetwork loops over — so a job trained to completion is
 * bitwise identical to a trainNetwork run with the same seeds. The
 * trainer's cursor is the checkpointed position: a job checkpointed at
 * any step and restored into a fresh engine continues
 * bitwise-identically.
 */

#ifndef PROCRUSTES_SERVE_TRAINING_JOB_H_
#define PROCRUSTES_SERVE_TRAINING_JOB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/trainer.h"
#include "serve/checkpoint.h"
#include "serve/stats_writer.h"

namespace procrustes {
namespace serve {

using nn::NetworkBuilder;
using nn::OptimizerFactory;

/** Per-job training configuration: the run's plus the job's name. */
struct JobConfig : nn::TrainConfig
{
    std::string name = "job";
};

/**
 * One tenant's training run. Not thread-safe: the scheduler ensures a
 * job is driven by at most one thread at a time.
 */
class TrainingJob
{
  public:
    /**
     * `train` and `val` are borrowed and must outlive the job; jobs
     * may share datasets (Dataset access is read-only).
     */
    TrainingJob(const JobConfig &cfg, const NetworkBuilder &build,
                const OptimizerFactory &make_opt,
                const nn::Dataset *train, const nn::Dataset *val);

    // The trainer holds references into this object.
    TrainingJob(const TrainingJob &) = delete;
    TrainingJob &operator=(const TrainingJob &) = delete;

    /**
     * Run one optimizer step. Returns true when the step closed an
     * epoch (validation ran and an EpochStats was appended). Must not
     * be called on a finished job.
     */
    bool step();

    /** Run steps until the current epoch closes. */
    void runEpoch();

    /** Run to completion. */
    void run();

    bool finished() const { return trainer_->finished(); }
    int64_t epochsCompleted() const { return trainer_->cursor().epoch; }
    int64_t globalStep() const { return trainer_->cursor().globalStep; }
    const JobConfig &config() const { return cfg_; }
    const std::vector<nn::EpochStats> &history() const { return history_; }
    nn::Network &network() { return net_; }
    nn::Optimizer &optimizer() { return *opt_; }

    /** Snapshot the full training state (serve/checkpoint.h format). */
    std::vector<uint8_t> checkpoint();

    /**
     * Restore a snapshot taken from a job with the same builder and
     * optimizer factory. Epoch history before the restored cursor is
     * not part of the snapshot — the resumed job's history() covers
     * epochs closed after the restore point only.
     */
    void restore(const std::vector<uint8_t> &blob);

    /** Per-step telemetry hook (same contract as trainNetwork's). */
    void setObserver(const nn::StepObserver &observer);

    /** Attach a JSONL sink (borrowed, may be null to detach). */
    void setStatsWriter(StatsWriter *stats) { stats_ = stats; }

  private:
    JobConfig cfg_;
    nn::Network net_;
    std::unique_ptr<nn::Optimizer> opt_;
    std::unique_ptr<nn::Trainer> trainer_;
    std::vector<nn::EpochStats> history_;
    nn::StepObserver observer_;
    StatsWriter *stats_ = nullptr;
};

} // namespace serve
} // namespace procrustes

#endif // PROCRUSTES_SERVE_TRAINING_JOB_H_
