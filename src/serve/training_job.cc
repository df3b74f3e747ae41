#include "serve/training_job.h"

#include "common/logging.h"

namespace procrustes {
namespace serve {

TrainingJob::TrainingJob(const JobConfig &cfg, const NetworkBuilder &build,
                         const OptimizerFactory &make_opt,
                         const nn::Dataset *train, const nn::Dataset *val)
    : cfg_(cfg)
{
    PROCRUSTES_ASSERT(train && val, "job datasets must be non-null");
    build(net_);
    opt_ = make_opt();
    PROCRUSTES_ASSERT(opt_ != nullptr, "optimizer factory returned null");
    trainer_ =
        std::make_unique<nn::Trainer>(net_, *opt_, *train, *val, cfg);
}

bool
TrainingJob::step()
{
    PROCRUSTES_ASSERT(!finished(), "step() on a finished job");

    // Telemetry reports cost O(activations); gather them only for a
    // full observer, not for the JSONL step line.
    nn::StepTelemetry t;
    const bool last = trainer_->step(observer_ || stats_ ? &t : nullptr,
                                     static_cast<bool>(observer_));
    if (observer_)
        observer_(t);
    if (stats_)
        stats_->writeStep(cfg_.name, t);
    if (!last)
        return false;

    history_.push_back(trainer_->closeEpoch());
    if (stats_)
        stats_->writeEpoch(cfg_.name, history_.back());
    return true;
}

void
TrainingJob::runEpoch()
{
    while (!step()) {
    }
}

void
TrainingJob::run()
{
    while (!finished())
        runEpoch();
}

std::vector<uint8_t>
TrainingJob::checkpoint()
{
    return snapshotTrainingState(net_, *opt_, trainer_->cursor());
}

void
TrainingJob::restore(const std::vector<uint8_t> &blob)
{
    // restore replaces Tensor values, not Params, so the trainer's
    // cached parameter list stays valid; its shuffle cache is keyed by
    // epoch and epochOrder is pure, so it stays valid too.
    trainer_->setCursor(restoreTrainingState(blob, net_, *opt_));
}

void
TrainingJob::setObserver(const nn::StepObserver &observer)
{
    observer_ = observer;
}

} // namespace serve
} // namespace procrustes
