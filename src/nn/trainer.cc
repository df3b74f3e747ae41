#include "nn/trainer.h"

#include <algorithm>

#include "common/logging.h"

namespace procrustes {
namespace nn {

void
checkTrainConfig(const TrainConfig &cfg, const Dataset &train)
{
    PROCRUSTES_ASSERT(cfg.batchSize > 0, "batch size must be positive");
    PROCRUSTES_ASSERT(train.size() > 0, "empty training set");
}

BatchResult
forwardBackward(Network &net, const Dataset &data,
                const std::vector<int64_t> &order, int64_t begin,
                int64_t end)
{
    const std::vector<int64_t> idx(order.begin() + begin,
                                   order.begin() + end);
    const Tensor x = data.batch(idx);
    const auto y = data.batchLabels(idx);

    SoftmaxCrossEntropy loss;
    net.zeroGrad();
    const Tensor logits = net.forward(x, /*training=*/true);
    BatchResult r;
    r.loss = loss.forward(logits, y);
    r.accuracy = loss.accuracy();
    r.samples = end - begin;
    net.backward(loss.backward());
    return r;
}

void
accumulate(TrainCursor *cursor, const BatchResult &batch)
{
    cursor->lossSum += batch.loss * static_cast<double>(batch.samples);
    cursor->accSum += batch.accuracy * static_cast<double>(batch.samples);
    cursor->samples += batch.samples;
}

std::vector<LayerStepReport>
collectStepReports(Network &net)
{
    std::vector<LayerStepReport> reports;
    for (size_t li = 0; li < net.size(); ++li) {
        LayerStepReport r;
        if (net.layer(li)->stepReport(&r))
            reports.push_back(std::move(r));
    }
    return reports;
}

EpochStats
closeEpoch(Network &net, const Dataset &val, TrainCursor *cursor)
{
    const double samples = static_cast<double>(cursor->samples);
    EpochStats st;
    st.epoch = cursor->epoch;
    st.trainLoss = cursor->samples ? cursor->lossSum / samples : 0.0;
    st.trainAccuracy = cursor->samples ? cursor->accSum / samples : 0.0;
    st.valAccuracy = evaluateAccuracy(net, val);
    st.weightSparsity = weightSparsity(net);
    *cursor = TrainCursor{cursor->epoch + 1, 0, cursor->globalStep};
    return st;
}

Trainer::Trainer(Network &net, Optimizer &opt, const Dataset &train,
                 const Dataset &val, const TrainConfig &cfg)
    : net_(net), opt_(opt), train_(train), val_(val), cfg_(cfg),
      params_(net.params())
{
    checkTrainConfig(cfg, train);
}

bool
Trainer::step(StepTelemetry *t, bool with_reports)
{
    if (orderEpoch_ != cursor_.epoch) {
        order_ = epochOrder(train_.size(), cfg_.shuffleSeed, cursor_.epoch);
        orderEpoch_ = cursor_.epoch;
    }
    const int64_t start = cursor_.stepInEpoch * cfg_.batchSize;
    PROCRUSTES_ASSERT(start < train_.size(),
                      "training cursor past end of epoch");
    const int64_t end = std::min(start + cfg_.batchSize, train_.size());

    const BatchResult batch = forwardBackward(net_, train_, order_, start, end);
    accumulate(&cursor_, batch);
    opt_.step(params_);

    if (t) {
        t->epoch = cursor_.epoch;
        t->step = cursor_.globalStep;
        t->batchSize = batch.samples;
        t->batchLoss = batch.loss;
        t->reports = with_reports ? collectStepReports(net_)
                                  : std::vector<LayerStepReport>();
    }
    ++cursor_.globalStep;
    ++cursor_.stepInEpoch;
    return end == train_.size();
}

std::vector<EpochStats>
trainNetwork(Network &net, Optimizer &opt, const Dataset &train,
             const Dataset &val, const TrainConfig &cfg,
             const StepObserver &observer)
{
    Trainer trainer(net, opt, train, val, cfg);
    std::vector<EpochStats> history;
    StepTelemetry t;
    while (!trainer.finished()) {
        const bool last = trainer.step(observer ? &t : nullptr);
        if (observer)
            observer(t);
        if (last)
            history.push_back(trainer.closeEpoch());
    }
    return history;
}

double
evaluateAccuracy(Network &net, const Dataset &ds, int64_t batch_size)
{
    SoftmaxCrossEntropy loss;
    double correct_weighted = 0.0;
    int64_t seen = 0;
    for (int64_t start = 0; start < ds.size(); start += batch_size) {
        const int64_t end = std::min(start + batch_size, ds.size());
        std::vector<int64_t> idx;
        for (int64_t i = start; i < end; ++i)
            idx.push_back(i);
        const Tensor x = ds.batch(idx);
        const auto y = ds.batchLabels(idx);
        const Tensor logits = net.forward(x, /*training=*/false);
        loss.forward(logits, y);
        correct_weighted +=
            loss.accuracy() * static_cast<double>(end - start);
        seen += end - start;
    }
    return seen ? correct_weighted / static_cast<double>(seen) : 0.0;
}

double
weightSparsity(Network &net)
{
    int64_t zeros = 0;
    int64_t total = 0;
    for (Param *p : net.params()) {
        if (!p->prunable)
            continue;
        const float *v = p->value.data();
        const int64_t n = p->value.numel();
        for (int64_t i = 0; i < n; ++i) {
            if (v[i] == 0.0f)
                ++zeros;
        }
        total += n;
    }
    return total ? static_cast<double>(zeros) /
                       static_cast<double>(total)
                 : 0.0;
}

} // namespace nn
} // namespace procrustes
