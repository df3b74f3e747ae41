#include "scaleout/shard_engine.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace procrustes {
namespace scaleout {

namespace {

/** One shard: replica network, optimizer, params. */
struct Replica
{
    nn::Network net;
    std::unique_ptr<nn::Optimizer> opt;
    std::vector<nn::Param *> params;
};

/** Bitwise compare every replica's parameter values to replica 0. */
void
assertReplicasIdentical(
    const std::vector<std::unique_ptr<Replica>> &reps, const char *when)
{
    for (size_t m = 1; m < reps.size(); ++m) {
        PROCRUSTES_ASSERT(reps[m]->params.size() ==
                              reps[0]->params.size(),
                          "replica parameter count mismatch");
        for (size_t pi = 0; pi < reps[0]->params.size(); ++pi) {
            const Tensor &a = reps[0]->params[pi]->value;
            const Tensor &b = reps[m]->params[pi]->value;
            PROCRUSTES_ASSERT(a.numel() == b.numel(),
                              "replica parameter shape mismatch");
            const float *av = a.data();
            const float *bv = b.data();
            const bool same =
                std::equal(av, av + a.numel(), bv);
            if (!same)
                PANIC(std::string("shard replicas diverged (") + when +
                      "): the builder/optimizer factory is not "
                      "deterministic or a layer carries unexchanged "
                      "training state");
        }
    }
}

/** acc += w * v elementwise, sizing acc on first use. */
void
weightedAccum(std::vector<double> *acc, const std::vector<double> &v,
              double w)
{
    if (acc->size() != v.size())
        acc->assign(v.size(), 0.0);
    for (size_t i = 0; i < v.size(); ++i)
        (*acc)[i] += w * v[i];
}

/**
 * Fold the per-slice reports into the post-update base reports: MACs
 * sum, scalar/per-slot densities average sample-weighted, per-sample
 * vectors concatenate in slice order (slices are contiguous in the
 * global batch), sparseExecuted ANDs. The base keeps its own mask and
 * weight-byte fields — they were sampled after the optimizer step,
 * as nn::StepTelemetry specifies.
 */
void
mergeSliceReports(
    std::vector<nn::LayerStepReport> *reports,
    const std::vector<std::vector<nn::LayerStepReport>> &slice_reports,
    const std::vector<nn::BatchResult> &slices, int64_t batch)
{
    for (size_t ri = 0; ri < reports->size(); ++ri) {
        nn::LayerStepReport &out = (*reports)[ri];
        out.batch = batch;
        out.fwMacs = 0;
        out.bwDataMacs = 0;
        out.bwWeightMacs = 0;
        bool sparse_all = true;
        double in_density = 0.0;
        double out_density = 0.0;
        std::vector<double> chan, row, col;
        std::vector<double> per_sample, per_half;
        for (size_t s = 0; s < slice_reports.size(); ++s) {
            PROCRUSTES_ASSERT(slice_reports[s].size() ==
                                  reports->size(),
                              "report set changed across slices");
            const nn::LayerStepReport &r = slice_reports[s][ri];
            PROCRUSTES_ASSERT(r.layerName == out.layerName,
                              "report order changed across slices");
            const double w = static_cast<double>(slices[s].samples) /
                             static_cast<double>(batch);
            out.fwMacs += r.fwMacs;
            out.bwDataMacs += r.bwDataMacs;
            out.bwWeightMacs += r.bwWeightMacs;
            sparse_all = sparse_all && r.sparseExecuted;
            in_density += w * r.inputDensity;
            out_density += w * r.outputDensity;
            weightedAccum(&chan, r.inputChannelDensity, w);
            weightedAccum(&row, r.inputRowDensity, w);
            weightedAccum(&col, r.inputColDensity, w);
            per_sample.insert(per_sample.end(),
                              r.inputSampleDensity.begin(),
                              r.inputSampleDensity.end());
            per_half.insert(per_half.end(),
                            r.inputSampleHalfDensity.begin(),
                            r.inputSampleHalfDensity.end());
        }
        out.sparseExecuted = out.hasMacs && sparse_all;
        out.inputDensity = in_density;
        out.outputDensity = out_density;
        out.inputChannelDensity = std::move(chan);
        out.inputRowDensity = std::move(row);
        out.inputColDensity = std::move(col);
        out.inputSampleDensity = std::move(per_sample);
        out.inputSampleHalfDensity = std::move(per_half);
    }
}

/**
 * Attach each parameter's measured exchange volume to the report of
 * the layer that owns it (param "fc1.weight" -> report "fc1").
 */
void
annotateExchange(std::vector<nn::LayerStepReport> *reports,
                 const std::vector<nn::Param *> &params,
                 const std::vector<sparse::ExchangeVolume> &vols)
{
    for (nn::LayerStepReport &r : *reports) {
        const std::string prefix = r.layerName + ".";
        sparse::ExchangeVolume layer_vol;
        bool any = false;
        for (size_t pi = 0; pi < params.size(); ++pi) {
            if (params[pi]->name.rfind(prefix, 0) == 0) {
                layer_vol += vols[pi];
                any = true;
            }
        }
        if (any) {
            r.hasExchange = true;
            r.exchangeCompressedBytes = layer_vol.compressedBytes;
            r.exchangeDenseBytes = layer_vol.denseBytes;
        }
    }
}

} // namespace

ShardTrainResult
trainSharded(const NetworkBuilder &build,
             const OptimizerFactory &make_opt, const nn::Dataset &train,
             const nn::Dataset &val, const ShardTrainConfig &cfg,
             const nn::StepObserver &observer)
{
    nn::checkTrainConfig(cfg, train);
    PROCRUSTES_ASSERT(cfg.shards >= 1, "need at least one shard");
    PROCRUSTES_ASSERT(cfg.sliceSamples >= 1,
                      "slice size must be positive");

    const int M = cfg.shards;
    std::vector<std::unique_ptr<Replica>> reps;
    reps.reserve(static_cast<size_t>(M));
    for (int m = 0; m < M; ++m) {
        auto r = std::make_unique<Replica>();
        build(r->net);
        r->opt = make_opt();
        r->params = r->net.params();
        reps.push_back(std::move(r));
    }
    const size_t np = reps[0]->params.size();
    assertReplicasIdentical(reps, "after build");

    ShardTrainResult result;
    nn::TrainCursor cursor;

    while (cursor.epoch < cfg.epochs) {
        const auto order =
            nn::epochOrder(train.size(), cfg.shuffleSeed, cursor.epoch);
        ShardExchangeStats ex_epoch;

        for (int64_t start = 0; start < train.size();
             start += cfg.batchSize) {
            const int64_t end =
                std::min(start + cfg.batchSize, train.size());
            const int64_t n = end - start;
            const int64_t slices =
                (n + cfg.sliceSamples - 1) / cfg.sliceSamples;

            // Pre-step live masks, identical on every replica. The
            // live pattern covers every position the CSB executors
            // can write a non-zero gradient to; non-prunable
            // parameters (zero-init biases, batch-norm affine) go
            // dense — a value-derived mask would drop their
            // legitimate zero entries.
            std::vector<std::vector<uint8_t>> live(np);
            std::vector<int64_t> nnz(np);
            for (size_t pi = 0; pi < np; ++pi) {
                const nn::Param *p = reps[0]->params[pi];
                if (p->prunable) {
                    live[pi] = sparse::liveMaskFromValues(p->value);
                } else {
                    live[pi].assign(
                        static_cast<size_t>(p->value.numel()), 1);
                }
                nnz[pi] = sparse::liveCount(live[pi]);
            }

            // partials[pi][s]: slice s's packed mask-live gradient of
            // parameter pi. Slots are disjoint per slice, so shard
            // workers fill them without synchronization and the
            // result is independent of scheduling.
            std::vector<std::vector<std::vector<float>>> partials(np);
            for (size_t pi = 0; pi < np; ++pi)
                partials[pi].resize(static_cast<size_t>(slices));
            std::vector<nn::BatchResult> slice(
                static_cast<size_t>(slices));
            std::vector<std::vector<nn::LayerStepReport>>
                slice_reports(observer ? static_cast<size_t>(slices)
                                       : 0);

            // Shard m owns slices {s : s % M == m} and runs them in
            // ascending order on its own replica. Replicas are
            // bitwise identical, so a slice's forward/backward result
            // does not depend on the owner — only the slice geometry
            // (fixed by sliceSamples) pins the FP reduction.
            auto run_shard = [&](int m) {
                Replica &rep = *reps[static_cast<size_t>(m)];
                for (int64_t s = m; s < slices; s += M) {
                    const int64_t s0 = start + s * cfg.sliceSamples;
                    const int64_t s1 =
                        std::min(s0 + cfg.sliceSamples, end);
                    const size_t su = static_cast<size_t>(s);
                    slice[su] =
                        nn::forwardBackward(rep.net, train, order, s0, s1);
                    for (size_t pi = 0; pi < np; ++pi) {
                        std::vector<float> &pk = partials[pi][su];
                        pk.resize(static_cast<size_t>(nnz[pi]));
                        // Const ref: COW data() must not detach while
                        // other shards run.
                        const Tensor &g = rep.params[pi]->grad;
                        sparse::gatherLive(g.data(), live[pi],
                                           pk.data());
                    }
                    if (observer)
                        slice_reports[su] = nn::collectStepReports(rep.net);
                }
            };
            if (M == 1) {
                // Stay off the pool so nested kernels keep their
                // normal parallelism.
                run_shard(0);
            } else {
                ThreadPool::global().parallelFor(
                    0, M,
                    [&](int64_t b, int64_t e) {
                        for (int64_t m = b; m < e; ++m)
                            run_shard(static_cast<int>(m));
                    },
                    /*grain=*/1);
            }

            // Global-mean weighting: the per-slice loss gradient is a
            // slice mean (1/n_s), so scale by n_s/n before the fold.
            std::vector<float> weights(static_cast<size_t>(slices));
            for (size_t s = 0; s < slice.size(); ++s)
                weights[s] = static_cast<float>(slice[s].samples) /
                             static_cast<float>(n);

            // Reduce-to-root + broadcast traffic: the root (shard 0)
            // already holds its own slices, and with M == 1 nothing
            // crosses the wire at all.
            const int64_t root_slices = (slices + M - 1) / M;
            const int64_t gather_msgs = slices - root_slices;
            const int64_t bcast_msgs = M - 1;

            std::vector<sparse::ExchangeVolume> vols(np);
            for (size_t pi = 0; pi < np; ++pi) {
                const std::vector<float> reduced =
                    sparse::sparseAllreduceGrads(partials[pi],
                                                 weights);
                for (int m = 0; m < M; ++m) {
                    nn::Param *p =
                        reps[static_cast<size_t>(m)]->params[pi];
                    sparse::scatterLive(reduced.data(), live[pi],
                                        p->grad.data());
                }
                vols[pi] = sparse::allreduceVolume(
                    nnz[pi], reps[0]->params[pi]->value.numel(),
                    gather_msgs, bcast_msgs);
                ex_epoch += vols[pi];
            }

            // Every replica applies the identical reduced gradient,
            // so replicas remain bitwise identical after the step.
            for (int m = 0; m < M; ++m)
                reps[static_cast<size_t>(m)]->opt->step(
                    reps[static_cast<size_t>(m)]->params);

            // Slices fold into the epoch sums in global slice order;
            // the batch's own sums give a multi-slice batch's loss (a
            // single slice reports its loss as is, as Trainer does).
            nn::TrainCursor batch_sums;
            for (const nn::BatchResult &b : slice) {
                nn::accumulate(&cursor, b);
                nn::accumulate(&batch_sums, b);
            }

            if (observer) {
                nn::StepTelemetry t;
                t.epoch = cursor.epoch;
                t.step = cursor.globalStep;
                t.batchSize = n;
                t.batchLoss = slices == 1 ? slice[0].loss
                                          : batch_sums.lossSum /
                                                static_cast<double>(n);
                t.reports = nn::collectStepReports(reps[0]->net);
                mergeSliceReports(&t.reports, slice_reports, slice, n);
                annotateExchange(&t.reports, reps[0]->params, vols);
                observer(t);
            }
            ++cursor.globalStep;
            ++cursor.stepInEpoch;
        }

        assertReplicasIdentical(reps, "after epoch");

        ShardEpochStats es;
        es.stats = nn::closeEpoch(reps[0]->net, val, &cursor);
        es.exchange = ex_epoch;
        result.history.push_back(es);
    }

    result.finalWeights.reserve(np);
    for (size_t pi = 0; pi < np; ++pi)
        result.finalWeights.push_back(reps[0]->params[pi]->value);
    return result;
}

} // namespace scaleout
} // namespace procrustes
