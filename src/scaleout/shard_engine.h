/**
 * @file
 * Data-parallel shard engine: M-way replicated training with sparse
 * gradient exchange, executed for real on the shared ThreadPool.
 *
 * The paper's Figure 20 scales PEs within one chip; this engine goes
 * beyond it and models (while actually executing) data-parallel
 * training across M accelerator shards. Each shard holds a full
 * bitwise-identical replica of the network; every global batch is
 * split into fixed-size grad slices; each slice runs forward +
 * backward on the replica that owns it; then a deterministic
 * allreduce-style exchange (sparse::sparseAllreduceGrads) reduces the
 * mask-live packed gradients in global slice order, scatters the
 * reduced gradient into every replica, and every replica's optimizer
 * steps — so replicas stay bitwise identical forever.
 *
 * Determinism contract. The grad-slice size (ShardTrainConfig::
 * sliceSamples) — NOT the shard count — fixes the floating-point
 * reduction granularity: a slice's contribution is computed on a
 * bitwise-identical replica regardless of which shard owns it, and the
 * fold order is the global slice order. Final weights are therefore
 * bitwise identical for ANY shard count at a matched global batch, and
 * (by the repo-wide kernel guarantee) for any thread count. There is
 * deliberately no per-shard pre-reduction: IEEE754 summation is not
 * decomposable at shard boundaries, so pre-reducing would tie results
 * to M.
 *
 * Exchange semantics. Gradients of prunable parameters are projected
 * through the live weight mask ("live iff value != 0", the CSB encode
 * rule) — exactly the masked dW the zero-skipping CSB executors
 * produce — and travel as packed values with no indices, since every
 * replica shares the mask. Non-prunable parameters (biases, batch-norm
 * affine) travel dense. Wire traffic is measured per parameter per
 * step (reduce-to-root gather + broadcast) and flows into the step's
 * LayerStepReports so WorkloadTrace / the cost-model interconnect term
 * (CostOptions::interconnectWordsPerCycle) can price it.
 *
 * Caveats: layers with non-parameter training state (BatchNorm running
 * statistics) are outside the exchange — use BN-free networks when
 * cross-shard-identical validation accuracy matters. Prunable layers
 * should run the CSB sparse backend so the executed dW already honours
 * the mask the exchange assumes.
 */

#ifndef PROCRUSTES_SCALEOUT_SHARD_ENGINE_H_
#define PROCRUSTES_SCALEOUT_SHARD_ENGINE_H_

#include <cstdint>
#include <vector>

#include "nn/trainer.h"
#include "sparse/grad_exchange.h"

namespace procrustes {
namespace scaleout {

/** Scale-out training configuration; batchSize is the global,
    optimizer-visible batch. */
struct ShardTrainConfig : nn::TrainConfig
{
    /** Shard (replica) count M. */
    int shards = 1;

    /**
     * Grad-slice size: the fixed gradient-accumulation granularity.
     * Must be held constant when comparing shard counts — it, not the
     * shard count, determines the floating-point reduction order. A
     * slice never crosses a global-batch boundary (the last slice of a
     * batch may be ragged). sliceSamples == batchSize makes a
     * one-shard run bitwise identical to nn::trainNetwork.
     */
    int64_t sliceSamples = 4;
};

using nn::NetworkBuilder;
using nn::OptimizerFactory;

/** Measured exchange wire traffic, summed over one epoch's steps. */
using ShardExchangeStats = sparse::ExchangeVolume;

/** One epoch of sharded training. */
struct ShardEpochStats
{
    nn::EpochStats stats;          //!< loss / accuracy / sparsity
    ShardExchangeStats exchange;
};

/** Result of a sharded training run. */
struct ShardTrainResult
{
    std::vector<ShardEpochStats> history;

    /** Final parameter values (replica 0 == every replica), in
        Network::params() order. */
    std::vector<Tensor> finalWeights;
};

/**
 * Run data-parallel training of M bitwise-identical replicas.
 *
 * Shards execute concurrently on the shared ThreadPool (one pool task
 * per shard; nested kernel parallelism runs inline). With shards == 1
 * the engine stays out of the pool's way so kernels keep their normal
 * parallelism. `observer` receives one merged StepTelemetry per global
 * batch — per-slice executed MACs summed, densities sample-weighted,
 * the post-update mask/footprint, and per-layer exchange bytes
 * (LayerStepReport::hasExchange) — so arch::WorkloadTrace consumes a
 * sharded run exactly like a plain one.
 */
ShardTrainResult trainSharded(const NetworkBuilder &build,
                              const OptimizerFactory &make_opt,
                              const nn::Dataset &train,
                              const nn::Dataset &val,
                              const ShardTrainConfig &cfg,
                              const nn::StepObserver &observer = {});

} // namespace scaleout
} // namespace procrustes

#endif // PROCRUSTES_SCALEOUT_SHARD_ENGINE_H_
