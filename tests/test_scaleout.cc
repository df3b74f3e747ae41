/**
 * @file
 * Data-parallel shard engine: mask-live gradient exchange units,
 * trainer-equivalence, and the shard-sweep x thread-sweep bitwise
 * determinism guarantee. Also holds the regression tests for the
 * trainer/optimizer bugs the engine made load-bearing: the dropped
 * ragged tail batch, momentum re-animating pruned weights, and the
 * silently mis-sized velocity buffer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "arch/accelerator.h"
#include "arch/workload_trace.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "expect_telemetry.h"
#include "nn/activations.h"
#include "nn/data.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "nn/sgd.h"
#include "nn/trainer.h"
#include "scaleout/shard_engine.h"
#include "sparse/grad_exchange.h"
#include "sparse/gradual_pruning.h"

namespace procrustes {
namespace {

using nn::Dataset;
using nn::Network;
using scaleout::ShardTrainConfig;
using scaleout::ShardTrainResult;

/** Restore the default global pool when a sweep test exits. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard() { ThreadPool::resetGlobal(0); }
};

// ---------------------------------------------------------------------
// Mask-live gather / scatter / fold units
// ---------------------------------------------------------------------

TEST(GradExchange, GatherScatterRaggedGeometry)
{
    // Ragged versus the 8x8 CSB block grid: 5x7 fc-shaped and
    // 3x2x3x3 conv-shaped tensors.
    for (const Shape &shape :
         {Shape{5, 7}, Shape{3, 2, 3, 3}, Shape{13}}) {
        Tensor value(shape);
        float *v = value.data();
        const int64_t n = value.numel();
        // Zero a scattered third of the positions.
        for (int64_t i = 0; i < n; ++i)
            v[i] = (i % 3 == 1) ? 0.0f : 0.5f + static_cast<float>(i);

        const auto live = sparse::liveMaskFromValues(value);
        const int64_t nnz = sparse::liveCount(live);
        ASSERT_EQ(live.size(), static_cast<size_t>(n));
        int64_t expect_nnz = 0;
        for (int64_t i = 0; i < n; ++i)
            expect_nnz += (i % 3 == 1) ? 0 : 1;
        EXPECT_EQ(nnz, expect_nnz);

        // A gradient with distinct values everywhere (including at
        // dead positions, which must not survive the round trip).
        std::vector<float> grad(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i)
            grad[static_cast<size_t>(i)] =
                1.0f + 0.25f * static_cast<float>(i);

        std::vector<float> packed(static_cast<size_t>(nnz), -1.0f);
        EXPECT_EQ(sparse::gatherLive(grad.data(), live, packed.data()),
                  nnz);

        std::vector<float> back(static_cast<size_t>(n), -7.0f);
        sparse::scatterLive(packed.data(), live, back.data());
        for (int64_t i = 0; i < n; ++i) {
            if (live[static_cast<size_t>(i)])
                EXPECT_EQ(back[static_cast<size_t>(i)],
                          grad[static_cast<size_t>(i)]);
            else
                EXPECT_EQ(back[static_cast<size_t>(i)], 0.0f);
        }
    }
}

TEST(GradExchange, AllreduceFoldIsSequentialInSliceOrder)
{
    const std::vector<std::vector<float>> partials = {
        {1.0f, 2.0f}, {10.0f, 20.0f}, {100.0f, 200.0f}};
    const std::vector<float> weights = {0.5f, 0.25f, 0.25f};
    const auto reduced =
        sparse::sparseAllreduceGrads(partials, weights);
    ASSERT_EQ(reduced.size(), 2u);
    // Exact left fold: ((0 + 0.5*1) + 0.25*10) + 0.25*100 — all
    // representable, so equality is exact.
    EXPECT_EQ(reduced[0], 28.0f);
    EXPECT_EQ(reduced[1], 56.0f);
}

TEST(GradExchange, SingleSliceUnitWeightIsBitwiseIdentity)
{
    // 0 + 1*x == x for every float, including denormals and huge
    // values: the property that makes a one-shard, one-slice engine
    // step bitwise equal to the plain trainer.
    std::vector<float> x = {1e-40f, -3.25f, 7e30f, 0.1f};
    const auto reduced = sparse::sparseAllreduceGrads({x}, {1.0f});
    ASSERT_EQ(reduced.size(), x.size());
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(reduced[i], x[i]);
}

TEST(GradExchange, AllreduceVolumeAccounting)
{
    // 3 gather + 1 broadcast messages, 10 live of 40 positions.
    const auto v = sparse::allreduceVolume(10, 40, 3, 1);
    EXPECT_EQ(v.messages, 4);
    EXPECT_EQ(v.compressedBytes, 4 * 10 * 4);
    EXPECT_EQ(v.denseBytes, 4 * 40 * 4);

    // Single shard: nothing crosses the wire.
    const auto none = sparse::allreduceVolume(10, 40, 0, 0);
    EXPECT_EQ(none.messages, 0);
    EXPECT_EQ(none.compressedBytes, 0);
    EXPECT_EQ(none.denseBytes, 0);

    // Fully dense mask: compressed equals dense, never more.
    const auto dense = sparse::allreduceVolume(40, 40, 2, 1);
    EXPECT_EQ(dense.compressedBytes, dense.denseBytes);
}

// ---------------------------------------------------------------------
// Engine fixtures
// ---------------------------------------------------------------------

void
buildShardMlp(Network &net, uint64_t seed)
{
    net.add<nn::Flatten>("fl");
    net.add<nn::Linear>(2, 24, "fc1");
    net.add<nn::ReLU>("r1");
    net.add<nn::Linear>(24, 24, "fc2");
    net.add<nn::ReLU>("r2");
    net.add<nn::Linear>(24, 3, "fc3");
    Xorshift128Plus rng(seed);
    nn::kaimingInit(net, rng);
    // CSB backend: dW honours the live mask, the property the
    // mask-live exchange assumes.
    for (size_t i = 0; i < net.size(); ++i) {
        if (auto *fc = dynamic_cast<nn::Linear *>(net.layer(i)))
            fc->setBackend(kernels::KernelBackend::kSparse);
    }
}

std::pair<Dataset, Dataset>
shardSpirals()
{
    nn::SpiralConfig cfg;
    cfg.samplesPerClass = 20;   // 60 samples: batch 16 leaves a
    cfg.seed = 5;               // ragged 12-sample tail
    const Dataset train = nn::makeSpirals(cfg);
    cfg.seed = 55;
    const Dataset val = nn::makeSpirals(cfg);
    return {train, val};
}

sparse::GradualPruningConfig
shardPruning()
{
    sparse::GradualPruningConfig pc;
    pc.targetSparsity = 4.0;
    pc.lr = 0.08f;
    pc.warmupIterations = 4;
    pc.pruneInterval = 3;
    pc.pruneFraction = 0.25;
    return pc;
}

ShardTrainResult
runSharded(int shards, int64_t epochs = 3)
{
    const auto splits = shardSpirals();
    ShardTrainConfig cfg;
    cfg.shards = shards;
    cfg.epochs = epochs;
    cfg.batchSize = 16;
    cfg.sliceSamples = 4;
    return scaleout::trainSharded(
        [](Network &net) { buildShardMlp(net, 11); },
        [] {
            return std::make_unique<
                sparse::GradualMagnitudePruningOptimizer>(
                shardPruning());
        },
        splits.first, splits.second, cfg);
}

// ---------------------------------------------------------------------
// Engine semantics
// ---------------------------------------------------------------------

TEST(Scaleout, SingleShardOneSlicePerBatchMatchesPlainTrainer)
{
    const auto splits = shardSpirals();

    // Plain trainer.
    Network ref;
    buildShardMlp(ref, 11);
    sparse::GradualMagnitudePruningOptimizer ref_opt(shardPruning());
    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.batchSize = 16;
    std::vector<nn::StepTelemetry> ref_telemetry;
    const auto ref_hist = nn::trainNetwork(
        ref, ref_opt, splits.first, splits.second, tc,
        [&](const nn::StepTelemetry &t) { ref_telemetry.push_back(t); });

    // Engine with one shard and one slice per global batch: the fold
    // degenerates to the identity, so everything is bitwise equal.
    ShardTrainConfig cfg;
    cfg.shards = 1;
    cfg.epochs = 3;
    cfg.batchSize = 16;
    cfg.sliceSamples = 16;
    std::vector<nn::StepTelemetry> sharded_telemetry;
    const auto sharded = scaleout::trainSharded(
        [](Network &net) { buildShardMlp(net, 11); },
        [] {
            return std::make_unique<
                sparse::GradualMagnitudePruningOptimizer>(
                shardPruning());
        },
        splits.first, splits.second, cfg,
        [&](const nn::StepTelemetry &t) {
            sharded_telemetry.push_back(t);
        });

    const auto ref_params = ref.params();
    ASSERT_EQ(sharded.finalWeights.size(), ref_params.size());
    for (size_t pi = 0; pi < ref_params.size(); ++pi) {
        const Tensor &a = ref_params[pi]->value;
        const Tensor &b = sharded.finalWeights[pi];
        ASSERT_EQ(a.numel(), b.numel());
        const float *av = a.data();
        const float *bv = b.data();
        for (int64_t i = 0; i < a.numel(); ++i)
            ASSERT_EQ(av[i], bv[i]) << "param " << pi << " elem " << i;
    }
    ASSERT_EQ(sharded.history.size(), ref_hist.size());
    for (size_t e = 0; e < ref_hist.size(); ++e) {
        EXPECT_EQ(sharded.history[e].stats.trainLoss,
                  ref_hist[e].trainLoss);
        EXPECT_EQ(sharded.history[e].stats.trainAccuracy,
                  ref_hist[e].trainAccuracy);
        EXPECT_EQ(sharded.history[e].stats.valAccuracy,
                  ref_hist[e].valAccuracy);
        EXPECT_EQ(sharded.history[e].stats.weightSparsity,
                  ref_hist[e].weightSparsity);
        // One shard: nothing crosses the wire.
        EXPECT_EQ(sharded.history[e].exchange.compressedBytes, 0);
        EXPECT_EQ(sharded.history[e].exchange.messages, 0);
    }
    expectTelemetryEqual(sharded_telemetry, ref_telemetry,
                         "shard1-vs-trainer");
}

TEST(Scaleout, ShardSweepBitwiseDeterminismAcrossThreadCounts)
{
    GlobalPoolGuard guard;

    // Reference: one shard, one thread.
    ThreadPool::resetGlobal(1);
    const ShardTrainResult ref = runSharded(1);

    for (int threads : {1, 2, 3, 8}) {
        ThreadPool::resetGlobal(threads);
        for (int shards : {1, 2, 4}) {
            const ShardTrainResult r = runSharded(shards);

            // Final weights (and therefore masks) bitwise identical.
            ASSERT_EQ(r.finalWeights.size(), ref.finalWeights.size());
            for (size_t pi = 0; pi < ref.finalWeights.size(); ++pi) {
                const float *av = ref.finalWeights[pi].data();
                const float *bv = r.finalWeights[pi].data();
                const int64_t n = ref.finalWeights[pi].numel();
                ASSERT_EQ(n, r.finalWeights[pi].numel());
                for (int64_t i = 0; i < n; ++i)
                    ASSERT_EQ(av[i], bv[i])
                        << "shards=" << shards
                        << " threads=" << threads << " param=" << pi
                        << " elem=" << i;
            }

            // Whole training trajectory identical too.
            ASSERT_EQ(r.history.size(), ref.history.size());
            for (size_t e = 0; e < ref.history.size(); ++e) {
                EXPECT_EQ(r.history[e].stats.trainLoss,
                          ref.history[e].stats.trainLoss);
                EXPECT_EQ(r.history[e].stats.valAccuracy,
                          ref.history[e].stats.valAccuracy);
                EXPECT_EQ(r.history[e].stats.weightSparsity,
                          ref.history[e].stats.weightSparsity);

                const auto &ex = r.history[e].exchange;
                if (shards == 1) {
                    EXPECT_EQ(ex.compressedBytes, 0);
                    EXPECT_EQ(ex.denseBytes, 0);
                } else {
                    EXPECT_GT(ex.messages, 0);
                    EXPECT_LE(ex.compressedBytes, ex.denseBytes);
                    // Exchange masks are sampled before each step, so
                    // an epoch that *starts* sparse (the previous one
                    // ended with pruned weights) must exchange
                    // strictly fewer bytes than dense.
                    if (e > 0 &&
                        r.history[e - 1].stats.weightSparsity > 0.0)
                        EXPECT_LT(ex.compressedBytes, ex.denseBytes);
                }
            }
            // Pruning really happened (the strict-inequality check
            // above is not vacuous).
            EXPECT_GT(r.history.back().stats.weightSparsity, 0.1);
        }
    }

    // Exchange byte counts are a deterministic function of the run:
    // same shard count, different thread count => identical bytes.
    ThreadPool::resetGlobal(2);
    const ShardTrainResult two_a = runSharded(2);
    ThreadPool::resetGlobal(3);
    const ShardTrainResult two_b = runSharded(2);
    ASSERT_EQ(two_a.history.size(), two_b.history.size());
    for (size_t e = 0; e < two_a.history.size(); ++e) {
        EXPECT_EQ(two_a.history[e].exchange.compressedBytes,
                  two_b.history[e].exchange.compressedBytes);
        EXPECT_EQ(two_a.history[e].exchange.denseBytes,
                  two_b.history[e].exchange.denseBytes);
        EXPECT_EQ(two_a.history[e].exchange.messages,
                  two_b.history[e].exchange.messages);
    }
}

TEST(Scaleout, ExchangeBytesFlowThroughTraceAndCostModel)
{
    const auto splits = shardSpirals();
    ShardTrainConfig cfg;
    cfg.shards = 2;
    cfg.epochs = 2;
    cfg.batchSize = 16;
    cfg.sliceSamples = 4;

    arch::WorkloadTrace trace;
    const auto r = scaleout::trainSharded(
        [](Network &net) { buildShardMlp(net, 11); },
        [] {
            return std::make_unique<
                sparse::GradualMagnitudePruningOptimizer>(
                shardPruning());
        },
        splits.first, splits.second, cfg, trace.observer());

    ASSERT_EQ(trace.epochCount(), 2u);
    for (size_t e = 0; e < trace.epochCount(); ++e) {
        const arch::EpochTrace &et = trace.epoch(e);
        // The trace's per-layer accumulation must reproduce the
        // engine's own epoch totals exactly (every traced layer owns
        // all exchanged params in this MLP).
        EXPECT_EQ(et.totalExchangeCompressedBytes(),
                  r.history[e].exchange.compressedBytes);
        EXPECT_EQ(et.totalExchangeDenseBytes(),
                  r.history[e].exchange.denseBytes);
        EXPECT_GT(et.totalExchangeCompressedBytes(), 0);
    }

    // Cost model: the interconnect term prices the measured bytes in
    // the weight-update phase at the configured word rate.
    arch::CostOptions opts;
    opts.sparse = true;
    opts.balance = arch::BalanceMode::HalfTile;
    opts.interconnectWordsPerCycle = 2.0;
    const arch::Accelerator acc(arch::ArrayConfig::baseline16(), opts,
                                arch::MappingKind::KN);
    const auto cost = acc.evaluateTrace(trace, 1);
    const arch::EpochTrace &et = trace.epoch(1);
    double expect_cycles = 0.0;
    for (const arch::LayerTrace &l : et.layers) {
        const double per_step =
            static_cast<double>(l.exchangeCompressedBytes) /
            static_cast<double>(l.steps);
        expect_cycles += (per_step / 4.0) / 2.0;
    }
    EXPECT_NEAR(cost.wu.interconnectCycles, expect_cycles,
                1e-9 * expect_cycles);
    EXPECT_GT(cost.wu.interconnectCycles, 0.0);
    EXPECT_EQ(cost.fw.interconnectCycles, 0.0);
    EXPECT_EQ(cost.bw.interconnectCycles, 0.0);
    // The phase latency respects the interconnect bound.
    EXPECT_GE(cost.wu.cycles + 1e-9,
              cost.wu.interconnectCycles);

    // Term off (default): no interconnect cycles anywhere.
    const auto plain =
        arch::Accelerator::procrustes().evaluateTrace(trace, 1);
    EXPECT_EQ(plain.wu.interconnectCycles, 0.0);
}

// ---------------------------------------------------------------------
// Trainer / optimizer regressions (fail before the PR's fixes)
// ---------------------------------------------------------------------

TEST(Training, RaggedTailBatchIsTrainedAndWeighted)
{
    nn::SpiralConfig dc;
    dc.samplesPerClass = 4;   // 12 samples: batch 8 -> steps of 8, 4
    const Dataset ds = nn::makeSpirals(dc);

    Network net;
    buildShardMlp(net, 3);
    nn::Sgd opt(0.05f);
    nn::TrainConfig tc;
    tc.epochs = 1;
    tc.batchSize = 8;

    std::vector<int64_t> step_sizes;
    std::vector<double> step_losses;
    const auto hist = nn::trainNetwork(
        net, opt, ds, ds, tc, [&](const nn::StepTelemetry &t) {
            step_sizes.push_back(t.batchSize);
            step_losses.push_back(t.batchLoss);
        });

    // Pre-fix the loop dropped the 4-sample tail entirely (one step
    // per epoch, 8 of 12 samples trained).
    ASSERT_EQ(step_sizes.size(), 2u);
    EXPECT_EQ(step_sizes[0], 8);
    EXPECT_EQ(step_sizes[1], 4);
    EXPECT_EQ(opt.iteration(), 2);

    // Epoch loss is the sample-weighted mean, not the batch mean.
    const double expect =
        (step_losses[0] * 8.0 + step_losses[1] * 4.0) / 12.0;
    EXPECT_DOUBLE_EQ(hist[0].trainLoss, expect);
}

TEST(Sgd, MomentumDoesNotReanimatePrunedWeights)
{
    nn::Param p;
    p.init(Shape{4}, "w", /*can_prune=*/true);
    float *v = p.value.data();
    float *g = p.grad.data();
    const float init[4] = {1.0f, -2.0f, 3.0f, 0.5f};
    for (int i = 0; i < 4; ++i)
        v[i] = init[i];

    nn::Sgd opt(0.1f, 0.9f);
    std::vector<nn::Param *> params = {&p};

    // A step with live gradients builds non-zero velocity everywhere.
    for (int i = 0; i < 4; ++i)
        g[i] = 0.5f;
    opt.step(params);

    // Prune position 2: exact zero value, masked (zero) gradient from
    // here on — the CSB invariant.
    v[2] = 0.0f;
    for (int i = 0; i < 4; ++i)
        g[i] = (i == 2) ? 0.0f : 0.25f;
    opt.step(params);

    // Pre-fix the stale velocity moved the pruned weight off zero.
    EXPECT_EQ(v[2], 0.0f);
    // Live positions still take momentum updates.
    EXPECT_NE(v[0], init[0]);
    EXPECT_NE(v[3], init[3]);

    // And the pruned position stays dead on later steps too.
    for (int i = 0; i < 4; ++i)
        g[i] = (i == 2) ? 0.0f : 0.25f;
    opt.step(params);
    EXPECT_EQ(v[2], 0.0f);
}

TEST(Sgd, NonPrunableZeroParamsStillUpdate)
{
    // A zero-initialized bias with a live gradient must not be
    // mistaken for a pruned weight.
    nn::Param b;
    b.init(Shape{2}, "bias", /*can_prune=*/false);
    b.grad.data()[0] = 1.0f;
    b.grad.data()[1] = 1.0f;
    nn::Sgd opt(0.1f, 0.9f);
    std::vector<nn::Param *> params = {&b};
    opt.step(params);
    EXPECT_NE(b.value.data()[0], 0.0f);
}

TEST(Sgd, VelocityBufferSizeIsAssertedEveryStep)
{
    nn::Param a, b;
    a.init(Shape{3}, "a", true);
    b.init(Shape{3}, "b", true);
    nn::Sgd opt(0.1f, 0.9f);
    std::vector<nn::Param *> both = {&a, &b};
    opt.step(both);
    std::vector<nn::Param *> fewer = {&a};
    EXPECT_DEATH(opt.step(fewer), "parameter set changed");
}

} // namespace
} // namespace procrustes
