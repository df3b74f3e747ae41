/**
 * @file
 * Tests for the measured-workload telemetry pipeline: layer step
 * reports, the trainNetwork observer hook, WorkloadTrace aggregation,
 * the wave plan read from a traced layer, trace-driven accelerator
 * evaluation (serial and from pool tasks), and end-to-end backend
 * parity (gemm vs CSB sparse under a fully dense mask must train
 * identically).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "arch/accelerator.h"
#include "arch/wave_plan.h"
#include "arch/workload_trace.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/data.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "nn/trainer.h"
#include "sparse/csb.h"
#include "sparse/mask.h"

namespace procrustes {
namespace {

/** Small conv/bn/relu/fc network on a chosen conv backend. */
void
buildNet(nn::Network &net, kernels::KernelBackend backend, uint64_t seed)
{
    nn::Conv2dConfig c1;
    c1.inChannels = 3;
    c1.outChannels = 8;
    c1.kernel = 3;
    c1.pad = 1;
    c1.bias = false;
    nn::Conv2d *conv1 = net.add<nn::Conv2d>(c1, "conv1");
    conv1->setBackend(backend);
    net.add<nn::BatchNorm2d>(8, "bn1");
    net.add<nn::ReLU>("relu1");
    net.add<nn::MaxPool2d>(2, "pool1");
    nn::Conv2dConfig c2;
    c2.inChannels = 8;
    c2.outChannels = 12;
    c2.kernel = 3;
    c2.pad = 1;
    c2.bias = false;
    nn::Conv2d *conv2 = net.add<nn::Conv2d>(c2, "conv2");
    conv2->setBackend(backend);
    net.add<nn::BatchNorm2d>(12, "bn2");
    net.add<nn::ReLU>("relu2");
    net.add<nn::GlobalAvgPool>("gap");
    net.add<nn::Linear>(12, 4, "fc");
    Xorshift128Plus rng(seed);
    nn::kaimingInit(net, rng);
}

std::pair<nn::Dataset, nn::Dataset>
blobSplits()
{
    nn::BlobImageConfig cfg;
    cfg.numClasses = 4;
    cfg.samplesPerClass = 12;
    const nn::Dataset train = nn::makeBlobImages(cfg);
    cfg.sampleSeed = 77;
    const nn::Dataset val = nn::makeBlobImages(cfg);
    return {train, val};
}

TEST(StepObserver, DeliversPerStepReportsInLayerOrder)
{
    nn::Network net;
    buildNet(net, kernels::KernelBackend::kSparse, 5);
    auto splits = blobSplits();
    nn::TrainConfig tc;
    tc.epochs = 2;
    tc.batchSize = 8;
    nn::Sgd opt(0.05f);

    std::vector<nn::StepTelemetry> seen;
    trainNetwork(net, opt, splits.first, splits.second, tc,
                 [&seen](const nn::StepTelemetry &t) {
                     seen.push_back(t);
                 });

    const int64_t batches_per_epoch = splits.first.size() / tc.batchSize;
    ASSERT_EQ(static_cast<int64_t>(seen.size()),
              tc.epochs * batches_per_epoch);
    EXPECT_EQ(seen.front().epoch, 0);
    EXPECT_EQ(seen.back().epoch, tc.epochs - 1);
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i].step, static_cast<int64_t>(i));

    // conv1, relu1, conv2, relu2, fc report; bn / pool layers do not.
    const auto &reports = seen.front().reports;
    ASSERT_EQ(reports.size(), 5u);
    EXPECT_EQ(reports[0].layerName, "conv1");
    EXPECT_EQ(reports[0].kind, nn::LayerStepReport::Kind::Conv);
    EXPECT_EQ(reports[1].kind, nn::LayerStepReport::Kind::Activation);
    EXPECT_EQ(reports[2].layerName, "conv2");
    EXPECT_EQ(reports[4].layerName, "fc");
    EXPECT_EQ(reports[4].kind, nn::LayerStepReport::Kind::Linear);

    // Conv geometry must describe the real run.
    const nn::LayerStepReport &c1 = reports[0];
    EXPECT_EQ(c1.batch, 8);
    EXPECT_EQ(c1.K, 8);
    EXPECT_EQ(c1.C, 3);
    EXPECT_EQ(c1.R, 3);
    EXPECT_EQ(c1.P, 12);   // blob images are 12x12, pad 1 stride 1
    EXPECT_TRUE(c1.hasMacs);
    EXPECT_TRUE(c1.sparseExecuted);
    EXPECT_TRUE(c1.hasMask);
    EXPECT_GT(c1.fwMacs, 0);
    EXPECT_GT(c1.bwDataMacs, 0);
    EXPECT_GT(c1.bwWeightMacs, 0);

    // conv2 sits behind relu1/pool1, so its input has measured zeros
    // and its x-skipping weight-update executor must do fewer MACs
    // than its dy-dense forward would suggest.
    const nn::LayerStepReport &c2 = reports[2];
    EXPECT_LT(c2.inputDensity, 1.0);
    EXPECT_GT(c2.inputDensity, 0.0);
    EXPECT_LT(c2.bwWeightMacs, c2.fwMacs);
    ASSERT_EQ(c2.inputChannelDensity.size(), 8u);
    ASSERT_EQ(c2.inputSampleDensity.size(), 8u);
    ASSERT_EQ(c2.inputSampleHalfDensity.size(), 16u);
    for (size_t n = 0; n < c2.inputSampleDensity.size(); ++n) {
        EXPECT_NEAR(c2.inputSampleHalfDensity[n * 2] +
                        c2.inputSampleHalfDensity[n * 2 + 1],
                    c2.inputSampleDensity[n], 1e-12);
    }

    // The fc layer stays on the default gemm backend here (buildNet
    // switches only the convs), so it reports honest dense MACs and
    // must not claim sparse execution.
    const nn::LayerStepReport &fc = reports[4];
    EXPECT_FALSE(fc.sparseExecuted);
    EXPECT_EQ(fc.fwMacs, 8 * 12 * 4);
    EXPECT_EQ(fc.bwDataMacs, fc.fwMacs);
    EXPECT_EQ(fc.bwWeightMacs, fc.fwMacs);
}

TEST(StepObserver, SparseFcReportsMeasuredSkippedMacs)
{
    // With the fc layer on the CSB backend and some of its weights
    // pruned, its report must carry the executors' measured tallies:
    // strictly below dense in every phase (the mask skip), with the
    // backward phases additionally under the forward count (operand
    // zeros: dy carries softmax gradients — dense — but the
    // GlobalAvgPool input behind two ReLUs has measured zeros).
    nn::Network net;
    buildNet(net, kernels::KernelBackend::kSparse, 19);
    auto *fc_layer = dynamic_cast<nn::Linear *>(
        net.layer(net.size() - 1));
    ASSERT_NE(fc_layer, nullptr);
    fc_layer->setBackend(kernels::KernelBackend::kSparse);
    Tensor &w = fc_layer->weight().value;
    for (int64_t i = 0; i < w.numel(); i += 2)
        w.at(i) = 0.0f;   // 50% fc sparsity

    auto splits = blobSplits();
    nn::TrainConfig tc;
    tc.epochs = 1;
    tc.batchSize = 8;
    nn::Sgd opt(0.01f);
    std::vector<nn::StepTelemetry> seen;
    trainNetwork(net, opt, splits.first, splits.second, tc,
                 [&seen](const nn::StepTelemetry &t) {
                     seen.push_back(t);
                 });
    ASSERT_FALSE(seen.empty());

    const nn::LayerStepReport &fc = seen.front().reports.back();
    ASSERT_EQ(fc.kind, nn::LayerStepReport::Kind::Linear);
    EXPECT_TRUE(fc.hasMacs);
    EXPECT_TRUE(fc.sparseExecuted);
    const int64_t dense = fc.batch * fc.K * fc.C;
    EXPECT_GT(fc.fwMacs, 0);
    EXPECT_LT(fc.fwMacs, dense);
    EXPECT_GT(fc.bwDataMacs, 0);
    EXPECT_LT(fc.bwDataMacs, dense);
    EXPECT_GT(fc.bwWeightMacs, 0);
    EXPECT_LE(fc.bwWeightMacs, fc.fwMacs);
    // Half the weights are pruned and frozen: the fc mask must still
    // be ~50% dense after the step (kSparse gives pruned weights no
    // gradient, so SGD cannot revive them).
    EXPECT_LT(fc.mask.density(), 0.75);
}

TEST(WorkloadTrace, MeasuredMacsOnlyTrustedFromSparseExecutors)
{
    // Synthetic telemetry, full control: one conv layer at weight
    // density 0.5, once traced from a dense backend (dense executed
    // counts, sparseExecuted=false) and once from the CSB executors
    // (distinctive skipped counts, sparseExecuted=true). evaluateTrace
    // must route the former to the modelled density estimate and pass
    // the latter through verbatim.
    sparse::SparsityMask mask = sparse::SparsityMask::dense(8, 4, 3, 3);
    for (size_t i = 0; i < mask.bits.size(); i += 2)
        mask.bits[i] = 0;   // density exactly 0.5

    auto makeTelemetry = [&mask](bool sparse_executed, int64_t macs) {
        nn::StepTelemetry t;
        t.epoch = 0;
        t.step = 0;
        t.batchSize = 4;
        nn::LayerStepReport r;
        r.layerName = "conv";
        r.kind = nn::LayerStepReport::Kind::Conv;
        r.batch = 4;
        r.K = 8;
        r.C = 4;
        r.R = 3;
        r.S = 3;
        r.P = 10;
        r.Q = 10;
        r.hasMacs = true;
        r.sparseExecuted = sparse_executed;
        r.fwMacs = macs;
        r.bwDataMacs = macs;
        r.bwWeightMacs = macs;
        r.hasMask = true;
        r.mask = mask;
        r.inputDensity = 1.0;
        t.reports.push_back(std::move(r));
        return t;
    };
    const int64_t dense_macs = 4 * 8 * 4 * 3 * 3 * 10 * 10;
    const arch::Accelerator acc = arch::Accelerator::procrustes();

    arch::WorkloadTrace dense_trace;
    dense_trace.observe(makeTelemetry(false, dense_macs));
    EXPECT_FALSE(dense_trace.epoch(0).layers[0].sparseExecuted);
    const arch::NetworkCost dense_traced =
        acc.evaluateTrace(dense_trace, 0);
    // Modelled estimate: dense * weight density 0.5, not the dense
    // executed count.
    EXPECT_NEAR(dense_traced.fw.macs, 0.5 * dense_macs,
                1e-6 * dense_macs);

    arch::WorkloadTrace sparse_trace;
    const int64_t skipped_macs = 123456;
    sparse_trace.observe(makeTelemetry(true, skipped_macs));
    EXPECT_TRUE(sparse_trace.epoch(0).layers[0].sparseExecuted);
    const arch::NetworkCost sparse_traced =
        acc.evaluateTrace(sparse_trace, 0);
    EXPECT_DOUBLE_EQ(sparse_traced.fw.macs,
                     static_cast<double>(skipped_macs));
}

TEST(WorkloadTrace, MeasuredFcMacsFlowIntoTraceDrivenEvaluation)
{
    // Same routing contract as the conv test above, for fc layers:
    // a Linear traced from the CSB executors (sparseExecuted=true)
    // must have its measured counts consumed verbatim by
    // evaluateTrace on a sparse config, while a dense-traced fc and
    // the dense baseline keep the modelled estimate.
    sparse::SparsityMask mask = sparse::SparsityMask::dense(16, 32, 1, 1);
    for (size_t i = 0; i < mask.bits.size(); i += 2)
        mask.bits[i] = 0;   // density exactly 0.5

    auto makeTelemetry = [&mask](bool sparse_executed, int64_t macs) {
        nn::StepTelemetry t;
        t.epoch = 0;
        t.step = 0;
        t.batchSize = 4;
        nn::LayerStepReport r;
        r.layerName = "fc";
        r.kind = nn::LayerStepReport::Kind::Linear;
        r.batch = 4;
        r.K = 16;
        r.C = 32;
        r.hasMacs = true;
        r.sparseExecuted = sparse_executed;
        r.fwMacs = macs;
        r.bwDataMacs = macs;
        r.bwWeightMacs = macs;
        r.hasMask = true;
        r.mask = mask;
        r.inputDensity = 1.0;
        t.reports.push_back(std::move(r));
        return t;
    };
    const int64_t dense_macs = 4 * 16 * 32;
    const arch::Accelerator acc = arch::Accelerator::procrustes();
    const arch::Accelerator baseline =
        arch::Accelerator::denseBaseline();

    // Dense-traced fc: modelled estimate (dense * weight density).
    arch::WorkloadTrace dense_trace;
    dense_trace.observe(makeTelemetry(false, dense_macs));
    EXPECT_EQ(dense_trace.epoch(0).layers[0].shape.type,
              arch::LayerType::FullyConnected);
    const arch::NetworkCost dense_traced =
        acc.evaluateTrace(dense_trace, 0);
    EXPECT_NEAR(dense_traced.fw.macs, 0.5 * dense_macs,
                1e-6 * dense_macs);

    // Sparse-traced fc: the executors' count, verbatim, in every
    // phase.
    arch::WorkloadTrace sparse_trace;
    const int64_t skipped_macs = 777;
    sparse_trace.observe(makeTelemetry(true, skipped_macs));
    EXPECT_TRUE(sparse_trace.epoch(0).layers[0].sparseExecuted);
    const arch::NetworkCost sparse_traced =
        acc.evaluateTrace(sparse_trace, 0);
    EXPECT_DOUBLE_EQ(sparse_traced.fw.macs,
                     static_cast<double>(skipped_macs));
    EXPECT_DOUBLE_EQ(sparse_traced.bw.macs,
                     static_cast<double>(skipped_macs));
    EXPECT_DOUBLE_EQ(sparse_traced.wu.macs,
                     static_cast<double>(skipped_macs));

    // The dense baseline never uses measured counts, whatever the
    // trace says.
    const arch::NetworkCost baseline_traced =
        baseline.evaluateTrace(sparse_trace, 0);
    EXPECT_NE(baseline_traced.fw.macs,
              static_cast<double>(skipped_macs));
}

TEST(WorkloadTrace, RecordsEpochFinalCompressedWeightBytes)
{
    // Synthetic telemetry: the compressed/dense weight footprints are
    // last-writer-wins per epoch (like the mask) and sum across
    // layers in the epoch summary.
    sparse::SparsityMask mask = sparse::SparsityMask::dense(2, 2, 3, 3);
    auto makeTelemetry = [&mask](int64_t step, int64_t csb_bytes) {
        nn::StepTelemetry t;
        t.epoch = 0;
        t.step = step;
        t.batchSize = 4;
        nn::LayerStepReport r;
        r.layerName = "conv";
        r.kind = nn::LayerStepReport::Kind::Conv;
        r.batch = 4;
        r.K = 2;
        r.C = 2;
        r.R = 3;
        r.S = 3;
        r.P = 4;
        r.Q = 4;
        r.hasMacs = true;
        r.sparseExecuted = true;
        r.fwMacs = 10;
        r.bwDataMacs = 10;
        r.bwWeightMacs = 10;
        r.hasMask = true;
        r.mask = mask;
        r.hasWeightBytes = true;
        r.csbWeightBytes = csb_bytes;
        r.denseWeightBytes = 2 * 2 * 3 * 3 * 4;
        t.reports.push_back(std::move(r));
        return t;
    };
    arch::WorkloadTrace trace;
    trace.observe(makeTelemetry(0, 100));
    trace.observe(makeTelemetry(1, 80));   // pruning shrank the encode
    const arch::EpochTrace &e = trace.epoch(0);
    EXPECT_EQ(e.layers[0].csbWeightBytes, 80);   // epoch-final value
    EXPECT_EQ(e.layers[0].denseWeightBytes, 2 * 2 * 3 * 3 * 4);
    EXPECT_EQ(e.totalCsbWeightBytes(), 80);
    EXPECT_EQ(e.totalDenseWeightBytes(), 2 * 2 * 3 * 3 * 4);
}

TEST(WorkloadTrace, MeasuredCompressedBytesMatchFinalWeightEncode)
{
    // End to end: after a pruned sparse training run, the last
    // epoch's recorded footprint must equal a fresh CSB encode of the
    // network's final weights — same mask snapshot, same byte count.
    nn::Network net;
    buildNet(net, kernels::KernelBackend::kSparse, 23);
    auto *fc_layer = dynamic_cast<nn::Linear *>(
        net.layer(net.size() - 1));
    ASSERT_NE(fc_layer, nullptr);
    fc_layer->setBackend(kernels::KernelBackend::kSparse);
    // Prune half of every trainable layer so compression has bite.
    for (size_t i = 0; i < net.size(); ++i) {
        auto *wl = dynamic_cast<nn::WeightLayer *>(net.layer(i));
        if (!wl)
            continue;
        Tensor &w = wl->weight().value;
        for (int64_t j = 0; j < w.numel(); j += 2)
            w.at(j) = 0.0f;
    }

    auto splits = blobSplits();
    nn::TrainConfig tc;
    tc.epochs = 2;
    tc.batchSize = 8;
    nn::Sgd opt(0.05f);
    arch::WorkloadTrace trace;
    trainNetwork(net, opt, splits.first, splits.second, tc,
                 trace.observer());

    const arch::EpochTrace &last = trace.lastEpoch();
    ASSERT_EQ(last.layers.size(), 3u);   // conv1, conv2, fc
    int64_t expect_csb = 0;
    int64_t expect_dense = 0;
    for (size_t i = 0; i < net.size(); ++i) {
        nn::Layer *l = net.layer(i);
        if (auto *conv = dynamic_cast<nn::Conv2d *>(l)) {
            expect_csb += sparse::CsbTensor::encodeConvFilters(
                              conv->weight().value)
                              .totalBytes();
            expect_dense += sparse::CsbTensor::denseBytes(
                conv->weight().value.shape());
        } else if (auto *fc = dynamic_cast<nn::Linear *>(l)) {
            expect_csb += sparse::CsbTensor::encodeMatrix(
                              fc->weight().value,
                              nn::Linear::kCsbBlockSide)
                              .totalBytes();
            expect_dense += sparse::CsbTensor::denseBytes(
                fc->weight().value.shape());
        }
    }
    EXPECT_EQ(last.totalCsbWeightBytes(), expect_csb);
    EXPECT_EQ(last.totalDenseWeightBytes(), expect_dense);
    // Half-pruned weights must actually compress below dense storage.
    EXPECT_LT(last.totalCsbWeightBytes(), last.totalDenseWeightBytes());
}

TEST(WorkloadTrace, AggregatesEpochsIntoMeasuredLayers)
{
    nn::Network net;
    buildNet(net, kernels::KernelBackend::kSparse, 7);
    auto splits = blobSplits();
    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.batchSize = 8;
    nn::Sgd opt(0.05f);

    arch::WorkloadTrace trace;
    trainNetwork(net, opt, splits.first, splits.second, tc,
                 trace.observer());

    ASSERT_EQ(trace.epochCount(), 3u);
    const arch::EpochTrace &e0 = trace.epoch(0);
    EXPECT_EQ(e0.epoch, 0);
    EXPECT_EQ(e0.batchSize, 8);
    EXPECT_EQ(e0.steps, splits.first.size() / tc.batchSize);
    ASSERT_EQ(e0.layers.size(), 3u);   // conv1, conv2, fc
    EXPECT_EQ(e0.layers[0].name, "conv1");
    EXPECT_EQ(e0.layers[2].shape.type,
              arch::LayerType::FullyConnected);
    EXPECT_GT(e0.totalMacsPerStep(), 0.0);
    EXPECT_GT(e0.meanLoss, 0.0);

    EXPECT_EQ(e0.layers[0].shape.K, 8);
    EXPECT_EQ(e0.layers[0].shape.P, 12);
    EXPECT_EQ(e0.layers[1].shape.C, 8);
    // conv2's measured input density (post-ReLU) must be genuinely
    // sparse.
    EXPECT_LT(e0.layers[1].iacts.mean, 1.0);
    EXPECT_GT(e0.layers[1].iacts.mean, 0.0);

    // Rank-4 inputs carry spatial marginals sized to the input extent
    // (12x12 images, pooled to 6x6 before conv2); the fc input is
    // rank-2 and has none.
    EXPECT_EQ(e0.layers[0].iacts.perRow.size(), 12u);
    EXPECT_EQ(e0.layers[0].iacts.perCol.size(), 12u);
    EXPECT_EQ(e0.layers[1].iacts.perRow.size(), 6u);
    EXPECT_EQ(e0.layers[1].iacts.perCol.size(), 6u);
    EXPECT_TRUE(e0.layers[2].iacts.perRow.empty());
    EXPECT_TRUE(e0.layers[2].iacts.perCol.empty());
}

TEST(WorkloadTrace, TraceKeepsTheFixedMaskOfAStableRun)
{
    // Zero a fixed pattern into conv1's weights; under the kSparse
    // backend pruned weights get no gradient, so the mask is stable
    // across the whole run, and the traced layer's epoch-final mask is
    // exactly that pattern.
    nn::Network net;
    buildNet(net, kernels::KernelBackend::kSparse, 11);
    auto *conv1 = dynamic_cast<nn::Conv2d *>(net.layer(0));
    ASSERT_NE(conv1, nullptr);
    Tensor &w = conv1->weight().value;
    for (int64_t i = 0; i < w.numel(); i += 3)
        w.at(i) = 0.0f;
    const sparse::SparsityMask expect_mask =
        sparse::SparsityMask::fromTensor(w);

    auto splits = blobSplits();
    nn::TrainConfig tc;
    tc.epochs = 1;
    tc.batchSize = 8;
    nn::Sgd opt(0.01f);
    arch::WorkloadTrace trace;
    trainNetwork(net, opt, splits.first, splits.second, tc,
                 trace.observer());

    const arch::LayerTrace &lt = trace.epoch(0).layers[0];
    ASSERT_EQ(lt.mask.numel(), expect_mask.numel());
    for (int64_t i = 0; i < expect_mask.numel(); ++i)
        ASSERT_EQ(lt.mask.bits[static_cast<size_t>(i)],
                  expect_mask.bits[static_cast<size_t>(i)])
            << i;

    EXPECT_DOUBLE_EQ(lt.weightDensity(), expect_mask.density());
}

/** A hand-built traced 3x3 conv layer with a dense mask. */
arch::LayerTrace
tracedConv(int64_t k, int64_t c, int64_t in_hw, int64_t stride)
{
    arch::LayerTrace l;
    l.name = "conv";
    l.shape = arch::convLayer("conv", c, k, 3, in_hw, stride);
    l.mask = sparse::SparsityMask::dense(k, c, 3, 3);
    return l;
}

/** Tile totals of a one-wave plan, one per tile. */
std::vector<double>
tileTotals(const arch::WavePlan &plan)
{
    EXPECT_EQ(plan.waves.size(), 1u);
    std::vector<double> out;
    for (const arch::TileHalves &t : plan.waves.at(0).tiles)
        out.push_back(t.total());
    return out;
}

TEST(TraceWavePlan, WeightUpdateWrapsMeasuredSamplesPastTheBatch)
{
    // K,N weight update: one Line tile per sample, its halves the
    // measured C-split halves. A batch larger than the measured one
    // wraps onto the measured samples.
    arch::LayerTrace l = tracedConv(4, 4, 6, 1);
    l.iacts.mean = 0.5;
    l.iacts.perSample = {0.4, 0.6, 0.5, 0.5};
    l.iacts.perSampleHalf = {0.1, 0.3, 0.3, 0.3, 0.25, 0.25, 0.2, 0.3};
    const arch::WavePlan plan =
        arch::planWaves(l, arch::Phase::WeightUpdate,
                        arch::MappingKind::KN, 8,
                        arch::ArrayConfig::baseline16());
    ASSERT_EQ(plan.shape, arch::WaveShape::Line);
    ASSERT_EQ(plan.dims[plan.lineAxis], arch::Dim::N);
    ASSERT_EQ(plan.waves.size(), 1u);
    const auto &tiles = plan.waves[0].tiles;
    ASSERT_EQ(tiles.size(), 8u);
    for (size_t n = 0; n < tiles.size(); ++n) {
        const size_t m = n % 4;   // sample 4 reads sample 0, ...
        EXPECT_EQ(tiles[n].first, l.iacts.perSampleHalf[m * 2]) << n;
        EXPECT_EQ(tiles[n].second, l.iacts.perSampleHalf[m * 2 + 1])
            << n;
    }

    // Without measured halves each sample splits evenly.
    l.iacts.perSampleHalf.clear();
    const std::vector<double> totals = tileTotals(
        arch::planWaves(l, arch::Phase::WeightUpdate,
                        arch::MappingKind::KN, 8,
                        arch::ArrayConfig::baseline16()));
    ASSERT_EQ(totals.size(), 8u);
    for (size_t n = 0; n < totals.size(); ++n)
        EXPECT_EQ(totals[n], l.iacts.perSample[n % 4]) << n;
}

TEST(TraceWavePlan, PqWeightUpdateMapsOutputsOntoMarginalsThroughStride)
{
    // P,Q weight update pairs the measured input-space row and column
    // marginals of the input location feeding output (p, q): row
    // p * stride, column q * stride, clamped to the last measured slot,
    // ratio-combined as row * col / mean.
    arch::LayerTrace l = tracedConv(4, 4, 10, 2);
    ASSERT_EQ(l.shape.P, 5);
    ASSERT_EQ(l.shape.Q, 5);
    l.iacts.mean = 0.5;
    l.iacts.perRow = {0.2, 0.8, 0.5, 0.5};   // input rows, H = 4
    l.iacts.perCol = {0.5, 0.5, 0.4, 0.6};   // input cols, W = 4
    const arch::WavePlan plan =
        arch::planWaves(l, arch::Phase::WeightUpdate,
                        arch::MappingKind::PQ, 2,
                        arch::ArrayConfig::baseline16());
    ASSERT_EQ(plan.shape, arch::WaveShape::Pair);
    ASSERT_EQ(plan.dims[0], arch::Dim::P);
    ASSERT_EQ(plan.dims[1], arch::Dim::Q);
    const std::vector<double> work = tileTotals(plan);
    ASSERT_EQ(work.size(), 25u);
    const auto at = [&work](size_t p, size_t q) { return work[p * 5 + q]; };
    EXPECT_DOUBLE_EQ(at(0, 0), 0.2 * 0.5 / 0.5);
    EXPECT_DOUBLE_EQ(at(0, 1), 0.2 * 0.4 / 0.5);
    // (p, q) is (row, col), not interchangeable.
    EXPECT_DOUBLE_EQ(at(1, 0), 0.5 * 0.5 / 0.5);
    EXPECT_NE(at(0, 1), at(1, 0));
    // Past the measured extent both axes clamp to the last slot:
    // outputs (2, 2) and (4, 4) both read input (3, 3).
    EXPECT_DOUBLE_EQ(at(4, 4), at(2, 2));
    EXPECT_DOUBLE_EQ(at(4, 4), 0.5 * 0.6 / 0.5);
}

TEST(TraceWavePlan, SliceHalvesSumToTheSlice)
{
    // A weight-sparse Line tile is one K (or C) slice of the mask, cut
    // in half along the other weight dim; the halves are shares of the
    // whole slice, so they sum to its density.
    sparse::SyntheticMaskConfig mc;
    mc.targetDensity = 0.3;
    mc.seed = 5;
    arch::LayerTrace l;
    l.shape = arch::convLayer("conv", 8, 16, 3, 6);
    l.mask = sparse::makeSyntheticMask(16, 8, 3, 3, mc);
    for (arch::MappingKind mapping :
         {arch::MappingKind::KN, arch::MappingKind::CN}) {
        const arch::WavePlan plan =
            arch::planWaves(l, arch::Phase::Forward, mapping, 8,
                            arch::ArrayConfig::baseline16());
        ASSERT_EQ(plan.shape, arch::WaveShape::Line);
        ASSERT_EQ(plan.waves.size(), 1u);
        const bool along_k = mapping == arch::MappingKind::KN;
        const auto &tiles = plan.waves[0].tiles;
        ASSERT_EQ(tiles.size(), along_k ? 16u : 8u);
        for (size_t i = 0; i < tiles.size(); ++i) {
            const auto idx = static_cast<int64_t>(i);
            const double slice =
                along_k ? static_cast<double>(
                              l.mask.tileNnz(idx, idx + 1, 0, 8)) /
                              (8.0 * 9.0)
                        : static_cast<double>(
                              l.mask.tileNnz(0, 16, idx, idx + 1)) /
                              (16.0 * 9.0);
            EXPECT_NEAR(tiles[i].first + tiles[i].second, slice, 1e-12)
                << i;
        }
    }
}

TEST(TraceWavePlan, DepthwiseHalvesSplitEvenly)
{
    // With a single input channel the balancer cuts the kernel itself;
    // modelled as an even split of the K slice.
    sparse::SyntheticMaskConfig mc;
    mc.targetDensity = 0.4;
    mc.seed = 7;
    arch::LayerTrace l;
    l.shape = arch::depthwiseLayer("dw", 8, 3, 6);
    l.mask = sparse::makeSyntheticMask(8, 1, 3, 3, mc);
    const arch::WavePlan plan =
        arch::planWaves(l, arch::Phase::Forward, arch::MappingKind::KN, 8,
                        arch::ArrayConfig::baseline16());
    ASSERT_EQ(plan.waves.size(), 1u);
    const auto &tiles = plan.waves[0].tiles;
    ASSERT_EQ(tiles.size(), 8u);
    for (size_t k = 0; k < tiles.size(); ++k) {
        const double slice =
            static_cast<double>(
                l.mask.blockNnz(static_cast<int64_t>(k), 0)) /
            9.0;
        EXPECT_DOUBLE_EQ(tiles[k].first, slice / 2.0);
        EXPECT_DOUBLE_EQ(tiles[k].second, slice / 2.0);
    }
}

TEST(WorkloadTrace, TraceDrivenAcceleratorTrajectoryIsSane)
{
    nn::Network net;
    buildNet(net, kernels::KernelBackend::kSparse, 13);
    // Prune half of each conv's weights up front so the sparse machine
    // has something to exploit.
    for (size_t i = 0; i < net.size(); ++i) {
        auto *conv = dynamic_cast<nn::Conv2d *>(net.layer(i));
        if (!conv)
            continue;
        Tensor &w = conv->weight().value;
        for (int64_t j = 0; j < w.numel(); j += 2)
            w.at(j) = 0.0f;
    }
    auto splits = blobSplits();
    nn::TrainConfig tc;
    tc.epochs = 2;
    tc.batchSize = 8;
    nn::Sgd opt(0.05f);
    arch::WorkloadTrace trace;
    trainNetwork(net, opt, splits.first, splits.second, tc,
                 trace.observer());

    const arch::Accelerator sparse_acc = arch::Accelerator::procrustes();
    const arch::Accelerator dense_acc =
        arch::Accelerator::denseBaseline();
    for (size_t e = 0; e < trace.epochCount(); ++e) {
        const arch::NetworkCost sc = sparse_acc.evaluateTrace(trace, e);
        const arch::NetworkCost dc = dense_acc.evaluateTrace(trace, e);
        EXPECT_GT(sc.totalCycles(), 0.0);
        EXPECT_GT(sc.totalEnergyJ(), 0.0);
        // Half the weights are pruned and activations carry ReLU
        // zeros: the measured-workload Procrustes run must beat the
        // dense baseline on both axes.
        EXPECT_LT(sc.totalCycles(), dc.totalCycles());
        EXPECT_LT(sc.totalEnergyJ(), dc.totalEnergyJ());
        // Measured MACs must also be what the cost rolls up for the
        // conv layers (fc keeps the modelled estimate).
        const arch::EpochTrace &et = trace.epoch(e);
        EXPECT_GT(et.totalMacsPerStep(), 0.0);
    }
}

TEST(WorkloadTrace, RaggedSampleVectorsDropToScalarMean)
{
    // A caller that feeds a short final batch delivers shorter
    // per-sample vectors; per-slot means are then meaningless and must
    // be dropped (the wave plan falls back to the scalar mean) rather
    // than silently restarted from zero.
    sparse::SparsityMask mask = sparse::SparsityMask::dense(2, 2, 3, 3);
    auto makeTelemetry = [&mask](int64_t step, int64_t batch) {
        nn::StepTelemetry t;
        t.epoch = 0;
        t.step = step;
        t.batchSize = batch;
        nn::LayerStepReport r;
        r.layerName = "conv";
        r.kind = nn::LayerStepReport::Kind::Conv;
        r.batch = batch;
        r.K = 2;
        r.C = 2;
        r.R = 3;
        r.S = 3;
        r.P = 4;
        r.Q = 4;
        r.hasMacs = true;
        r.sparseExecuted = true;
        r.fwMacs = 100;
        r.bwDataMacs = 100;
        r.bwWeightMacs = 100;
        r.hasMask = true;
        r.mask = mask;
        r.inputDensity = 0.5;
        r.inputSampleDensity.assign(static_cast<size_t>(batch), 0.5);
        r.inputSampleHalfDensity.assign(static_cast<size_t>(batch) * 2,
                                        0.25);
        r.inputChannelDensity.assign(2, 0.5);
        t.reports.push_back(std::move(r));
        return t;
    };
    arch::WorkloadTrace trace;
    trace.observe(makeTelemetry(0, 4));
    trace.observe(makeTelemetry(1, 2));   // ragged final batch
    const arch::LayerTrace &l = trace.epoch(0).layers[0];
    EXPECT_TRUE(l.iacts.perSample.empty());
    EXPECT_TRUE(l.iacts.perSampleHalf.empty());
    ASSERT_EQ(l.iacts.perChannel.size(), 2u);   // sizes matched: kept
    EXPECT_DOUBLE_EQ(l.iacts.mean, 0.5);

    // K,N weight update: every sample falls back to the scalar mean,
    // split evenly.
    const arch::WavePlan plan =
        arch::planWaves(l, arch::Phase::WeightUpdate,
                        arch::MappingKind::KN, 4,
                        arch::ArrayConfig::baseline16());
    ASSERT_EQ(plan.waves.size(), 1u);
    ASSERT_EQ(plan.waves[0].tiles.size(), 4u);
    for (const arch::TileHalves &t : plan.waves[0].tiles) {
        EXPECT_EQ(t.first, 0.25);
        EXPECT_EQ(t.second, 0.25);
    }
}

TEST(WorkloadTrace, MeasuredWeightBytesMoveTraceDrivenTrafficEnergy)
{
    // Acceptance check for the measured-traffic path: two traces that
    // differ only in the recorded compressed footprint must evaluate
    // to different GLB/DRAM energies — the byte count, not the
    // density estimate, is what the traffic terms consume.
    sparse::SparsityMask mask = sparse::SparsityMask::dense(8, 4, 3, 3);
    for (size_t i = 0; i < mask.bits.size(); i += 2)
        mask.bits[i] = 0;   // density exactly 0.5

    auto makeTelemetry = [&mask](int64_t csb_bytes) {
        nn::StepTelemetry t;
        t.epoch = 0;
        t.step = 0;
        t.batchSize = 4;
        nn::LayerStepReport r;
        r.layerName = "conv";
        r.kind = nn::LayerStepReport::Kind::Conv;
        r.batch = 4;
        r.K = 8;
        r.C = 4;
        r.R = 3;
        r.S = 3;
        r.P = 10;
        r.Q = 10;
        r.hasMacs = true;
        r.sparseExecuted = true;
        r.fwMacs = 1000;
        r.bwDataMacs = 1000;
        r.bwWeightMacs = 1000;
        r.hasMask = true;
        r.mask = mask;
        r.hasWeightBytes = true;
        r.csbWeightBytes = csb_bytes;
        r.denseWeightBytes = 8 * 4 * 3 * 3 * 4;
        r.inputDensity = 1.0;
        t.reports.push_back(std::move(r));
        return t;
    };
    const arch::Accelerator acc = arch::Accelerator::procrustes();

    arch::WorkloadTrace small;
    small.observe(makeTelemetry(600));
    arch::WorkloadTrace large;
    large.observe(makeTelemetry(6000));

    const arch::NetworkCost cs = acc.evaluateTrace(small, 0);
    const arch::NetworkCost cl = acc.evaluateTrace(large, 0);
    EXPECT_GT(cl.total().glbEnergyJ, cs.total().glbEnergyJ);
    EXPECT_GT(cl.total().dramEnergyJ, cs.total().dramEnergyJ);
    // MAC/RF energy comes from the (identical) measured MACs.
    EXPECT_DOUBLE_EQ(cl.total().macEnergyJ, cs.total().macEnergyJ);
    EXPECT_DOUBLE_EQ(cl.total().rfEnergyJ, cs.total().rfEnergyJ);

    // The dense baseline streams the dense image; identical dense
    // bytes mean identical traffic whatever the CSB field says.
    const arch::Accelerator baseline =
        arch::Accelerator::denseBaseline();
    const arch::NetworkCost bs = baseline.evaluateTrace(small, 0);
    const arch::NetworkCost bl = baseline.evaluateTrace(large, 0);
    EXPECT_DOUBLE_EQ(bl.total().glbEnergyJ, bs.total().glbEnergyJ);
    EXPECT_DOUBLE_EQ(bl.total().dramEnergyJ, bs.total().dramEnergyJ);
}

TEST(WorkloadTrace, TraceDrivenImbalanceHistogramsComeFromMeasuredMasks)
{
    // End to end on a real pruned run: evaluateTrace must emit
    // balanced/unbalanced histograms whose balanced mean never
    // exceeds the unbalanced one, with genuinely non-zero imbalance
    // once pruning has made the masks uneven.
    nn::Network net;
    buildNet(net, kernels::KernelBackend::kSparse, 29);
    Xorshift128Plus prune_rng(31);
    for (size_t i = 0; i < net.size(); ++i) {
        auto *conv = dynamic_cast<nn::Conv2d *>(net.layer(i));
        if (!conv)
            continue;
        Tensor &w = conv->weight().value;
        // Uneven pruning: drop 70% of even output channels, 20% of
        // odd ones, so K-slices carry visibly different work.
        const Shape &s = w.shape();
        for (int64_t k = 0; k < s[0]; ++k) {
            const double p = (k % 2 == 0) ? 0.7 : 0.2;
            for (int64_t j = 0; j < s.numel() / s[0]; ++j) {
                if (prune_rng.nextDouble() < p)
                    w.at(k * (s.numel() / s[0]) + j) = 0.0f;
            }
        }
    }
    auto splits = blobSplits();
    nn::TrainConfig tc;
    tc.epochs = 2;
    tc.batchSize = 8;
    nn::Sgd opt(0.05f);
    arch::WorkloadTrace trace;
    trainNetwork(net, opt, splits.first, splits.second, tc,
                 trace.observer());

    const arch::Accelerator acc = arch::Accelerator::procrustes();
    for (size_t e = 0; e < trace.epochCount(); ++e) {
        arch::EpochImbalance imb;
        acc.evaluateTrace(trace, e, &imb);
        EXPECT_GT(imb.unbalanced.meanOverhead, 0.0) << e;
        EXPECT_LE(imb.balanced.meanOverhead,
                  imb.unbalanced.meanOverhead + 1e-12)
            << e;
        EXPECT_LE(imb.balanced.maxOverhead,
                  imb.unbalanced.maxOverhead + 1e-12)
            << e;
        double total = 0.0;
        for (double f : imb.unbalanced.fraction)
            total += f;
        EXPECT_NEAR(total, 1.0, 1e-9) << e;
    }
}

/** Restores the process-wide pool to its env-resolved size on exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard() { ThreadPool::resetGlobal(0); }
};

/** One full trace-pipeline run at the current pool size. */
struct PipelineResult
{
    arch::WorkloadTrace trace;
    std::vector<arch::EpochImbalance> imbalance;
};

PipelineResult
runTracePipeline()
{
    nn::Network net;
    buildNet(net, kernels::KernelBackend::kSparse, 41);
    auto *fc_layer =
        dynamic_cast<nn::Linear *>(net.layer(net.size() - 1));
    fc_layer->setBackend(kernels::KernelBackend::kSparse);
    for (size_t i = 0; i < net.size(); ++i) {
        auto *wl = dynamic_cast<nn::WeightLayer *>(net.layer(i));
        if (!wl)
            continue;
        Tensor &w = wl->weight().value;
        for (int64_t j = 0; j < w.numel(); j += 3)
            w.at(j) = 0.0f;
    }
    auto splits = blobSplits();
    nn::TrainConfig tc;
    tc.epochs = 2;
    tc.batchSize = 8;
    nn::Sgd opt(0.05f);
    PipelineResult out;
    trainNetwork(net, opt, splits.first, splits.second, tc,
                 out.trace.observer());
    const arch::Accelerator acc = arch::Accelerator::procrustes();
    for (size_t e = 0; e < out.trace.epochCount(); ++e) {
        arch::EpochImbalance imb;
        acc.evaluateTrace(out.trace, e, &imb);
        out.imbalance.push_back(imb);
    }
    return out;
}

void
expectHistogramsIdentical(const arch::ImbalanceHistogram &a,
                          const arch::ImbalanceHistogram &b)
{
    EXPECT_EQ(a.meanOverhead, b.meanOverhead);
    EXPECT_EQ(a.maxOverhead, b.maxOverhead);
    ASSERT_EQ(a.fraction.size(), b.fraction.size());
    for (size_t i = 0; i < a.fraction.size(); ++i)
        EXPECT_EQ(a.fraction[i], b.fraction[i]) << i;
}

TEST(ThreadSweep, TracePipelineBitwiseIdenticalAcrossThreadCounts)
{
    // The whole measured pipeline — training on the CSB executors,
    // telemetry aggregation, measured MAC tallies, byte counts, and
    // the mask-replayed imbalance histograms — must be bitwise
    // invariant to the thread-pool size.
    GlobalPoolGuard guard;
    ThreadPool::resetGlobal(1);
    const PipelineResult ref = runTracePipeline();
    ASSERT_EQ(ref.trace.epochCount(), 2u);

    for (int threads : {2, 3, 8}) {
        ThreadPool::resetGlobal(threads);
        ASSERT_EQ(ThreadPool::global().numThreads(), threads);
        const PipelineResult got = runTracePipeline();
        ASSERT_EQ(got.trace.epochCount(), ref.trace.epochCount());
        for (size_t e = 0; e < ref.trace.epochCount(); ++e) {
            const arch::EpochTrace &re = ref.trace.epoch(e);
            const arch::EpochTrace &ge = got.trace.epoch(e);
            EXPECT_EQ(ge.steps, re.steps) << threads;
            EXPECT_EQ(ge.meanLoss, re.meanLoss) << threads;
            ASSERT_EQ(ge.layers.size(), re.layers.size());
            for (size_t i = 0; i < re.layers.size(); ++i) {
                const arch::LayerTrace &rl = re.layers[i];
                const arch::LayerTrace &gl = ge.layers[i];
                EXPECT_EQ(gl.fwMacs, rl.fwMacs) << threads;
                EXPECT_EQ(gl.bwDataMacs, rl.bwDataMacs) << threads;
                EXPECT_EQ(gl.bwWeightMacs, rl.bwWeightMacs) << threads;
                EXPECT_EQ(gl.csbWeightBytes, rl.csbWeightBytes)
                    << threads;
                EXPECT_EQ(gl.denseWeightBytes, rl.denseWeightBytes);
                EXPECT_EQ(gl.mask.bits, rl.mask.bits) << threads;
                EXPECT_EQ(gl.iacts.mean, rl.iacts.mean) << threads;
                EXPECT_EQ(gl.iacts.perSample, rl.iacts.perSample);
                EXPECT_EQ(gl.iacts.perSampleHalf,
                          rl.iacts.perSampleHalf);
                EXPECT_EQ(gl.iacts.perChannel, rl.iacts.perChannel);
                EXPECT_EQ(gl.iacts.perRow, rl.iacts.perRow);
                EXPECT_EQ(gl.iacts.perCol, rl.iacts.perCol);
            }
            expectHistogramsIdentical(got.imbalance[e].balanced,
                                      ref.imbalance[e].balanced);
            expectHistogramsIdentical(got.imbalance[e].unbalanced,
                                      ref.imbalance[e].unbalanced);
        }
    }
}

void
expectPhaseCostsIdentical(const arch::PhaseCost &a, const arch::PhaseCost &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.dramCycles, b.dramCycles);
    EXPECT_EQ(a.interconnectCycles, b.interconnectCycles);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.macEnergyJ, b.macEnergyJ);
    EXPECT_EQ(a.rfEnergyJ, b.rfEnergyJ);
    EXPECT_EQ(a.glbEnergyJ, b.glbEnergyJ);
    EXPECT_EQ(a.dramEnergyJ, b.dramEnergyJ);
}

TEST(ThreadSweep, ConcurrentEvaluateTraceMatchesSerial)
{
    // A design-space sweep evaluates both machines on every epoch of
    // one shared trace from pool tasks. Those evaluations read the
    // trace concurrently: they must not race (ThreadSanitizer runs
    // this suite) and must equal serial calls bit for bit.
    const PipelineResult p = runTracePipeline();
    const arch::Accelerator machines[] = {
        arch::Accelerator::procrustes(),
        arch::Accelerator::denseBaseline()};
    const auto n = static_cast<int64_t>(p.trace.epochCount() * 2);
    std::vector<arch::NetworkCost> serial, pooled(static_cast<size_t>(n));
    std::vector<arch::EpochImbalance> serial_imb,
        pooled_imb(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
        arch::EpochImbalance imb;
        serial.push_back(machines[i % 2].evaluateTrace(
            p.trace, static_cast<size_t>(i / 2), &imb));
        serial_imb.push_back(imb);
    }
    ThreadPool::global().parallelFor(0, n, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            const auto at = static_cast<size_t>(i);
            pooled[at] = machines[i % 2].evaluateTrace(
                p.trace, static_cast<size_t>(i / 2), &pooled_imb[at]);
        }
    });
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(i);
        expectPhaseCostsIdentical(pooled[i].fw, serial[i].fw);
        expectPhaseCostsIdentical(pooled[i].bw, serial[i].bw);
        expectPhaseCostsIdentical(pooled[i].wu, serial[i].wu);
        expectHistogramsIdentical(pooled_imb[i].balanced,
                                  serial_imb[i].balanced);
        expectHistogramsIdentical(pooled_imb[i].unbalanced,
                                  serial_imb[i].unbalanced);
    }
}

TEST(BackendParity, GemmAndSparseTrainIdenticallyUnderDenseMask)
{
    // With every weight non-zero (an all-ones mask) the CSB executors
    // walk the full operation space, so the two backends compute the
    // same mathematical result; training trajectories must agree to
    // float tolerance step for step.
    auto run = [](kernels::KernelBackend backend) {
        nn::Network net;
        buildNet(net, backend, 17);
        auto splits = blobSplits();
        nn::TrainConfig tc;
        tc.epochs = 2;
        tc.batchSize = 8;
        nn::Sgd opt(0.05f);
        std::vector<double> losses;
        trainNetwork(net, opt, splits.first, splits.second, tc,
                     [&losses](const nn::StepTelemetry &t) {
                         losses.push_back(t.batchLoss);
                     });
        return losses;
    };
    const auto gemm_losses = run(kernels::KernelBackend::kGemm);
    const auto sparse_losses = run(kernels::KernelBackend::kSparse);
    ASSERT_EQ(gemm_losses.size(), sparse_losses.size());
    ASSERT_FALSE(gemm_losses.empty());
    for (size_t i = 0; i < gemm_losses.size(); ++i) {
        EXPECT_NEAR(gemm_losses[i], sparse_losses[i],
                    1e-3 * (1.0 + std::fabs(gemm_losses[i])))
            << "step " << i;
    }
}

} // namespace
} // namespace procrustes
