/**
 * @file
 * Cross-module integration: train with the full Procrustes scheme,
 * extract the resulting masks, and drive the accelerator model with
 * them — the complete pipeline of the paper in one test binary.
 */

#include <gtest/gtest.h>

#include <utility>

#include "arch/accelerator.h"
#include "common/rng.h"
#include "nn/activations.h"
#include "nn/data.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "nn/trainer.h"
#include "sparse/csb.h"
#include "sparse/dropback.h"
#include "sparse/mask.h"

namespace procrustes {
namespace {

/** Train an MLP with the full Procrustes scheme (decay + QE). */
struct TrainedSparseNet
{
    nn::Network net;
    double valAccuracy = 0.0;
    double sparsity = 0.0;
};

TrainedSparseNet &
trainedNet()
{
    static TrainedSparseNet t = [] {
        TrainedSparseNet out;
        out.net.add<nn::Flatten>("fl");
        out.net.add<nn::Linear>(2, 128, "fc1");
        out.net.add<nn::ReLU>("r1");
        out.net.add<nn::Linear>(128, 128, "fc2");
        out.net.add<nn::ReLU>("r2");
        out.net.add<nn::Linear>(128, 3, "fc3");
        Xorshift128Plus rng(21);
        nn::kaimingInit(out.net, rng);

        nn::SpiralConfig dc;
        dc.samplesPerClass = 100;
        const nn::Dataset train = nn::makeSpirals(dc);
        dc.seed = 91;
        const nn::Dataset val = nn::makeSpirals(dc);

        sparse::DropbackConfig cfg;
        cfg.sparsity = 4.0;
        cfg.lr = 0.15f;
        cfg.initDecay = 0.95f;
        cfg.decayHorizon = 200;
        cfg.selection = sparse::SelectionMode::QuantileEstimate;
        sparse::DropbackOptimizer opt(cfg);

        nn::TrainConfig tc;
        tc.epochs = 50;
        tc.batchSize = 32;
        const auto hist = trainNetwork(out.net, opt, train, val, tc);
        out.valAccuracy = hist.back().valAccuracy;
        out.sparsity = hist.back().weightSparsity;
        return out;
    }();
    return t;
}

TEST(Integration, ProcrustesSchemeLearnsWithRealSparsity)
{
    TrainedSparseNet &t = trainedNet();
    EXPECT_GT(t.valAccuracy, 0.80);
    // Decay horizon passed: real computation sparsity exists.
    EXPECT_GT(t.sparsity, 0.4);
}

TEST(Integration, TrainedMasksDriveTheAcceleratorModel)
{
    TrainedSparseNet &t = trainedNet();

    // Extract masks from the trained fc weights and build a matching
    // fc-layer network model.
    arch::NetworkModel model;
    model.name = "spiral-mlp";
    std::vector<sparse::SparsityMask> masks;
    for (nn::Param *p : t.net.params()) {
        if (!p->prunable)
            continue;
        const Shape &s = p->value.shape();
        model.layers.push_back(
            arch::fcLayer(p->name, s[1], s[0]));
        model.iactDensity.push_back(0.5);
        masks.push_back(sparse::SparsityMask::fromTensor(p->value));
    }
    ASSERT_EQ(model.layers.size(), 3u);

    const arch::EpochTrace epoch =
        arch::syntheticEpoch(model, std::move(masks), 16);
    const auto sparse_cost =
        arch::Accelerator::procrustes().evaluateTrace(epoch);
    const auto dense_cost =
        arch::Accelerator::denseBaseline().evaluateTrace(epoch);

    // Real trained masks must translate into energy savings.
    EXPECT_LT(sparse_cost.totalEnergyJ(), dense_cost.totalEnergyJ());
    EXPECT_GT(sparse_cost.totalCycles(), 0.0);
}

TEST(Integration, TrainedWeightsSurviveCsbRoundTrip)
{
    TrainedSparseNet &t = trainedNet();
    for (nn::Param *p : t.net.params()) {
        if (!p->prunable)
            continue;
        const sparse::CsbTensor csb =
            sparse::CsbTensor::encodeMatrix(p->value, 8);
        EXPECT_FLOAT_EQ(maxAbsDiff(csb.decode(), p->value), 0.0f)
            << p->name;
        // Transposed view (backward pass) preserves every value.
        const Tensor wt = csb.decodeTransposed();
        const Shape &s = p->value.shape();
        for (int64_t i = 0; i < s[0]; i += 7) {
            for (int64_t j = 0; j < s[1]; j += 5)
                EXPECT_EQ(wt(j, i), p->value(i, j)) << p->name;
        }
        // Compression must beat dense storage once sparsity is real.
        if (csb.density() < 0.5) {
            EXPECT_LT(csb.totalBytes(),
                      sparse::CsbTensor::denseBytes(s));
        }
    }
}

TEST(Integration, DenseVsSparseAccuracyParity)
{
    // The end-to-end claim of Figures 6/7/15 on our substitute task:
    // dense SGD and the full Procrustes scheme reach comparable
    // accuracy from the same initialization.
    nn::SpiralConfig dc;
    dc.samplesPerClass = 100;
    const nn::Dataset train = nn::makeSpirals(dc);
    dc.seed = 91;
    const nn::Dataset val = nn::makeSpirals(dc);

    auto build = [](nn::Network &net) {
        net.add<nn::Flatten>("fl");
        net.add<nn::Linear>(2, 128, "fc1");
        net.add<nn::ReLU>("r1");
        net.add<nn::Linear>(128, 128, "fc2");
        net.add<nn::ReLU>("r2");
        net.add<nn::Linear>(128, 3, "fc3");
        Xorshift128Plus rng(33);
        nn::kaimingInit(net, rng);
    };
    nn::TrainConfig tc;
    tc.epochs = 50;
    tc.batchSize = 32;

    nn::Network dense;
    build(dense);
    nn::Sgd sgd(0.15f);
    const double dense_acc =
        trainNetwork(dense, sgd, train, val, tc).back().valAccuracy;

    nn::Network sparse_net;
    build(sparse_net);
    sparse::DropbackConfig cfg;
    cfg.sparsity = 3.0;
    cfg.lr = 0.15f;
    cfg.initDecay = 0.95f;
    cfg.decayHorizon = 200;
    cfg.selection = sparse::SelectionMode::QuantileEstimate;
    sparse::DropbackOptimizer opt(cfg);
    const double sparse_acc =
        trainNetwork(sparse_net, opt, train, val, tc)
            .back()
            .valAccuracy;

    EXPECT_GT(sparse_acc, dense_acc - 0.12);
}

} // namespace
} // namespace procrustes
