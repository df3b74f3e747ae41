/**
 * @file
 * End-to-end training tests for the mini framework on synthetic tasks.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/data.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "nn/trainer.h"

namespace procrustes {
namespace nn {
namespace {

/** Small MLP for the spiral task. */
void
buildSpiralMlp(Network &net, uint64_t seed)
{
    net.add<Flatten>("fl");
    net.add<Linear>(2, 48, "fc1");
    net.add<ReLU>("r1");
    net.add<Linear>(48, 48, "fc2");
    net.add<ReLU>("r2");
    net.add<Linear>(48, 3, "fc3");
    Xorshift128Plus rng(seed);
    kaimingInit(net, rng);
}

/** Small CNN for the blob-image task. */
void
buildBlobCnn(Network &net, int classes, uint64_t seed)
{
    Conv2dConfig c1;
    c1.inChannels = 3;
    c1.outChannels = 8;
    c1.kernel = 3;
    c1.pad = 1;
    c1.bias = false;
    net.add<Conv2d>(c1, "conv1");
    net.add<BatchNorm2d>(8, "bn1");
    net.add<ReLU>("r1");
    net.add<MaxPool2d>(2, "pool1");
    Conv2dConfig c2;
    c2.inChannels = 8;
    c2.outChannels = 16;
    c2.kernel = 3;
    c2.pad = 1;
    c2.bias = false;
    net.add<Conv2d>(c2, "conv2");
    net.add<BatchNorm2d>(16, "bn2");
    net.add<ReLU>("r2");
    net.add<GlobalAvgPool>("gap");
    net.add<Linear>(16, classes, "fc");
    Xorshift128Plus rng(seed);
    kaimingInit(net, rng);
}

TEST(Datasets, BlobImagesAreBalancedAndDeterministic)
{
    BlobImageConfig cfg;
    cfg.numClasses = 4;
    cfg.samplesPerClass = 10;
    const Dataset a = makeBlobImages(cfg);
    const Dataset b = makeBlobImages(cfg);
    EXPECT_EQ(a.size(), 40);
    EXPECT_EQ(a.numClasses, 4);
    EXPECT_FLOAT_EQ(maxAbsDiff(a.images, b.images), 0.0f);
    int counts[4] = {0, 0, 0, 0};
    for (int label : a.labels)
        ++counts[label];
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(counts[c], 10);
}

TEST(Datasets, SpiralsCoverAllClasses)
{
    SpiralConfig cfg;
    const Dataset d = makeSpirals(cfg);
    EXPECT_EQ(d.size(), 600);
    EXPECT_EQ(d.images.shape(), Shape({600, 2, 1, 1}));
}

TEST(Datasets, BatchExtraction)
{
    BlobImageConfig cfg;
    cfg.numClasses = 2;
    cfg.samplesPerClass = 3;
    const Dataset d = makeBlobImages(cfg);
    const Tensor b = d.batch({0, 5});
    EXPECT_EQ(b.shape()[0], 2);
    const auto labels = d.batchLabels({0, 5});
    EXPECT_EQ(labels[0], 0);
    EXPECT_EQ(labels[1], 1);
}

TEST(Datasets, EpochOrderIsPermutation)
{
    const auto order = epochOrder(100, 1, 0);
    std::vector<bool> seen(100, false);
    for (int64_t i : order) {
        ASSERT_GE(i, 0);
        ASSERT_LT(i, 100);
        EXPECT_FALSE(seen[static_cast<size_t>(i)]);
        seen[static_cast<size_t>(i)] = true;
    }
    // Different epochs shuffle differently.
    EXPECT_NE(order, epochOrder(100, 1, 1));
}

TEST(Training, MlpLearnsSpirals)
{
    SpiralConfig data_cfg;
    data_cfg.samplesPerClass = 120;
    const Dataset train = makeSpirals(data_cfg);
    data_cfg.seed = 99;
    const Dataset val = makeSpirals(data_cfg);

    Network net;
    buildSpiralMlp(net, 1);
    Sgd opt(0.1f, 0.9f);
    TrainConfig tc;
    tc.epochs = 30;
    tc.batchSize = 32;
    const auto history = trainNetwork(net, opt, train, val, tc);

    EXPECT_GT(history.back().valAccuracy, 0.85)
        << "MLP failed to learn the spiral task";
    // Loss should broadly decrease.
    EXPECT_LT(history.back().trainLoss, history.front().trainLoss);
}

TEST(Training, CnnLearnsBlobImages)
{
    BlobImageConfig data_cfg;
    data_cfg.numClasses = 6;
    data_cfg.samplesPerClass = 40;
    const Dataset train = makeBlobImages(data_cfg);
    data_cfg.sampleSeed = 77;
    const Dataset val = makeBlobImages(data_cfg);

    Network net;
    buildBlobCnn(net, 6, 2);
    Sgd opt(0.05f, 0.9f);
    TrainConfig tc;
    tc.epochs = 8;
    tc.batchSize = 16;
    const auto history = trainNetwork(net, opt, train, val, tc);
    EXPECT_GT(history.back().valAccuracy, 0.9)
        << "CNN failed to learn the blob-image task";
}

TEST(Training, DeterministicGivenSeeds)
{
    SpiralConfig data_cfg;
    data_cfg.samplesPerClass = 40;
    const Dataset train = makeSpirals(data_cfg);

    auto run = [&] {
        Network net;
        buildSpiralMlp(net, 5);
        Sgd opt(0.05f);
        TrainConfig tc;
        tc.epochs = 3;
        tc.batchSize = 16;
        return trainNetwork(net, opt, train, train, tc).back().trainLoss;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(TrainingDeath, NonPositiveBatchSizeOrEmptySetIsRejected)
{
    SpiralConfig data_cfg;
    data_cfg.samplesPerClass = 4;
    const Dataset train = makeSpirals(data_cfg);
    Network net;
    buildSpiralMlp(net, 5);
    Sgd opt(0.05f);
    TrainConfig tc;
    tc.epochs = 1;
    for (const int64_t batch : {int64_t{0}, int64_t{-1}}) {
        tc.batchSize = batch;
        EXPECT_DEATH(trainNetwork(net, opt, train, train, tc),
                     "batch size must be positive")
            << "batch size " << batch;
    }
    Dataset empty = train;
    empty.images = Tensor(Shape{0, 2});
    empty.labels.clear();
    tc.batchSize = 16;
    EXPECT_DEATH(trainNetwork(net, opt, empty, train, tc),
                 "empty training set");
}

TEST(Training, SparsityReportedForDenseNetIsZero)
{
    Network net;
    buildSpiralMlp(net, 6);
    // Kaiming-initialized dense weights have no exact zeros.
    EXPECT_LT(weightSparsity(net), 1e-3);
}

} // namespace
} // namespace nn
} // namespace procrustes
