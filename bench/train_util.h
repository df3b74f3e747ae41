/**
 * @file
 * Shared training harness for the accuracy-curve benches
 * (Figures 6, 7, 15, 16).
 *
 * The paper's accuracy experiments run CIFAR-10 / ImageNet for
 * hundreds of epochs; these benches substitute synthetic tasks that a
 * small network learns in under a minute while exercising the exact
 * same optimizer code paths (see DESIGN.md §4). Decay rates are scaled
 * to the shorter iteration budget (the paper's lambda = 0.9 zeroes
 * initial weights by iteration 1000 of ~234k; here training is a few
 * hundred iterations long in total).
 */

#ifndef PROCRUSTES_BENCH_TRAIN_UTIL_H_
#define PROCRUSTES_BENCH_TRAIN_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/data.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "nn/trainer.h"
#include "sparse/dropback.h"

namespace procrustes {
namespace bench {

/** The spiral-task MLP (over-parameterized for the task). */
inline void
buildMlp(nn::Network &net, uint64_t seed, int64_t hidden = 128)
{
    net.add<nn::Flatten>("fl");
    net.add<nn::Linear>(2, hidden, "fc1");
    net.add<nn::ReLU>("r1");
    net.add<nn::Linear>(hidden, hidden, "fc2");
    net.add<nn::ReLU>("r2");
    net.add<nn::Linear>(hidden, 3, "fc3");
    Xorshift128Plus rng(seed);
    nn::kaimingInit(net, rng);
}

/** The blob-image CNN (conv + batch-norm + ReLU stack). */
inline void
buildCnn(nn::Network &net, int classes, uint64_t seed,
         int64_t width = 12)
{
    nn::Conv2dConfig c1;
    c1.inChannels = 3;
    c1.outChannels = width;
    c1.kernel = 3;
    c1.pad = 1;
    c1.bias = false;
    net.add<nn::Conv2d>(c1, "conv1");
    net.add<nn::BatchNorm2d>(width, "bn1");
    net.add<nn::ReLU>("r1");
    net.add<nn::MaxPool2d>(2, "pool1");
    nn::Conv2dConfig c2;
    c2.inChannels = width;
    c2.outChannels = width * 2;
    c2.kernel = 3;
    c2.pad = 1;
    c2.bias = false;
    net.add<nn::Conv2d>(c2, "conv2");
    net.add<nn::BatchNorm2d>(width * 2, "bn2");
    net.add<nn::ReLU>("r2");
    net.add<nn::GlobalAvgPool>("gap");
    net.add<nn::Linear>(width * 2, classes, "fc");
    Xorshift128Plus rng(seed);
    nn::kaimingInit(net, rng);
}

/** Switch every Conv2d AND Linear to the CSB sparse backend, so fc
 *  layers contribute measured (not modelled) MACs to a trace. */
inline void
useSparseBackend(nn::Network &net)
{
    for (size_t i = 0; i < net.size(); ++i) {
        if (auto *wl = dynamic_cast<nn::WeightLayer *>(net.layer(i)))
            wl->setBackend(kernels::KernelBackend::kSparse);
    }
}

/** Spiral train/val pair. */
inline std::pair<nn::Dataset, nn::Dataset>
spiralSplits()
{
    nn::SpiralConfig cfg;
    cfg.samplesPerClass = 100;
    const nn::Dataset train = nn::makeSpirals(cfg);
    cfg.seed = 91;
    const nn::Dataset val = nn::makeSpirals(cfg);
    return {train, val};
}

/** Blob-image train/val pair (same templates, fresh noise). */
inline std::pair<nn::Dataset, nn::Dataset>
blobSplits(int classes = 6)
{
    nn::BlobImageConfig cfg;
    cfg.numClasses = classes;
    cfg.samplesPerClass = 40;
    const nn::Dataset train = nn::makeBlobImages(cfg);
    cfg.sampleSeed = 77;
    const nn::Dataset val = nn::makeBlobImages(cfg);
    return {train, val};
}

/** Print an accuracy series as one row per sampled epoch. */
inline void
printCurve(const std::string &label,
           const std::vector<nn::EpochStats> &history, size_t stride)
{
    std::printf("%-28s", label.c_str());
    for (size_t i = 0; i < history.size(); i += stride)
        std::printf(" %5.3f", history[i].valAccuracy);
    std::printf("  | final %5.3f  sparsity %4.1f%%\n",
                history.back().valAccuracy,
                100.0 * history.back().weightSparsity);
}

} // namespace bench
} // namespace procrustes

#endif // PROCRUSTES_BENCH_TRAIN_UTIL_H_
