#include "arch/model_zoo.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/rng.h"

namespace procrustes {
namespace arch {

namespace {

/**
 * Deterministic mean activation density for a hidden layer: batch-norm
 * + ReLU stacks empirically leave 40%-60% non-zeros; the exact value
 * per layer is irrelevant, the variation keeps the wu-phase model
 * honest.
 */
double
hiddenIactDensity(uint64_t seed, size_t layer_index)
{
    const uint64_t h = splitmix64(seed ^ (layer_index * 0x9e3779b9ULL));
    const double u =
        static_cast<double>(h >> 40) / static_cast<double>(1 << 24);
    return 0.40 + 0.20 * u;
}

/**
 * Deterministic standard-normal-ish value in [-4, 4] from a hash: the
 * sum of four uniform draws (CLT), cheap and reproducible.
 */
double
jitter(uint64_t seed, uint64_t a, uint64_t b)
{
    const uint64_t h = splitmix64(seed ^ splitmix64(a * 0x9e37 + b));
    double acc = 0.0;
    for (int i = 0; i < 4; ++i) {
        const auto bits =
            static_cast<uint32_t>(h >> (i * 16)) & 0xffffu;
        acc += static_cast<double>(bits) / 65535.0 - 0.5;
    }
    return acc * 2.0;   // std ~= 0.58
}

/** `n` densities jittered around `mean`, index i drawn with salt
    `salt`, each clamped to [0.02, 1]. */
std::vector<double>
jitteredVector(int64_t n, double mean, double sigma, uint64_t seed,
               uint64_t salt)
{
    std::vector<double> v(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
        v[static_cast<size_t>(i)] = clampd(
            mean * (1.0 + sigma * jitter(seed, static_cast<uint64_t>(i),
                                         salt)),
            0.02, 1.0);
    }
    return v;
}

/** Append a layer and its input-activation density. */
void
push(NetworkModel &m, const LayerShape &l, double iact_density)
{
    m.layers.push_back(l);
    m.iactDensity.push_back(iact_density);
}

/** Append with the deterministic hidden-layer density. */
void
pushHidden(NetworkModel &m, const LayerShape &l)
{
    push(m, l, hiddenIactDensity(0xac7, m.layers.size()));
}

} // namespace

int64_t
NetworkModel::denseWeights() const
{
    int64_t total = 0;
    for (const LayerShape &l : layers)
        total += l.weightCount();
    return total;
}

int64_t
NetworkModel::denseMacsPerSample() const
{
    int64_t total = 0;
    for (const LayerShape &l : layers)
        total += l.macsPerSample();
    return total;
}

NetworkModel
buildVggS()
{
    NetworkModel m;
    m.name = "VGG-S";
    m.dataset = "CIFAR-10";
    m.paperSparsity = 5.2;
    m.paperEpochs = 236;
    m.paperDenseAccuracy = 0.930;
    m.paperPrunedAccuracy = 0.931;

    push(m, convLayer("conv1_1", 3, 64, 3, 32), 1.0);
    pushHidden(m, convLayer("conv1_2", 64, 64, 3, 32));
    pushHidden(m, convLayer("conv2_1", 64, 128, 3, 16));
    pushHidden(m, convLayer("conv2_2", 128, 128, 3, 16));
    pushHidden(m, convLayer("conv3_1", 128, 256, 3, 8));
    pushHidden(m, convLayer("conv3_2", 256, 256, 3, 8));
    pushHidden(m, convLayer("conv3_3", 256, 256, 3, 8));
    pushHidden(m, convLayer("conv4_1", 256, 512, 3, 4));
    pushHidden(m, convLayer("conv4_2", 512, 512, 3, 4));
    pushHidden(m, convLayer("conv4_3", 512, 512, 3, 4));
    pushHidden(m, convLayer("conv5_1", 512, 512, 3, 2));
    pushHidden(m, convLayer("conv5_2", 512, 512, 3, 2));
    pushHidden(m, convLayer("conv5_3", 512, 512, 3, 2));
    pushHidden(m, fcLayer("fc1", 512, 512));
    pushHidden(m, fcLayer("fc2", 512, 10));
    return m;
}

NetworkModel
buildWrn2810()
{
    NetworkModel m;
    m.name = "WRN-28-10";
    m.dataset = "CIFAR-10";
    m.paperSparsity = 4.3;
    m.paperEpochs = 462;
    m.paperDenseAccuracy = 0.960;
    m.paperPrunedAccuracy = 0.961;

    push(m, convLayer("conv1", 3, 16, 3, 32), 1.0);
    const int64_t widths[3] = {160, 320, 640};
    const int64_t sizes[3] = {32, 16, 8};
    int64_t in_ch = 16;
    for (int g = 0; g < 3; ++g) {
        const int64_t w = widths[g];
        const int64_t hw = sizes[g];
        for (int b = 0; b < 4; ++b) {
            const std::string base =
                "g" + std::to_string(g + 1) + "b" + std::to_string(b + 1);
            const int64_t stride = (g > 0 && b == 0) ? 2 : 1;
            const int64_t in_hw = (g > 0 && b == 0) ? hw * 2 : hw;
            pushHidden(m, convLayer(base + "_conv1", in_ch, w, 3, in_hw,
                                    stride));
            pushHidden(m, convLayer(base + "_conv2", w, w, 3, hw));
            if (b == 0) {
                pushHidden(m, convLayer(base + "_sc", in_ch, w, 1, in_hw,
                                        stride, 0));
            }
            in_ch = w;
        }
    }
    pushHidden(m, fcLayer("fc", 640, 10));
    return m;
}

NetworkModel
buildDenseNetS()
{
    NetworkModel m;
    m.name = "DenseNet";
    m.dataset = "CIFAR-10";
    m.paperSparsity = 3.9;
    m.paperEpochs = 340;
    m.paperDenseAccuracy = 0.942;
    m.paperPrunedAccuracy = 0.937;

    constexpr int64_t growth = 24;
    push(m, convLayer("conv0", 3, growth, 3, 32), 1.0);
    int64_t channels = growth;
    const int64_t sizes[3] = {32, 16, 8};
    for (int blk = 0; blk < 3; ++blk) {
        for (int l = 0; l < 10; ++l) {
            pushHidden(m, convLayer("b" + std::to_string(blk + 1) +
                                        "_l" + std::to_string(l + 1),
                                    channels, growth, 3, sizes[blk]));
            channels += growth;
        }
        if (blk < 2) {
            pushHidden(m, convLayer("trans" + std::to_string(blk + 1),
                                    channels, channels, 1, sizes[blk],
                                    1, 0));
        }
    }
    pushHidden(m, fcLayer("fc", channels, 10));
    return m;
}

NetworkModel
buildResNet18()
{
    NetworkModel m;
    m.name = "ResNet18";
    m.dataset = "ImageNet";
    m.paperSparsity = 11.7;
    m.paperEpochs = 81;
    m.paperDenseAccuracy = 0.6917;
    m.paperPrunedAccuracy = 0.6931;

    push(m, convLayer("conv1", 3, 64, 7, 224, 2, 3), 1.0);
    const int64_t widths[4] = {64, 128, 256, 512};
    const int64_t sizes[4] = {56, 28, 14, 7};
    int64_t in_ch = 64;
    for (int g = 0; g < 4; ++g) {
        const int64_t w = widths[g];
        const int64_t hw = sizes[g];
        for (int b = 0; b < 2; ++b) {
            const std::string base =
                "g" + std::to_string(g + 1) + "b" + std::to_string(b + 1);
            const int64_t stride = (g > 0 && b == 0) ? 2 : 1;
            const int64_t in_hw = (g > 0 && b == 0) ? hw * 2 : hw;
            pushHidden(m, convLayer(base + "_conv1", in_ch, w, 3, in_hw,
                                    stride));
            pushHidden(m, convLayer(base + "_conv2", w, w, 3, hw));
            if (g > 0 && b == 0) {
                pushHidden(m, convLayer(base + "_sc", in_ch, w, 1, in_hw,
                                        stride, 0));
            }
            in_ch = w;
        }
    }
    pushHidden(m, fcLayer("fc", 512, 1000));
    return m;
}

NetworkModel
buildMobileNetV2()
{
    NetworkModel m;
    m.name = "MobileNetV2";
    m.dataset = "ImageNet";
    m.paperSparsity = 10.0;
    m.paperEpochs = 131;
    m.paperDenseAccuracy = 0.7098;
    m.paperPrunedAccuracy = 0.7113;

    push(m, convLayer("conv0", 3, 32, 3, 224, 2), 1.0);

    // Inverted-residual settings (expansion t, channels c, repeats n,
    // stride s) from the MobileNet v2 paper.
    struct Block { int64_t t, c, n, s; };
    const Block blocks[] = {
        {1, 16, 1, 1}, {6, 24, 2, 2}, {6, 32, 3, 2}, {6, 64, 4, 2},
        {6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1},
    };
    int64_t in_ch = 32;
    int64_t hw = 112;
    int bi = 0;
    for (const Block &blk : blocks) {
        for (int64_t r = 0; r < blk.n; ++r) {
            const std::string base = "ir" + std::to_string(++bi);
            const int64_t stride = r == 0 ? blk.s : 1;
            const int64_t expanded = in_ch * blk.t;
            if (blk.t != 1) {
                pushHidden(m, convLayer(base + "_exp", in_ch, expanded,
                                        1, hw, 1, 0));
            }
            const int64_t out_hw = stride == 2 ? hw / 2 : hw;
            pushHidden(m, depthwiseLayer(base + "_dw", expanded, 3, hw,
                                         stride));
            pushHidden(m, convLayer(base + "_proj", expanded, blk.c, 1,
                                    out_hw, 1, 0));
            in_ch = blk.c;
            hw = out_hw;
        }
    }
    pushHidden(m, convLayer("conv_last", 320, 1280, 1, 7, 1, 0));
    pushHidden(m, fcLayer("fc", 1280, 1000));
    return m;
}

std::vector<NetworkModel>
allModels()
{
    return {buildDenseNetS(), buildWrn2810(), buildVggS(),
            buildMobileNetV2(), buildResNet18()};
}

std::vector<sparse::SparsityMask>
generateMasks(const NetworkModel &model, double sparsity, uint64_t seed,
              double kernel_sigma)
{
    PROCRUSTES_ASSERT(sparsity > 1.0, "sparsity factor must exceed 1x");
    const double global_density = 1.0 / sparsity;

    // Layer-level variation: lognormal factors renormalized so the
    // weight-weighted mean density lands exactly on 1/sparsity.
    Xorshift128Plus rng(seed);
    std::vector<double> factor(model.layers.size());
    double weighted = 0.0;
    int64_t total_weights = 0;
    for (size_t i = 0; i < model.layers.size(); ++i) {
        factor[i] = std::exp(0.4 * rng.nextGaussian());
        const int64_t wc = model.layers[i].weightCount();
        weighted += factor[i] * static_cast<double>(wc);
        total_weights += wc;
    }
    const double scale =
        global_density * static_cast<double>(total_weights) / weighted;

    std::vector<sparse::SparsityMask> masks;
    masks.reserve(model.layers.size());
    for (size_t i = 0; i < model.layers.size(); ++i) {
        const LayerShape &l = model.layers[i];
        sparse::SyntheticMaskConfig cfg;
        cfg.targetDensity = clampd(factor[i] * scale, 0.02, 1.0);
        cfg.kernelSigma = kernel_sigma;
        cfg.seed = splitmix64(seed ^ (i * 0x51ed2701ULL));
        masks.push_back(sparse::makeSyntheticMask(
            l.K, l.effectiveC(), l.R, l.S, cfg));
    }
    return masks;
}

LayerTrace
syntheticLayer(const LayerShape &shape, sparse::SparsityMask mask,
               double iact_density, int64_t batch, double iact_sigma,
               uint64_t seed)
{
    PROCRUSTES_ASSERT(iact_density > 0.0 && iact_density <= 1.0,
                      "iact density out of range");
    LayerTrace l;
    l.name = shape.name;
    l.shape = shape;
    l.mask = std::move(mask);
    MeasuredIactStats &a = l.iacts;
    a.mean = iact_density;
    a.perSample = jitteredVector(batch, iact_density, iact_sigma, seed, 1);
    a.perSampleHalf.resize(static_cast<size_t>(batch) * 2);
    for (int64_t n = 0; n < batch; ++n) {
        const double base = a.perSample[static_cast<size_t>(n)] / 2.0;
        for (int h = 0; h < 2; ++h) {
            a.perSampleHalf[static_cast<size_t>(n * 2 + h)] = clampd(
                base * (1.0 + iact_sigma *
                                  jitter(seed, static_cast<uint64_t>(n),
                                         2 + static_cast<uint64_t>(h))),
                0.01, 0.5);
        }
    }
    a.perChannel = jitteredVector(shape.C, iact_density, iact_sigma, seed, 11);
    if (shape.type != LayerType::FullyConnected) {
        a.perRow =
            jitteredVector(shape.inH(), iact_density, iact_sigma, seed, 17);
        a.perCol =
            jitteredVector(shape.inW(), iact_density, iact_sigma, seed, 19);
    }
    return l;
}

EpochTrace
syntheticEpoch(const NetworkModel &model,
               std::vector<sparse::SparsityMask> masks, int64_t batch,
               double iact_sigma)
{
    PROCRUSTES_ASSERT(masks.size() == model.layers.size(),
                      "mask count mismatch");
    PROCRUSTES_ASSERT(batch > 0, "batch must be positive");
    EpochTrace e;
    e.batchSize = batch;
    e.layers.reserve(masks.size());
    for (size_t i = 0; i < masks.size(); ++i) {
        e.layers.push_back(syntheticLayer(
            model.layers[i], std::move(masks[i]), model.iactDensity[i],
            batch, iact_sigma, splitmix64(0xbeef ^ i)));
    }
    return e;
}

} // namespace arch
} // namespace procrustes
