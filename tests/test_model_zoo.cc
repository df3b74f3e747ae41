/**
 * @file
 * Tests for layer geometry and the five-network model zoo (Table II).
 */

#include <gtest/gtest.h>

#include <vector>

#include "arch/model_zoo.h"
#include "arch/phase.h"

namespace procrustes {
namespace arch {
namespace {

TEST(LayerShape, ConvGeometry)
{
    const LayerShape l = convLayer("c", 64, 128, 3, 32);
    EXPECT_EQ(l.P, 32);   // same padding
    EXPECT_EQ(l.weightCount(), 128 * 64 * 9);
    EXPECT_EQ(l.macsPerSample(), 128 * 64 * 9 * 32 * 32);
    EXPECT_EQ(l.iactsPerSample(), 64 * 34 * 34);
    EXPECT_EQ(l.oactsPerSample(), 128 * 32 * 32);
}

TEST(LayerShape, StridedConvHalvesOutput)
{
    const LayerShape l = convLayer("c", 3, 64, 7, 224, 2, 3);
    EXPECT_EQ(l.P, 112);
}

TEST(LayerShape, DepthwiseCollapsesC)
{
    const LayerShape l = depthwiseLayer("dw", 96, 3, 14);
    EXPECT_EQ(l.effectiveC(), 1);
    EXPECT_EQ(l.weightCount(), 96 * 9);
    EXPECT_EQ(l.macsPerSample(), 96 * 9 * 14 * 14);
    EXPECT_EQ(dimExtent(l, Dim::C, 16), 1);
}

TEST(LayerShape, FcIsDegenerateConv)
{
    const LayerShape l = fcLayer("fc", 512, 1000);
    EXPECT_EQ(l.weightCount(), 512000);
    EXPECT_EQ(l.macsPerSample(), 512000);
    EXPECT_EQ(l.P, 1);
}

/**
 * Table II dense-size check: each network's weight count must land
 * within 15% of the paper's reported model size.
 */
struct ZooCase
{
    const char *name;
    double weightsM;   //!< Table II "dense size"
    double macsM;      //!< Table II "dense MACs"
};

class ModelZooSizes : public ::testing::TestWithParam<ZooCase>
{
  protected:
    static NetworkModel
    byName(const std::string &name)
    {
        for (NetworkModel &m : cached())
            if (m.name == name)
                return m;
        ADD_FAILURE() << "unknown model " << name;
        return {};
    }

    static std::vector<NetworkModel> &
    cached()
    {
        static std::vector<NetworkModel> models = allModels();
        return models;
    }
};

TEST_P(ModelZooSizes, WeightsMatchTable2)
{
    const ZooCase &zc = GetParam();
    const NetworkModel m = byName(zc.name);
    const double weights = static_cast<double>(m.denseWeights()) / 1e6;
    EXPECT_NEAR(weights, zc.weightsM, 0.15 * zc.weightsM)
        << zc.name << " dense size off Table II";
}

TEST_P(ModelZooSizes, MacsMatchTable2)
{
    const ZooCase &zc = GetParam();
    const NetworkModel m = byName(zc.name);
    const double macs =
        static_cast<double>(m.denseMacsPerSample()) / 1e6;
    // MAC counts depend on minor bookkeeping choices (shortcut convs,
    // transition layers); accept 40%.
    EXPECT_NEAR(macs, zc.macsM, 0.40 * zc.macsM)
        << zc.name << " dense MACs off Table II";
}

INSTANTIATE_TEST_SUITE_P(
    TableII, ModelZooSizes,
    ::testing::Values(ZooCase{"DenseNet", 2.7, 528.0},
                      ZooCase{"WRN-28-10", 36.0, 4000.0},
                      ZooCase{"VGG-S", 15.0, 269.0},
                      ZooCase{"MobileNetV2", 3.5, 301.0},
                      ZooCase{"ResNet18", 11.7, 1800.0}),
    [](const ::testing::TestParamInfo<ZooCase> &info) {
        std::string n = info.param.name;
        for (char &ch : n)
            if (ch == '-')
                ch = '_';
        return n;
    });

TEST(ModelZoo, AllModelsHaveConsistentMetadata)
{
    for (const NetworkModel &m : allModels()) {
        EXPECT_FALSE(m.layers.empty()) << m.name;
        EXPECT_EQ(m.layers.size(), m.iactDensity.size()) << m.name;
        EXPECT_GT(m.paperSparsity, 1.0) << m.name;
        EXPECT_DOUBLE_EQ(m.iactDensity[0], 1.0)
            << m.name << ": raw input must be dense";
        for (double d : m.iactDensity) {
            EXPECT_GT(d, 0.0) << m.name;
            EXPECT_LE(d, 1.0) << m.name;
        }
    }
}

TEST(ModelZoo, GeneratedMasksHitSparsityTarget)
{
    const NetworkModel m = buildVggS();
    const auto masks = generateMasks(m, 5.2, 1);
    ASSERT_EQ(masks.size(), m.layers.size());
    int64_t nnz = 0;
    int64_t total = 0;
    for (const auto &mask : masks) {
        nnz += mask.nnz();
        total += mask.numel();
    }
    const double density =
        static_cast<double>(nnz) / static_cast<double>(total);
    EXPECT_NEAR(density, 1.0 / 5.2, 0.03);
}

TEST(ModelZoo, MasksVaryAcrossLayers)
{
    const NetworkModel m = buildResNet18();
    const auto masks = generateMasks(m, 11.7, 2);
    double lo = 1.0;
    double hi = 0.0;
    for (const auto &mask : masks) {
        lo = std::min(lo, mask.density());
        hi = std::max(hi, mask.density());
    }
    // Layer-level lognormal variation: spread must exist.
    EXPECT_LT(lo, hi * 0.7);
}

TEST(ModelZoo, SyntheticEpochMatchesMasks)
{
    const NetworkModel m = buildDenseNetS();
    const auto masks = generateMasks(m, 3.9, 3);
    const EpochTrace epoch = syntheticEpoch(m, masks, 16);
    ASSERT_EQ(epoch.layers.size(), masks.size());
    EXPECT_EQ(epoch.batchSize, 16);
    for (size_t i = 0; i < masks.size(); ++i) {
        EXPECT_NEAR(epoch.layers[i].weightDensity(), masks[i].density(),
                    1e-12);
        EXPECT_EQ(epoch.layers[i].iacts.mean, m.iactDensity[i]);
    }
}

TEST(ModelZoo, SyntheticJitterIsDeterministicAndBounded)
{
    const LayerShape shape = convLayer("c", 4, 4, 3, 8);
    const auto layer = [&](double sigma) {
        return syntheticLayer(shape, sparse::SparsityMask::dense(4, 4, 3, 3),
                              0.5, 64, sigma);
    };
    const LayerTrace a = layer(0.15);
    const LayerTrace b = layer(0.15);
    ASSERT_EQ(a.iacts.perSample.size(), 64u);
    for (size_t n = 0; n < 64; ++n) {
        const double d = a.iacts.perSample[n];
        EXPECT_DOUBLE_EQ(d, b.iacts.perSample[n]);
        EXPECT_GE(d, 0.02);
        EXPECT_LE(d, 1.0);
        for (size_t h = 0; h < 2; ++h) {
            const double half = a.iacts.perSampleHalf[n * 2 + h];
            EXPECT_GE(half, 0.01);
            EXPECT_LE(half, 0.5);
        }
    }
    // Jitter must actually vary across samples.
    EXPECT_NE(a.iacts.perSample[0], a.iacts.perSample[1]);

    // Without jitter every sample sits at the layer mean.
    const LayerTrace flat = layer(0.0);
    EXPECT_DOUBLE_EQ(flat.iacts.perSample[0], flat.iacts.perSample[1]);
}

TEST(ModelZoo, SyntheticMarginalsStayNearTheMean)
{
    // The channel, row and column marginals jitter around the layer
    // mean; fc layers, like a recorded trace, have no spatial ones.
    const LayerTrace conv = syntheticLayer(
        convLayer("c", 8, 8, 3, 8), sparse::SparsityMask::dense(8, 8, 3, 3),
        0.5, 16, /*iact_sigma=*/0.2);
    ASSERT_EQ(conv.iacts.perChannel.size(), 8u);
    ASSERT_EQ(conv.iacts.perRow.size(),
              static_cast<size_t>(conv.shape.inH()));
    ASSERT_EQ(conv.iacts.perCol.size(),
              static_cast<size_t>(conv.shape.inW()));
    for (const std::vector<double> *v :
         {&conv.iacts.perChannel, &conv.iacts.perRow, &conv.iacts.perCol}) {
        double sum = 0.0;
        for (double d : *v)
            sum += d;
        EXPECT_NEAR(sum / static_cast<double>(v->size()), 0.5, 0.1);
    }
    const LayerTrace fc = syntheticLayer(
        fcLayer("fc", 8, 4), sparse::SparsityMask::dense(4, 8, 1, 1), 0.5, 16);
    EXPECT_TRUE(fc.iacts.perRow.empty());
    EXPECT_TRUE(fc.iacts.perCol.empty());
}

TEST(ModelZoo, MobileNetHasDepthwiseLayers)
{
    const NetworkModel m = buildMobileNetV2();
    int depthwise = 0;
    for (const LayerShape &l : m.layers) {
        if (l.type == LayerType::DepthwiseConv)
            ++depthwise;
    }
    EXPECT_EQ(depthwise, 17);   // one per inverted-residual block
}

} // namespace
} // namespace arch
} // namespace procrustes
