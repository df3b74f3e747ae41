/**
 * @file
 * Tests for the whole-network accelerator roll-ups: the paper's
 * headline energy/speedup claims in ratio form.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "arch/accelerator.h"

namespace procrustes {
namespace arch {
namespace {

struct ModelCase
{
    const char *name;
};

class HeadlineClaims : public ::testing::TestWithParam<const char *>
{
  protected:
    static NetworkModel
    byName(const std::string &name)
    {
        for (NetworkModel &m : models())
            if (m.name == name)
                return m;
        ADD_FAILURE() << "unknown model";
        return {};
    }

    static std::vector<NetworkModel> &
    models()
    {
        static std::vector<NetworkModel> ms = allModels();
        return ms;
    }
};

TEST_P(HeadlineClaims, EnergyAndSpeedupInPaperBand)
{
    const NetworkModel m = byName(GetParam());
    const EpochTrace epoch =
        syntheticEpoch(m, generateMasks(m, m.paperSparsity, 7), 16);

    const Accelerator procrustes = Accelerator::procrustes();
    const Accelerator baseline = Accelerator::denseBaseline();
    const NetworkCost sc = procrustes.evaluateTrace(epoch);
    const NetworkCost dc = baseline.evaluateTrace(epoch);

    const double energy_ratio = dc.totalEnergyJ() / sc.totalEnergyJ();
    const double speedup = dc.totalCycles() / sc.totalCycles();

    // Paper: 2.27x-3.26x energy, 2.28x-4x speedup across models.
    // Accept a generous band — absolute constants differ — but the
    // win must be significant and bounded.
    EXPECT_GT(energy_ratio, 1.6) << m.name;
    EXPECT_LT(energy_ratio, 6.0) << m.name;
    EXPECT_GT(speedup, 1.5) << m.name;
    EXPECT_LT(speedup, 8.0) << m.name;
}

INSTANTIATE_TEST_SUITE_P(Models, HeadlineClaims,
                         ::testing::Values("DenseNet", "WRN-28-10",
                                           "VGG-S", "MobileNetV2",
                                           "ResNet18"),
                         [](const ::testing::TestParamInfo<const char *>
                                &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(Accelerator, HigherSparsityMoreEnergySavings)
{
    // Figure 17's trend: ResNet18 at 11.7x saves more than at 3x.
    const NetworkModel m = buildResNet18();
    auto ratio_at = [&](double sparsity) {
        const EpochTrace epoch =
            syntheticEpoch(m, generateMasks(m, sparsity, 7), 16);
        return Accelerator::denseBaseline()
                   .evaluateTrace(epoch)
                   .totalEnergyJ() /
               Accelerator::procrustes().evaluateTrace(epoch).totalEnergyJ();
    };
    EXPECT_GT(ratio_at(11.7), ratio_at(3.0));
}

TEST(Accelerator, IdealBoundsRealSparse)
{
    const NetworkModel m = buildVggS();
    const EpochTrace epoch = syntheticEpoch(m, generateMasks(m, 5.2, 3), 16);
    const NetworkCost real = Accelerator::procrustes().evaluateTrace(epoch);
    const NetworkCost ideal =
        Accelerator::idealSparse().evaluateTrace(epoch);
    EXPECT_LE(ideal.totalCycles(), real.totalCycles());
    EXPECT_LE(ideal.totalEnergyJ(), real.totalEnergyJ());
}

TEST(Accelerator, ScalabilityNearIdealForKn)
{
    // Figure 20: 4x the PEs gives ~3.9x speedup under K,N, and energy
    // stays almost unchanged.
    const NetworkModel m = buildResNet18();
    // Batch 64 (as the Figure 1 cycle counts imply): a minibatch of
    // 16 could not fill the 32-wide array's N axis.
    const EpochTrace epoch =
        syntheticEpoch(m, generateMasks(m, 11.7, 7), 64);

    const NetworkCost c16 =
        Accelerator::procrustes(ArrayConfig::baseline16())
            .evaluateTrace(epoch);
    const NetworkCost c32 =
        Accelerator::procrustes(ArrayConfig::scaled32())
            .evaluateTrace(epoch);

    const double speedup = c16.totalCycles() / c32.totalCycles();
    EXPECT_GT(speedup, 3.0);
    EXPECT_LE(speedup, 4.05);
    const double energy_ratio =
        c32.totalEnergyJ() / c16.totalEnergyJ();
    EXPECT_NEAR(energy_ratio, 1.0, 0.05);
}

TEST(Accelerator, PqScalesWorseThanKn)
{
    // Figure 20's second claim: mappings that trade utilization for
    // reuse (P,Q) scale worse than the Procrustes mappings.
    const NetworkModel m = buildMobileNetV2();
    const EpochTrace epoch =
        syntheticEpoch(m, generateMasks(m, 10.0, 7), 64);

    CostOptions opts;
    opts.sparse = true;
    opts.balance = BalanceMode::HalfTile;
    auto speedup_for = [&](MappingKind mk) {
        const Accelerator a16(ArrayConfig::baseline16(), opts, mk);
        const Accelerator a32(ArrayConfig::scaled32(), opts, mk);
        return a16.evaluateTrace(epoch).totalCycles() /
               a32.evaluateTrace(epoch).totalCycles();
    };
    EXPECT_GT(speedup_for(MappingKind::KN),
              speedup_for(MappingKind::PQ));
}

/**
 * @name Zoo golden
 * Every NetworkCost field of three machines on three zoo networks
 * (ResNet18; MobileNetV2 for its depthwise layers; VGG-S for its large
 * fc head), with the seed-7 masks at the paper's sparsity and batch 64,
 * as hex doubles; plus a digest of every per-layer PhaseCost under the
 * C,N mapping (all three phases) and the C,K and P,Q mappings (forward
 * and backward) on a sparse half-tile machine. C,K and P,Q weight
 * update are left out: only they read the per-channel halves or the
 * spatial marginals of the activations, and how syntheticLayer draws
 * those is a modelling choice, not a contract. The dense baseline
 * evaluates the same epoch as the sparse machines and reads no
 * density from it.
 *
 * The cost model's a*b + c sums contract into FMAs where the build
 * targets FMA (GCC contracts by default in C++), so a build without
 * FMA rounds a few of them twice: kUnfusedCosts lists the fields that
 * move there, and each digest has an unfused twin.
 */
/**@{*/

struct NetworkGolden
{
    const char *model;
    const char *machine;
    std::array<std::array<double, 9>, 3> phases;   //!< fw, bw, wu
};

const NetworkGolden kNetworkGolden[] = {
    {"ResNet18", "procrustes",
     {{{0x1.393b6ap+25, 0x1.393b6ap+25, 0x1.7c9015766899ap+27,
       0x0p+0, 0x1.085032ep+33, 0x1.312573b32c424p-3,
       0x1.79ccd863eda75p-4, 0x1.13f06abf55c35p-6, 0x1.05855214b2c1ap-4},
      {0x1.393b6ap+25, 0x1.393b6ap+25, 0x1.2ac499dp+27,
       0x0p+0, 0x1.085032ep+33, 0x1.312573b32c424p-3,
       0x1.79ccd863eda75p-4, 0x1.e801f8ca26c01p-6, 0x1.9a9fa28bf55aep-5},
      {0x1.e178d599721edp+27, 0x1.e178d599721edp+27, 0x1.d57fd2ecd1334p+26,
       0x0p+0, 0x1.cd9c77f7897ffp+35, 0x1.0a764d3f6dfd3p+0,
       0x1.49e7cd5ab8f04p-1, 0x1.ac95165137a86p-7, 0x1.42a33146768dap-5}}}},
    {"ResNet18", "denseBaseline",
     {{{0x1.b0828p+28, 0x1.b0828p+28, 0x1.349b18p+27,
       0x0p+0, 0x1.b0824p+36, 0x1.f3536be08a0d4p+0,
       0x1.351b42c7f3effp+0, 0x1.3b13b6180ff95p-6, 0x1.a825067778ea6p-5},
      {0x1.b0828p+28, 0x1.b0828p+28, 0x1.349b18p+27,
       0x0p+0, 0x1.b0824p+36, 0x1.f3536be08a0d4p+0,
       0x1.351b42c7f3effp+0, 0x1.17d3bc1e136f2p-5, 0x1.a825067778ea6p-5},
      {0x1.b0828p+28, 0x1.b0828p+28, 0x1.349b18p+27,
       0x0p+0, 0x1.b0824p+36, 0x1.f3536be08a0d4p+0,
       0x1.351b42c7f3effp+0, 0x1.58f78c7e63a6fp-6, 0x1.a825067778ea6p-5}}}},
    {"ResNet18", "idealSparse",
     {{{0x1.085032ep+25, 0x1.085032ep+25, 0x1.77a879b66899ap+27,
       0x0p+0, 0x1.085032ep+33, 0x1.312573b32c424p-3,
       0x1.79ccd863eda75p-4, 0x1.9f90fa93f1907p-7, 0x1.0226791d8b854p-4},
      {0x1.085032ep+25, 0x1.085032ep+25, 0x1.2a6b7f7p+27,
       0x0p+0, 0x1.085032ep+33, 0x1.312573b32c424p-3,
       0x1.79ccd863eda75p-4, 0x1.617be8d88447p-6, 0x1.9a252c34be5ap-5},
      {0x1.cd9c77f7897ffp+27, 0x1.cd9c77f7897ffp+27, 0x1.cbb09b6cd1334p+26,
       0x0p+0, 0x1.cd9c77f7897ffp+35, 0x1.0a764d3f6dfd3p+0,
       0x1.49e7cd5ab8f04p-1, 0x1.90adfe57565d8p-7, 0x1.3be57f5828152p-5}}}},
    {"MobileNetV2", "procrustes",
     {{{0x1.808bc4p+23, 0x1.808bc4p+23, 0x1.0ece6ef6c9b34p+29,
       0x0p+0, 0x1.2b4c92p+31, 0x1.598977e80f2c5p-5,
       0x1.abcec537b1431p-6, 0x1.2f5b39a95ec1dp-6, 0x1.7431864d556f4p-3},
      {0x1.808bc4p+23, 0x1.808bc4p+23, 0x1.a724cd8p+28,
       0x0p+0, 0x1.2b4c92p+31, 0x1.598977e80f2c5p-5,
       0x1.abcec537b1431p-6, 0x1.ad58323d7ab23p-6, 0x1.22c83cd44b8e1p-3},
      {0x1.4017fc48d795ap+25, 0x1.4017fc48d795ap+25, 0x1.428437ed93667p+28,
       0x0p+0, 0x1.2ad8748fc874dp+33, 0x1.59036a44a3acdp-3,
       0x1.ab28ccb68180bp-4, 0x1.466edee26493fp-5, 0x1.bb4365d69c54ep-4}}}},
    {"MobileNetV2", "denseBaseline",
     {{{0x1.2497b8p+26, 0x1.2497b8p+26, 0x1.a894c4p+28,
       0x0p+0, 0x1.1ed738p+34, 0x1.4b27671deaec9p-2,
       0x1.9a0005c38461fp-3, 0x1.2f0581b85f4c4p-6, 0x1.23c5198baa8b3p-3},
      {0x1.2497b8p+26, 0x1.2497b8p+26, 0x1.a894c4p+28,
       0x0p+0, 0x1.1ed738p+34, 0x1.4b27671deaec9p-2,
       0x1.9a0005c38461fp-3, 0x1.ad027a4c7b3cbp-6, 0x1.23c5198baa8b3p-3},
      {0x1.2497b8p+26, 0x1.2497b8p+26, 0x1.a894c4p+28,
       0x0p+0, 0x1.1ed738p+34, 0x1.4b27671deaec9p-2,
       0x1.9a0005c38461fp-3, 0x1.0eec312377639p-4, 0x1.23c5198baa8b3p-3}}}},
    {"MobileNetV2", "idealSparse",
     {{{0x1.2b4c92p+23, 0x1.2b4c92p+23, 0x1.0b5b6e26c9b34p+29,
       0x0p+0, 0x1.2b4c92p+31, 0x1.598977e80f2c5p-5,
       0x1.abcec537b1431p-6, 0x1.ab192b61479f1p-7, 0x1.6f73ef2e0a95cp-3},
      {0x1.2b4c92p+23, 0x1.2b4c92p+23, 0x1.a717911p+28,
       0x0p+0, 0x1.2b4c92p+31, 0x1.598977e80f2c5p-5,
       0x1.abcec537b1431p-6, 0x1.f90e56171004dp-7, 0x1.22bf245010ee7p-3},
      {0x1.2ad8748fc874dp+25, 0x1.2ad8748fc874dp+25, 0x1.3b9e364d93667p+28,
       0x0p+0, 0x1.2ad8748fc874dp+33, 0x1.59036a44a3acdp-3,
       0x1.ab28ccb68180bp-4, 0x1.2f1da2a8abf71p-5, 0x1.b1c8379806a14p-4}}}},
    {"VGG-S", "procrustes",
     {{{0x1.027c1cp+24, 0x1.027c1cp+24, 0x1.7285167d46667p+24,
       0x0p+0, 0x1.ea90e4p+31, 0x1.1b2d132fa031fp-4,
       0x1.5e9954b4deb7dp-5, 0x1.c3183e6b92f1bp-9, 0x1.fd3d175dd685fp-8},
      {0x1.027c1cp+24, 0x1.027c1cp+24, 0x1.273e91p+24,
       0x0p+0, 0x1.ea90e4p+31, 0x1.1b2d132fa031fp-4,
       0x1.5e9954b4deb7dp-5, 0x1.96d3358d5887fp-8, 0x1.95c7e3660ed03p-8},
      {0x1.406e9c43c7fa9p+25, 0x1.406e9c43c7fa9p+25, 0x1.d8272cfa8cccep+23,
       0x0p+0, 0x1.30678d669cb34p+33, 0x1.5f6e5cc7f53dp-3,
       0x1.b31aecc6ce1abp-4, 0x1.a45adcf19e436p-9, 0x1.44760a1a56668p-8}}}},
    {"VGG-S", "denseBaseline",
     {{{0x1.2af2p+26, 0x1.2af2p+26, 0x1.7ff82p+24,
       0x0p+0, 0x1.2af14p+34, 0x1.59200a4df4157p-2,
       0x1.ab4c3d8515d16p-3, 0x1.0b59502c80fbp-8, 0x1.07dc952f383a1p-7},
      {0x1.2af2p+26, 0x1.2af2p+26, 0x1.7ff82p+24,
       0x0p+0, 0x1.2af14p+34, 0x1.59200a4df4157p-2,
       0x1.ab4c3d8515d16p-3, 0x1.cbcc3aee27c23p-8, 0x1.07dc952f383a1p-7},
      {0x1.2af2p+26, 0x1.2af2p+26, 0x1.7ff82p+24,
       0x0p+0, 0x1.2af14p+34, 0x1.59200a4df4157p-2,
       0x1.ab4c3d8515d16p-3, 0x1.2f33905548f6bp-8, 0x1.07dc952f383a1p-7}}}},
    {"VGG-S", "idealSparse",
     {{{0x1.ea90e4p+23, 0x1.ea90e4p+23, 0x1.6abf5f7d46667p+24,
       0x0p+0, 0x1.ea90e4p+31, 0x1.1b2d132fa031fp-4,
       0x1.5e9954b4deb7dp-5, 0x1.a5939bdd2c4f8p-9, 0x1.f28e72b142a07p-8},
      {0x1.ea90e4p+23, 0x1.ea90e4p+23, 0x1.23ac66p+24,
       0x0p+0, 0x1.ea90e4p+31, 0x1.1b2d132fa031fp-4,
       0x1.5e9954b4deb7dp-5, 0x1.80c29f56afd58p-8, 0x1.90df772396ebbp-8},
      {0x1.30678d669cb34p+25, 0x1.30678d669cb34p+25, 0x1.c89bbefa8cccep+23,
       0x0p+0, 0x1.30678d669cb34p+33, 0x1.5f6e5cc7f53dp-3,
       0x1.b31aecc6ce1abp-4, 0x1.90f6ec2238f8fp-9, 0x1.39c7656dc281p-8}}}},
};

/** A field that differs in a build without FMA. */
struct UnfusedCost
{
    const char *model;
    const char *machine;
    size_t phase;   //!< 0 fw, 1 bw, 2 wu
    size_t field;   //!< index into costFields
    double value;
};

const UnfusedCost kUnfusedCosts[] = {
    {"MobileNetV2", "procrustes", 2, 0, 0x1.4017fc48d795cp+25},
    {"MobileNetV2", "procrustes", 2, 1, 0x1.4017fc48d795cp+25},
};

struct LayerDigestGolden
{
    const char *model;
    MappingKind mapping;
    Phase phase;
    uint64_t fused;
    uint64_t unfused;
};

const LayerDigestGolden kLayerDigestGolden[] = {
    {"ResNet18", MappingKind::CN, Phase::Forward,
     0x3a6e41a5bdd96e2aull, 0xc562985f95c45c2cull},
    {"ResNet18", MappingKind::CN, Phase::Backward,
     0x5776d81daefffddaull, 0x5776d81daefffddaull},
    {"ResNet18", MappingKind::CN, Phase::WeightUpdate,
     0x95f59997c2b7f638ull, 0x89da0dbf2ec7c6beull},
    {"ResNet18", MappingKind::CK, Phase::Forward,
     0xf9d15b0d3f200ab4ull, 0x950e7f66551b870aull},
    {"ResNet18", MappingKind::CK, Phase::Backward,
     0xd7cdd553f7161f62ull, 0xd7cdd553f7161f62ull},
    {"ResNet18", MappingKind::PQ, Phase::Forward,
     0x38b53b78e684176cull, 0x872f8c4d8653112eull},
    {"ResNet18", MappingKind::PQ, Phase::Backward,
     0x9208f3eb441247f1ull, 0x9208f3eb441247f1ull},
    {"MobileNetV2", MappingKind::CN, Phase::Forward,
     0xf657dcb3dbef4b9bull, 0x74d4dc755cdc7f1eull},
    {"MobileNetV2", MappingKind::CN, Phase::Backward,
     0xf903376f732e3462ull, 0xf903376f732e3462ull},
    {"MobileNetV2", MappingKind::CN, Phase::WeightUpdate,
     0xf4166a2e8183e075ull, 0xfabcd88f41026f10ull},
    {"MobileNetV2", MappingKind::CK, Phase::Forward,
     0xb92e1fc6f3a5ba8aull, 0x4f18cd6203f86ecbull},
    {"MobileNetV2", MappingKind::CK, Phase::Backward,
     0xc1a0256f0e6f9c2aull, 0xc1a0256f0e6f9c2aull},
    {"MobileNetV2", MappingKind::PQ, Phase::Forward,
     0xda8d9b38783096ecull, 0xce6ad3668738f695ull},
    {"MobileNetV2", MappingKind::PQ, Phase::Backward,
     0x68bebc7ef274b090ull, 0x68bebc7ef274b090ull},
    {"VGG-S", MappingKind::CN, Phase::Forward,
     0x2f5c249c4de22f00ull, 0x2f5c249c4de22f00ull},
    {"VGG-S", MappingKind::CN, Phase::Backward,
     0xb229573acbd6cdf7ull, 0xb229573acbd6cdf7ull},
    {"VGG-S", MappingKind::CN, Phase::WeightUpdate,
     0xb776781daddb795aull, 0xc21151da24eb9e7cull},
    {"VGG-S", MappingKind::CK, Phase::Forward,
     0xc6bc74d005f3820aull, 0xc6bc74d005f3820aull},
    {"VGG-S", MappingKind::CK, Phase::Backward,
     0x6431bfebb3a39bceull, 0x6431bfebb3a39bceull},
    {"VGG-S", MappingKind::PQ, Phase::Forward,
     0x1199bf7f6ed0a9b8ull, 0x1199bf7f6ed0a9b8ull},
    {"VGG-S", MappingKind::PQ, Phase::Backward,
     0x9d02f1cf3f1c125dull, 0x9d02f1cf3f1c125dull},
};

/**@}*/

constexpr bool kFusedBuild =
#ifdef __FMA__
    true;
#else
    false;
#endif

const char *const kCostFieldNames[9] = {
    "cycles",    "computeCycles", "dramCycles",
    "interconnectCycles", "macs", "macEnergyJ",
    "rfEnergyJ", "glbEnergyJ",    "dramEnergyJ"};

/** The PhaseCost fields in declaration order. */
std::array<double, 9>
costFields(const PhaseCost &c)
{
    return {c.cycles,     c.computeCycles, c.dramCycles,
            c.interconnectCycles, c.macs,  c.macEnergyJ,
            c.rfEnergyJ,  c.glbEnergyJ,    c.dramEnergyJ};
}

std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

uint64_t
digestCost(uint64_t h, const PhaseCost &c)
{
    for (double v : costFields(c)) {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        h = (h ^ bits) * 1099511628211ull;
    }
    return h;
}

TEST(AcceleratorGolden, ZooNetworkCostsAreBitwiseStable)
{
    const char *const machines[3] = {"procrustes", "denseBaseline",
                                     "idealSparse"};
    const Accelerator accs[3] = {Accelerator::procrustes(),
                                 Accelerator::denseBaseline(),
                                 Accelerator::idealSparse()};
    CostOptions opts;
    opts.sparse = true;
    opts.balance = BalanceMode::HalfTile;
    const CostModel cm(ArrayConfig::baseline16(), opts);

    size_t checked_nets = 0;
    size_t checked_digests = 0;
    for (const NetworkModel &m :
         {buildResNet18(), buildMobileNetV2(), buildVggS()}) {
        const EpochTrace epoch =
            syntheticEpoch(m, generateMasks(m, m.paperSparsity, 7), 64);
        for (int a = 0; a < 3; ++a) {
            const NetworkCost c = accs[a].evaluateTrace(epoch);
            for (const NetworkGolden &g : kNetworkGolden) {
                if (m.name != g.model || std::string(machines[a]) != g.machine)
                    continue;
                ++checked_nets;
                const PhaseCost *got[3] = {&c.fw, &c.bw, &c.wu};
                for (size_t p = 0; p < 3; ++p) {
                    const std::array<double, 9> f = costFields(*got[p]);
                    for (size_t i = 0; i < 9; ++i) {
                        double want = g.phases[p][i];
                        for (const UnfusedCost &u : kUnfusedCosts)
                            if (!kFusedBuild && m.name == u.model &&
                                std::string(machines[a]) == u.machine &&
                                u.phase == p && u.field == i)
                                want = u.value;
                        EXPECT_EQ(hexDouble(f[i]), hexDouble(want))
                            << m.name << " " << machines[a] << " phase "
                            << p << " " << kCostFieldNames[i];
                    }
                }
            }
        }
        for (const LayerDigestGolden &g : kLayerDigestGolden) {
            if (m.name != g.model)
                continue;
            ++checked_digests;
            uint64_t h = 14695981039346656037ull;
            for (const LayerTrace &l : epoch.layers)
                h = digestCost(h, cm.evaluatePhase(l, l.weightDensity(),
                                                   g.phase, g.mapping, 64));
            EXPECT_EQ(h, kFusedBuild ? g.fused : g.unfused)
                << m.name << " " << mappingName(g.mapping) << " "
                << phaseName(g.phase);
        }
    }
    EXPECT_EQ(checked_nets, 9u);
    EXPECT_EQ(checked_digests, 21u);
}

TEST(Accelerator, DenseBaselineReadsNoDensity)
{
    // The dense baseline evaluates the sparse machines' epoch: no cost
    // term of a dense configuration reads a mask or activation
    // density, so an all-dense epoch costs it exactly the same.
    const NetworkModel m = buildMobileNetV2();
    const EpochTrace sparse_epoch =
        syntheticEpoch(m, generateMasks(m, m.paperSparsity, 7), 16);
    EpochTrace dense_epoch = sparse_epoch;
    for (LayerTrace &l : dense_epoch.layers) {
        l.mask = sparse::SparsityMask::dense(l.mask.K, l.mask.C, l.mask.R,
                                             l.mask.S);
        l.iacts = MeasuredIactStats{};
    }
    const Accelerator dense = Accelerator::denseBaseline();
    const NetworkCost a = dense.evaluateTrace(sparse_epoch);
    const NetworkCost b = dense.evaluateTrace(dense_epoch);
    const PhaseCost *pa[3] = {&a.fw, &a.bw, &a.wu};
    const PhaseCost *pb[3] = {&b.fw, &b.bw, &b.wu};
    for (size_t p = 0; p < 3; ++p) {
        const std::array<double, 9> fa = costFields(*pa[p]);
        const std::array<double, 9> fb = costFields(*pb[p]);
        for (size_t i = 0; i < 9; ++i)
            EXPECT_EQ(hexDouble(fa[i]), hexDouble(fb[i]))
                << "phase " << p << " " << kCostFieldNames[i];
    }
}

TEST(Accelerator, LayerEvaluationSumsToNetwork)
{
    const NetworkModel m = buildDenseNetS();
    const EpochTrace epoch = syntheticEpoch(m, generateMasks(m, 3.9, 5), 16);
    const Accelerator acc = Accelerator::procrustes();

    const NetworkCost whole = acc.evaluateTrace(epoch);
    double by_layer = 0.0;
    for (const LayerTrace &l : epoch.layers) {
        EpochTrace one;
        one.batchSize = epoch.batchSize;
        one.layers = {l};
        by_layer += acc.evaluateTrace(one).totalEnergyJ();
    }
    EXPECT_NEAR(by_layer, whole.totalEnergyJ(),
                1e-9 * whole.totalEnergyJ());
}

} // namespace
} // namespace arch
} // namespace procrustes
