/**
 * @file
 * Tests for the analytic cost model (latency, utilization, energy).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "arch/cost_model.h"
#include "arch/model_zoo.h"

namespace procrustes {
namespace arch {
namespace {

CostModel
denseModel()
{
    CostOptions o;
    o.sparse = false;
    o.balance = BalanceMode::None;
    return {ArrayConfig::baseline16(), o};
}

CostModel
sparseModel(BalanceMode b = BalanceMode::HalfTile)
{
    CostOptions o;
    o.sparse = true;
    o.balance = b;
    return {ArrayConfig::baseline16(), o};
}

LayerTrace
maskedLayer(const LayerShape &l, double density, double sigma = 1.0,
            uint64_t seed = 7, double iact = 0.5)
{
    sparse::SyntheticMaskConfig cfg;
    cfg.targetDensity = density;
    cfg.kernelSigma = sigma;
    cfg.seed = seed;
    return syntheticLayer(
        l, sparse::makeSyntheticMask(l.K, l.effectiveC(), l.R, l.S, cfg),
        iact, 16);
}

/** A layer with every weight live. */
LayerTrace
denseLayer(const LayerShape &l, double iact)
{
    return syntheticLayer(
        l, sparse::SparsityMask::dense(l.K, l.effectiveC(), l.R, l.S), iact,
        16);
}

/** CostModel::evaluatePhase of a traced layer at its own density. */
PhaseCost
evaluate(const CostModel &m, const LayerTrace &t, Phase phase,
         MappingKind mapping, int64_t batch)
{
    return m.evaluatePhase(t, t.weightDensity(), phase, mapping, batch);
}

TEST(CostModel, DenseLatencyMatchesIdealWhenDivisible)
{
    // 256 output channels x batch 16 divides the 16x16 array exactly:
    // dense KN latency must equal MACs / PEs.
    const LayerShape l = convLayer("c", 64, 256, 3, 16);
    const LayerTrace dense = denseLayer(l, 0.5);
    const PhaseCost pc =
        evaluate(denseModel(), dense, Phase::Forward, MappingKind::KN, 16);
    const double ideal =
        static_cast<double>(16 * l.macsPerSample()) / 256.0;
    EXPECT_NEAR(pc.computeCycles, ideal, 1e-6 * ideal);
}

TEST(CostModel, UtilizationLossOnFewChannels)
{
    // First conv layer has C = 3: the C,K mapping can only fill 3 of
    // 16 rows, so latency is ~16/3 of ideal ("inefficient on layers
    // that have few channels", Section VI-D).
    const LayerShape l = convLayer("conv1", 3, 64, 3, 32);
    const LayerTrace dense = denseLayer(l, 1.0);
    const CostModel m = denseModel();
    const double ck = evaluate(m, dense, Phase::Forward, MappingKind::CK, 16)
                          .computeCycles;
    const double kn = evaluate(m, dense, Phase::Forward, MappingKind::KN, 16)
                          .computeCycles;
    EXPECT_GT(ck, 4.0 * kn);
}

TEST(CostModel, PqSlowOnSmallActivations)
{
    // A late 2x2-activation layer keeps only 4 of 256 PEs busy under
    // the activation-stationary P,Q mapping.
    const LayerShape l = convLayer("conv5", 512, 512, 3, 2);
    const LayerTrace dense = denseLayer(l, 0.5);
    const CostModel m = denseModel();
    const double pq = evaluate(m, dense, Phase::Forward, MappingKind::PQ, 16)
                          .computeCycles;
    const double kn = evaluate(m, dense, Phase::Forward, MappingKind::KN, 16)
                          .computeCycles;
    EXPECT_GT(pq, 20.0 * kn);
}

TEST(CostModel, SparseLatencyScalesWithDensity)
{
    const LayerShape l = convLayer("c", 128, 256, 3, 8);
    const LayerTrace traced = maskedLayer(l, 0.2);
    const double dense_cycles =
        evaluate(denseModel(), traced, Phase::Forward, MappingKind::KN, 16)
            .computeCycles;
    const double sparse_cycles =
        evaluate(sparseModel(), traced, Phase::Forward, MappingKind::KN, 16)
            .computeCycles;
    // Balanced sparse execution should approach density x dense
    // latency; imbalance keeps it above the perfect value.
    EXPECT_LT(sparse_cycles, 0.6 * dense_cycles);
    EXPECT_GT(sparse_cycles, 0.18 * dense_cycles);
}

TEST(CostModel, BalancingOrdering)
{
    // unbalanced >= half-tile >= full-chip >= perfect density scaling.
    const LayerShape l = convLayer("c", 128, 256, 3, 8);
    const LayerTrace traced = maskedLayer(l, 0.2, /*sigma=*/1.5);
    const double none =
        evaluate(sparseModel(BalanceMode::None), traced, Phase::Forward,
                 MappingKind::KN, 16)
            .computeCycles;
    const double half =
        evaluate(sparseModel(BalanceMode::HalfTile), traced, Phase::Forward,
                 MappingKind::KN, 16)
            .computeCycles;
    const double full =
        evaluate(sparseModel(BalanceMode::FullChip), traced, Phase::Forward,
                 MappingKind::KN, 16)
            .computeCycles;
    EXPECT_GE(none, half - 1e-6);
    EXPECT_GE(half, full - 1e-6);
    EXPECT_GT(none, 1.05 * full);   // skewed masks must show imbalance
}

TEST(CostModel, HalfTileClosesMostOfTheGap)
{
    // The Figure 13 claim: half-tile balancing removes the bulk of
    // the imbalance penalty.
    const LayerShape l = convLayer("c", 256, 256, 3, 8);
    const LayerTrace traced = maskedLayer(l, 0.2, /*sigma=*/1.5);
    const CostModel none = sparseModel(BalanceMode::None);
    const CostModel half = sparseModel(BalanceMode::HalfTile);
    const CostModel full = sparseModel(BalanceMode::FullChip);
    const auto cyc = [&](const CostModel &m) {
        return evaluate(m, traced, Phase::Forward, MappingKind::KN, 16)
            .computeCycles;
    };
    const double gap_before = cyc(none) - cyc(full);
    const double gap_after = cyc(half) - cyc(full);
    EXPECT_LT(gap_after, 0.35 * gap_before);
}

TEST(CostModel, EnergySparseBeatsDense)
{
    const LayerShape l = convLayer("c", 128, 128, 3, 16);
    const LayerTrace traced = maskedLayer(l, 0.2);
    const double dense_e =
        evaluate(denseModel(), traced, Phase::Forward, MappingKind::KN, 16)
            .totalEnergyJ();
    const double sparse_e =
        evaluate(sparseModel(), traced, Phase::Forward, MappingKind::KN, 16)
            .totalEnergyJ();
    EXPECT_LT(sparse_e, 0.5 * dense_e);
}

TEST(CostModel, MacEnergyDominatesForConvLayers)
{
    // FP32 training: "MACs dominate the energy usage" (Section VI-C).
    const LayerShape l = convLayer("c", 256, 256, 3, 8);
    const LayerTrace dense = denseLayer(l, 0.5);
    const PhaseCost pc =
        evaluate(denseModel(), dense, Phase::Forward, MappingKind::KN, 16);
    EXPECT_GT(pc.macEnergyJ, pc.rfEnergyJ);
    EXPECT_GT(pc.macEnergyJ, pc.glbEnergyJ);
    EXPECT_GT(pc.macEnergyJ, pc.dramEnergyJ);
}

TEST(CostModel, EnergyNearlyMappingIndependent)
{
    // Figure 18's finding: dataflow choice barely moves energy
    // (within ~20% here; the paper calls it negligible).
    const LayerShape l = convLayer("c", 128, 256, 3, 16);
    const LayerTrace traced = maskedLayer(l, 0.25);
    const CostModel m = sparseModel();
    double lo = 1e300;
    double hi = 0.0;
    for (MappingKind mk : kAllMappings) {
        double e = 0.0;
        for (Phase p : {Phase::Forward, Phase::Backward,
                        Phase::WeightUpdate}) {
            e += evaluate(m, traced, p, mk, 16).totalEnergyJ();
        }
        lo = std::min(lo, e);
        hi = std::max(hi, e);
    }
    EXPECT_LT(hi / lo, 1.25);
}

TEST(CostModel, DepthwiseLayersAreDramHeavy)
{
    // MobileNet's depthwise convolutions have little reuse: DRAM
    // energy share must far exceed a standard conv's share.
    const LayerShape dw = depthwiseLayer("dw", 96, 3, 28);
    const LayerShape conv = convLayer("c", 96, 96, 3, 28);
    const CostModel m = denseModel();
    const PhaseCost dwc = evaluate(m, denseLayer(dw, 0.5), Phase::Forward,
                                   MappingKind::KN, 16);
    const PhaseCost cc = evaluate(m, denseLayer(conv, 0.5), Phase::Forward,
                                  MappingKind::KN, 16);
    const double dw_share = dwc.dramEnergyJ / dwc.totalEnergyJ();
    const double conv_share = cc.dramEnergyJ / cc.totalEnergyJ();
    EXPECT_GT(dw_share, 5.0 * conv_share);
}

TEST(CostModel, IdealModeBeatsRealSparse)
{
    const LayerShape l = convLayer("c", 128, 128, 3, 16);
    const LayerTrace traced = maskedLayer(l, 0.2, 1.5);
    CostOptions io;
    io.sparse = true;
    io.ideal = true;
    io.balance = BalanceMode::FullChip;
    const CostModel ideal(ArrayConfig::baseline16(), io);
    const PhaseCost ip =
        evaluate(ideal, traced, Phase::Forward, MappingKind::KN, 16);
    const PhaseCost rp =
        evaluate(sparseModel(), traced, Phase::Forward, MappingKind::KN, 16);
    EXPECT_LE(ip.cycles, rp.cycles);
    EXPECT_LE(ip.totalEnergyJ(), rp.totalEnergyJ());
}

TEST(CostModel, WeightUpdateUsesActivationSparsity)
{
    const LayerShape l = convLayer("c", 128, 128, 3, 16);
    // Same weight mask; very different activation densities.
    const auto dense_acts = maskedLayer(l, 0.2, 1.0, 7, 0.9);
    const auto sparse_acts = maskedLayer(l, 0.2, 1.0, 7, 0.3);
    const CostModel m = sparseModel();
    const double e_dense =
        evaluate(m, dense_acts, Phase::WeightUpdate, MappingKind::KN, 16)
            .macEnergyJ;
    const double e_sparse =
        evaluate(m, sparse_acts, Phase::WeightUpdate, MappingKind::KN, 16)
            .macEnergyJ;
    EXPECT_NEAR(e_sparse / e_dense, 0.3 / 0.9, 0.02);
}

TEST(CostModel, DenseMaskWavesCarryNoOverhead)
{
    // Every kernel chunk of a dense mask carries the same work, so no
    // wave of the chunked C,K plan runs longer than its mean.
    const LayerShape l = convLayer("c", 64, 64, 3, 8);
    const LayerTrace dense = denseLayer(l, 0.5);
    const WavePlan plan = planWaves(dense, Phase::Forward, MappingKind::CK,
                                    16, ArrayConfig::baseline16());
    for (const PlannedWave &w : plan.waves) {
        const WaveStats ws = reduceWave(w.tiles, BalanceMode::None, false);
        EXPECT_DOUBLE_EQ(ws.overhead(), 0.0);
    }
}

TEST(CostModel, CyclesBoundedByDramWhenTrafficDominates)
{
    // An fc layer at batch 1 moves many weights per MAC-cycle: with
    // refill bounded at the 64-bit interface rate the memory
    // interface limits the layer.
    const LayerShape l = fcLayer("fc", 4096, 4096);
    const LayerTrace dense = denseLayer(l, 0.5);
    CostOptions o;
    o.sparse = false;
    o.dramRefillWordsPerCycle =
        ArrayConfig::baseline16().dramWordsPerCycle();
    const CostModel m(ArrayConfig::baseline16(), o);
    const PhaseCost pc =
        evaluate(m, dense, Phase::Forward, MappingKind::KN, 1);
    EXPECT_GT(pc.dramCycles, pc.computeCycles);
    EXPECT_DOUBLE_EQ(pc.cycles, pc.dramCycles);

    // Default reporting assumes double buffering hides DRAM latency.
    const PhaseCost pc2 =
        evaluate(denseModel(), dense, Phase::Forward, MappingKind::KN, 1);
    EXPECT_DOUBLE_EQ(pc2.cycles, pc2.computeCycles);
}

TEST(CostModel, RefillRateBoundsCyclesLikeTheSimulatorFrontEnd)
{
    // dramRefillWordsPerCycle mirrors the cycle simulator's DRAM->GLB
    // refill: cycles become max(cycles, dram_words / rate). A generous
    // rate leaves the estimate untouched; a starved rate makes the
    // phase refill-bound; disabled (<= 0, the default) is a no-op.
    const LayerShape l = fcLayer("fc", 4096, 4096);
    const LayerTrace dense = denseLayer(l, 0.5);
    CostOptions base;
    base.sparse = false;
    const CostModel plain(ArrayConfig::baseline16(), base);
    const PhaseCost off =
        evaluate(plain, dense, Phase::Forward, MappingKind::KN, 1);

    CostOptions fast = base;
    fast.dramRefillWordsPerCycle = 1e9;
    const PhaseCost free_refill =

            evaluate(CostModel(ArrayConfig::baseline16(), fast), dense,
                     Phase::Forward, MappingKind::KN, 1);
    EXPECT_DOUBLE_EQ(free_refill.cycles, off.cycles);

    CostOptions slow = base;
    slow.dramRefillWordsPerCycle = 0.25;
    const PhaseCost starved =

            evaluate(CostModel(ArrayConfig::baseline16(), slow), dense,
                     Phase::Forward, MappingKind::KN, 1);
    EXPECT_GT(starved.cycles, off.cycles);
    // The bound is the same words the dramCycles estimate prices, at
    // the configured rate instead of the interface rate.
    const double words =
        starved.dramCycles *
        ArrayConfig::baseline16().dramWordsPerCycle();
    EXPECT_DOUBLE_EQ(starved.cycles, words / 0.25);
}

TEST(CostModel, PhaseCostAccumulates)
{
    PhaseCost a;
    a.cycles = 1.0;
    a.macEnergyJ = 2.0;
    PhaseCost b;
    b.cycles = 3.0;
    b.rfEnergyJ = 4.0;
    a += b;
    EXPECT_DOUBLE_EQ(a.cycles, 4.0);
    EXPECT_DOUBLE_EQ(a.totalEnergyJ(), 6.0);
}

TEST(CostModel, MeasuredCsbBytesDriveSparseTrafficEnergy)
{
    // A measured compressed byte count replaces the density-derived
    // CSB weight-traffic estimate: perturbing the bytes (same mask,
    // same density) must move the GLB and DRAM energy terms, in the
    // byte count's direction, while leaving MAC/RF energy and the
    // wave-level latency untouched.
    const LayerShape l = convLayer("c", 64, 128, 3, 14);
    const LayerTrace traced = maskedLayer(l, 0.25);
    const CostModel m = sparseModel();

    const PhaseCost modelled =
        evaluate(m, traced, Phase::Forward, MappingKind::KN, 16);

    // The modelled estimate in word units, as storedWords computes it.
    const double vol = static_cast<double>(l.weightCount());
    const double modelled_words =
        vol * traced.weightDensity() + vol / 32.0 +
        static_cast<double>(l.K * l.effectiveC());

    LayerTrace heavier = traced;
    heavier.csbWeightBytes = std::llround(modelled_words * 4.0 * 1.5);
    const PhaseCost grew =
        evaluate(m, heavier, Phase::Forward, MappingKind::KN, 16);
    EXPECT_GT(grew.glbEnergyJ, modelled.glbEnergyJ);
    EXPECT_GT(grew.dramEnergyJ, modelled.dramEnergyJ);
    EXPECT_DOUBLE_EQ(grew.macEnergyJ, modelled.macEnergyJ);
    EXPECT_DOUBLE_EQ(grew.rfEnergyJ, modelled.rfEnergyJ);
    EXPECT_DOUBLE_EQ(grew.computeCycles, modelled.computeCycles);

    LayerTrace lighter = traced;
    lighter.csbWeightBytes = std::llround(modelled_words * 4.0 * 0.5);
    const PhaseCost shrank =
        evaluate(m, lighter, Phase::Forward, MappingKind::KN, 16);
    EXPECT_LT(shrank.glbEnergyJ, modelled.glbEnergyJ);
    EXPECT_LT(shrank.dramEnergyJ, modelled.dramEnergyJ);

    // A measurement equal to the modelled GLB estimate reproduces the
    // GLB energy exactly; the DRAM side grows by exactly the pointer
    // words the bandwidth estimate used to neglect (vol*density +
    // mask bits only) — measurement closes that approximation.
    LayerTrace same = traced;
    same.csbWeightBytes = std::llround(modelled_words * 4.0);
    const PhaseCost match =
        evaluate(m, same, Phase::Forward, MappingKind::KN, 16);
    EXPECT_NEAR(match.glbEnergyJ, modelled.glbEnergyJ,
                1e-12 * modelled.glbEnergyJ);
    const double pointer_words =
        static_cast<double>(l.K * l.effectiveC());
    const double pointer_j =
        pointer_words * m.config().dramAccessPj * 1e-12;
    EXPECT_NEAR(match.dramEnergyJ, modelled.dramEnergyJ + pointer_j,
                1e-9 * modelled.dramEnergyJ);
}

TEST(CostModel, MeasuredDenseBytesFeedTheDenseBaseline)
{
    // The dense baseline streams the dense image: only the measured
    // dense byte count applies; a compressed measurement must be
    // ignored (that machine cannot consume CSB).
    const LayerShape l = convLayer("c", 64, 128, 3, 14);
    const LayerTrace traced = maskedLayer(l, 0.25);
    const CostModel m = denseModel();

    const PhaseCost modelled =
        evaluate(m, traced, Phase::Forward, MappingKind::KN, 16);

    LayerTrace csb_only = traced;
    csb_only.csbWeightBytes = 1;   // absurdly small; must not apply
    const PhaseCost ignored =
        evaluate(m, csb_only, Phase::Forward, MappingKind::KN, 16);
    EXPECT_DOUBLE_EQ(ignored.glbEnergyJ, modelled.glbEnergyJ);
    EXPECT_DOUBLE_EQ(ignored.dramEnergyJ, modelled.dramEnergyJ);

    LayerTrace dense_grew = traced;
    dense_grew.denseWeightBytes = l.weightCount() * 4 * 2;
    const PhaseCost grew =
        evaluate(m, dense_grew, Phase::Forward, MappingKind::KN, 16);
    EXPECT_GT(grew.glbEnergyJ, modelled.glbEnergyJ);
    EXPECT_GT(grew.dramEnergyJ, modelled.dramEnergyJ);
}

TEST(CostModel, IdealModeKeepsOverheadFreeEstimateDespiteMeasurement)
{
    // Figure 1's idealization assumes a zero-overhead format; the
    // measured bytes include real mask/pointer overheads and must not
    // leak into it.
    const LayerShape l = convLayer("c", 64, 128, 3, 14);
    const LayerTrace traced = maskedLayer(l, 0.25);
    CostOptions o;
    o.sparse = true;
    o.ideal = true;
    o.balance = BalanceMode::FullChip;
    const CostModel m(ArrayConfig::baseline16(), o);

    const PhaseCost modelled =
        evaluate(m, traced, Phase::Forward, MappingKind::KN, 16);
    LayerTrace measured = traced;
    measured.csbWeightBytes = 1000000000;
    measured.denseWeightBytes = 1000000000;
    const PhaseCost got =
        evaluate(m, measured, Phase::Forward, MappingKind::KN, 16);
    EXPECT_DOUBLE_EQ(got.glbEnergyJ, modelled.glbEnergyJ);
    EXPECT_DOUBLE_EQ(got.dramEnergyJ, modelled.dramEnergyJ);
}

} // namespace
} // namespace arch
} // namespace procrustes
