/**
 * @file
 * Tests for the load-imbalance histograms (Figures 5 and 13).
 */

#include <gtest/gtest.h>

#include "arch/model_zoo.h"
#include "arch/trace_imbalance.h"

namespace procrustes {
namespace arch {
namespace {

TEST(Histogram, BinsAndNormalizes)
{
    const std::vector<double> overheads{0.0, 0.05, 0.05, 0.35, 2.0};
    const ImbalanceHistogram h = buildHistogram(overheads, 5, 0.31);
    EXPECT_EQ(h.fraction.size(), 5u);
    double total = 0.0;
    for (double f : h.fraction)
        total += f;
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_NEAR(h.fraction[0], 0.6, 1e-12);   // 0, .05, .05
    EXPECT_NEAR(h.fraction[1], 0.2, 1e-12);   // .35
    EXPECT_NEAR(h.fraction[4], 0.2, 1e-12);   // 2.0 clamps to last bin
    EXPECT_NEAR(h.maxOverhead, 2.0, 1e-12);
}

TEST(Histogram, FractionAboveThreshold)
{
    const std::vector<double> overheads{0.0, 0.1, 0.5, 0.7, 0.9};
    const ImbalanceHistogram h = buildHistogram(overheads, 10, 0.1);
    EXPECT_NEAR(h.fractionAbove(0.5), 0.6, 1e-12);
}

class ImbalanceFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const NetworkModel model = buildVggS();
        epoch_ = syntheticEpoch(model, generateMasks(model, 5.2, 1), 16);
        cfg_ = ArrayConfig::baseline16();
    }

    /** Per-wave forward overheads of the whole epoch. */
    std::vector<double>
    forward(MappingKind mapping, BalanceMode balance) const
    {
        return collectMeasuredOverheads(epoch_, Phase::Forward, mapping,
                                        cfg_, balance);
    }

    EpochTrace epoch_;
    ArrayConfig cfg_;
};

TEST_F(ImbalanceFixture, UnbalancedCkShowsHeavyTail)
{
    // Figure 5: under the weight-stationary C,K mapping with no
    // balancing, a sizeable fraction of working sets exceed 50%
    // overhead.
    const auto overheads = forward(MappingKind::CK, BalanceMode::None);
    const ImbalanceHistogram h = buildHistogram(overheads, 32, 0.05);
    EXPECT_GT(h.meanOverhead, 0.25);
    EXPECT_GT(h.fractionAbove(0.5), 0.10);
}

TEST_F(ImbalanceFixture, BalancedKnIsTight)
{
    // Figure 13: half-tile balancing under K,N keeps most working
    // sets under 10% overhead with a bounded worst case.
    const auto overheads = forward(MappingKind::KN, BalanceMode::HalfTile);
    const ImbalanceHistogram h = buildHistogram(overheads, 32, 0.05);
    EXPECT_LT(h.meanOverhead, 0.10);
    EXPECT_GT(h.fraction[0] + h.fraction[1], 0.60)
        << "most working sets should sit below 10% overhead";
    EXPECT_LT(h.maxOverhead, 0.60);
}

TEST_F(ImbalanceFixture, BalancingImprovesEveryStatistic)
{
    const auto before = forward(MappingKind::KN, BalanceMode::None);
    const auto after = forward(MappingKind::KN, BalanceMode::HalfTile);
    const ImbalanceHistogram hb = buildHistogram(before, 32, 0.05);
    const ImbalanceHistogram ha = buildHistogram(after, 32, 0.05);
    EXPECT_LT(ha.meanOverhead, hb.meanOverhead);
    EXPECT_LE(ha.maxOverhead, hb.maxOverhead + 1e-12);
}

TEST_F(ImbalanceFixture, FullChipBalancingIsPerfect)
{
    const auto overheads = forward(MappingKind::KN, BalanceMode::FullChip);
    for (double o : overheads)
        EXPECT_NEAR(o, 0.0, 1e-12);
}

} // namespace
} // namespace arch
} // namespace procrustes
