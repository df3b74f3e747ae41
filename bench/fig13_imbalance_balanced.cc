/**
 * @file
 * Figure 13: load-imbalance histogram after half-tile balancing under
 * the Procrustes minibatch-spatial K,N dataflow (VGG-S / Dropback).
 *
 * The paper reports most working sets below 10% overhead with the
 * worst imbalance around 30% — "a vast improvement to the common
 * 40%-50% overheads and up to 2x slowdown without load balancing".
 */

#include "bench_util.h"

#include "arch/model_zoo.h"
#include "arch/trace_imbalance.h"

using namespace procrustes;
using namespace procrustes::arch;

int
main()
{
    bench::banner(
        "Figure 13: load imbalance after half-tile balancing (K,N)",
        "Fig. 13 of MICRO 2020 Procrustes paper");

    const NetworkModel vgg = buildVggS();
    const EpochTrace epoch =
        syntheticEpoch(vgg, generateMasks(vgg, 5.2, /*seed=*/1), 16);
    const ArrayConfig cfg = ArrayConfig::baseline16();

    const auto balanced = collectMeasuredOverheads(
        epoch, Phase::Forward, MappingKind::KN, cfg, BalanceMode::HalfTile);
    const auto unbalanced = collectMeasuredOverheads(
        epoch, Phase::Forward, MappingKind::KN, cfg, BalanceMode::None);

    const ImbalanceHistogram hb =
        buildHistogram(balanced, /*bins=*/9, /*bin_width=*/0.3125);
    const ImbalanceHistogram hu =
        buildHistogram(unbalanced, 9, 0.3125);

    std::printf("\nFraction of working sets per overhead bin "
                "(balanced K,N):\n");
    for (size_t i = 0; i < hb.fraction.size(); ++i) {
        std::printf("  %5.0f%% - %5.0f%% : %6.2f%%\n",
                    100.0 * static_cast<double>(i) * hb.binWidth,
                    100.0 * static_cast<double>(i + 1) * hb.binWidth,
                    100.0 * hb.fraction[i]);
    }
    const ImbalanceHistogram fine = buildHistogram(balanced, 32, 0.05);
    std::printf("\nbalanced:   mean %.1f%%  max %.1f%%  <10%%: %.1f%% "
                "of sets\n",
                100.0 * hb.meanOverhead, 100.0 * hb.maxOverhead,
                100.0 * (fine.fraction[0] + fine.fraction[1]));
    std::printf("unbalanced: mean %.1f%%  max %.1f%%\n",
                100.0 * hu.meanOverhead, 100.0 * hu.maxOverhead);
    std::printf("(paper: most sets <10%%, worst ~30%%, vs 40-50%% "
                "common without balancing)\n");
    return 0;
}
