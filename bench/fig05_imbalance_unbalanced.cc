/**
 * @file
 * Figure 5: load-imbalance histogram of full-PE-array working sets
 * when training VGG-S with Dropback sparsity under the unbalanced
 * weight-stationary C,K mapping.
 *
 * The paper bins execution overhead at ~31% intervals (0%, 31%, 62%,
 * 94%, 125%); a perfectly balanced workload would put 100% of working
 * sets at 0% overhead. The paper observes overheads "frequently in
 * excess of 50%, and sometimes in excess of 100%".
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
        "Figure 5: load imbalance, unbalanced weight-stationary C,K",
        "Fig. 5 of MICRO 2020 Procrustes paper");

    const NetworkModel vgg = buildVggS();
    const EpochTrace epoch =
        syntheticEpoch(vgg, generateMasks(vgg, 5.2, /*seed=*/1), 16);

    const auto overheads = collectMeasuredOverheads(
        epoch, Phase::Forward, MappingKind::CK, ArrayConfig::baseline16(),
        BalanceMode::None);
    const ImbalanceHistogram h =
        buildHistogram(overheads, /*bins=*/9, /*bin_width=*/0.3125);

    std::printf("\nFraction of working sets per overhead bin:\n");
    for (size_t i = 0; i < h.fraction.size(); ++i) {
        std::printf("  %5.0f%% - %5.0f%% : %6.2f%%\n",
                    100.0 * static_cast<double>(i) * h.binWidth,
                    100.0 * static_cast<double>(i + 1) * h.binWidth,
                    100.0 * h.fraction[i]);
    }
    std::printf("\nmean overhead %.1f%%   max %.1f%%\n",
                100.0 * h.meanOverhead, 100.0 * h.maxOverhead);
    std::printf("working sets above  50%% overhead: %.1f%%\n",
                100.0 * h.fractionAbove(0.50));
    std::printf("working sets above 100%% overhead: %.1f%%\n",
                100.0 * h.fractionAbove(1.00));
    std::printf("(paper: frequently >50%%, sometimes >100%%)\n");
    return 0;
}
