/**
 * @file
 * Figure 17: energy breakdown (DRAM / GLB / RF / MAC) of the K,N
 * dataflow across the five CNNs, dense vs sparse, per training phase.
 *
 * Shape claims under test: MACs dominate FP32 training energy; fw/bw
 * save via weight sparsity and wu via activation sparsity; higher
 * sparsity ratios convert into bigger savings (ResNet18 best);
 * MobileNet v2 benefits less because depthwise convolutions shift
 * energy towards DRAM.
 */

#include "bench_util.h"

#include "arch/accelerator.h"

using namespace procrustes;
using namespace procrustes::arch;

int
main()
{
    bench::banner("Figure 17: energy breakdown, K,N dataflow",
                  "Fig. 17 of MICRO 2020 Procrustes paper");

    const int64_t batch = 64;
    const Accelerator dense = Accelerator::denseBaseline();
    const Accelerator sparse_acc = Accelerator::procrustes();

    for (const NetworkModel &m : allModels()) {
        const EpochTrace epoch = syntheticEpoch(
            m, generateMasks(m, m.paperSparsity, 7), batch);
        const NetworkCost dc = dense.evaluateTrace(epoch);
        const NetworkCost sc = sparse_acc.evaluateTrace(epoch);

        std::printf("\n--- %s (%s, %.1fx sparsity) ---\n",
                    m.name.c_str(), m.dataset.c_str(), m.paperSparsity);
        bench::energyRow("fw (D)", dc.fw);
        bench::energyRow("fw (S)", sc.fw);
        bench::energyRow("bw (D)", dc.bw);
        bench::energyRow("bw (S)", sc.bw);
        bench::energyRow("wu (D)", dc.wu);
        bench::energyRow("wu (S)", sc.wu);
        std::printf("%-24s %.2fx   (DRAM share of sparse total: "
                    "%.1f%%)\n",
                    "energy savings:",
                    dc.totalEnergyJ() / sc.totalEnergyJ(),
                    100.0 * sc.total().dramEnergyJ /
                        sc.totalEnergyJ());
    }
    std::printf("\n(paper: 2.27x-3.26x energy savings; ResNet18 best "
                "at 3.26x; MobileNet v2 DRAM-heavier at 2.39x)\n");
    return 0;
}
