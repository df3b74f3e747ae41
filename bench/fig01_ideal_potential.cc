/**
 * @file
 * Figure 1: potential training energy savings and speedup from ideally
 * leveraging all weight sparsity (5x) while training VGG-S.
 *
 * Setup per the paper: 16x16 PEs, sparsity evenly distributed within
 * each layer (perfect load balancing), idealized compressed format
 * with no overhead, free retained-weight selection. Batch 64 (implied
 * by the paper's cycle counts). Bars: energy breakdown (DRAM / GLB /
 * RF / MAC) and cycles for fw / bw / wu, dense (D) vs sparse (S).
 */

#include "bench_util.h"

#include "arch/accelerator.h"

using namespace procrustes;
using namespace procrustes::arch;

int
main()
{
    bench::banner("Figure 1: ideal sparse-training potential (VGG-S, 5x)",
                  "Fig. 1 of MICRO 2020 Procrustes paper");

    const NetworkModel vgg = buildVggS();
    const int64_t batch = 64;
    const EpochTrace epoch =
        syntheticEpoch(vgg, generateMasks(vgg, 5.0, /*seed=*/1), batch);

    const NetworkCost dc = Accelerator::denseBaseline().evaluateTrace(epoch);
    const NetworkCost sc = Accelerator::idealSparse().evaluateTrace(epoch);

    std::printf("\nEnergy per training iteration (batch %lld):\n",
                static_cast<long long>(batch));
    bench::energyRow("fw  (D)ense", dc.fw);
    bench::energyRow("fw  (S)parse ideal", sc.fw);
    bench::energyRow("bw  (D)ense", dc.bw);
    bench::energyRow("bw  (S)parse ideal", sc.bw);
    bench::energyRow("wu  (D)ense", dc.wu);
    bench::energyRow("wu  (S)parse ideal", sc.wu);

    std::printf("\nCycles per training iteration:\n");
    bench::cycleRow("fw  (D)ense", dc.fw);
    bench::cycleRow("fw  (S)parse ideal", sc.fw);
    bench::cycleRow("bw  (D)ense", dc.bw);
    bench::cycleRow("bw  (S)parse ideal", sc.bw);
    bench::cycleRow("wu  (D)ense", dc.wu);
    bench::cycleRow("wu  (S)parse ideal", sc.wu);

    std::printf("\nHeadline (paper: up to 2.6x speedup, 2.3x energy):\n");
    std::printf("  whole-network speedup: %.2fx\n",
                dc.totalCycles() / sc.totalCycles());
    std::printf("  whole-network energy savings: %.2fx\n",
                dc.totalEnergyJ() / sc.totalEnergyJ());
    return 0;
}
