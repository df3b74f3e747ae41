/**
 * @file
 * Figure 20: scaling Procrustes from 16x16 (256) to 32x32 (1024) PEs
 * on ResNet18 and MobileNet v2 (GLB doubled, a factor of sqrt(2) per
 * array-side doubling).
 *
 * Shape claims under test: energy is nearly unchanged (same MACs);
 * latency scales near-ideally (~3.9x on 4x the cores) for the
 * Procrustes mappings (C,N and K,N), while P,Q trades utilization
 * for reuse and scales worst.
 */

#include "bench_util.h"

#include "arch/accelerator.h"

using namespace procrustes;
using namespace procrustes::arch;

namespace {

Accelerator
mappedAccel(MappingKind mk, const ArrayConfig &cfg)
{
    CostOptions opts;
    opts.sparse = true;
    opts.balance = mk == MappingKind::CK ? BalanceMode::FullChip
                                         : BalanceMode::HalfTile;
    return {cfg, opts, mk};
}

} // namespace

int
main()
{
    bench::banner("Figure 20: 16x16 -> 32x32 scalability",
                  "Fig. 20 of MICRO 2020 Procrustes paper");

    const int64_t batch = 64;
    for (const NetworkModel &m :
         {buildResNet18(), buildMobileNetV2()}) {
        const EpochTrace epoch = syntheticEpoch(
            m, generateMasks(m, m.paperSparsity, 7), batch);

        std::printf("\n--- %s ---\n", m.name.c_str());
        // Panel 1: K,N energy per phase at both sizes.
        const NetworkCost e16 =
            mappedAccel(MappingKind::KN, ArrayConfig::baseline16())
                .evaluateTrace(epoch);
        const NetworkCost e32 =
            mappedAccel(MappingKind::KN, ArrayConfig::scaled32())
                .evaluateTrace(epoch);
        std::printf("K,N energy: fw %.3f/%.3f  bw %.3f/%.3f  wu "
                    "%.3f/%.3f J (16/32)\n",
                    e16.fw.totalEnergyJ(), e32.fw.totalEnergyJ(),
                    e16.bw.totalEnergyJ(), e32.bw.totalEnergyJ(),
                    e16.wu.totalEnergyJ(), e32.wu.totalEnergyJ());

        // Panels 2-3: energy and cycles per mapping at both sizes.
        std::printf("%-6s %14s %14s %10s\n", "map",
                    "cycles 16x16", "cycles 32x32", "speedup");
        for (MappingKind mk : kAllMappings) {
            const NetworkCost c16 =
                mappedAccel(mk, ArrayConfig::baseline16())
                    .evaluateTrace(epoch);
            const NetworkCost c32 =
                mappedAccel(mk, ArrayConfig::scaled32())
                    .evaluateTrace(epoch);
            std::printf("%-6s %14.4g %14.4g %9.2fx   (energy ratio "
                        "%.3f)\n",
                        mappingName(mk).c_str(), c16.totalCycles(),
                        c32.totalCycles(),
                        c16.totalCycles() / c32.totalCycles(),
                        c32.totalEnergyJ() / c16.totalEnergyJ());
        }
    }
    std::printf("\n(paper: ~3.9x speedup on 4x cores for K,N; energy "
                "differences negligible; P,Q scales worst)\n");
    return 0;
}
