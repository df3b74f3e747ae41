/**
 * @file
 * Figure 18: energy across the four spatial partitionings (PQ, CK,
 * CN, KN), dense vs sparse, per training phase, all five CNNs.
 *
 * Shape claim under test: sparsity saves energy under every mapping,
 * and the mapping choice itself barely moves energy ("the lion's
 * share of the energy use is the same across the different
 * dataflows") — the finding that lets Procrustes pick its mapping for
 * performance alone.
 */

#include "bench_util.h"

#include "arch/accelerator.h"

using namespace procrustes;
using namespace procrustes::arch;

namespace {

/** CK needs the complex interconnect to balance: FullChip mode. */
Accelerator
mappedAccel(MappingKind mk, bool sparse)
{
    CostOptions opts;
    opts.sparse = sparse;
    opts.balance = !sparse ? BalanceMode::None
                   : mk == MappingKind::CK ? BalanceMode::FullChip
                                           : BalanceMode::HalfTile;
    return {ArrayConfig::baseline16(), opts, mk};
}

} // namespace

int
main()
{
    bench::banner("Figure 18: energy across dataflows",
                  "Fig. 18 of MICRO 2020 Procrustes paper");

    const int64_t batch = 64;
    for (const NetworkModel &m : allModels()) {
        const EpochTrace epoch = syntheticEpoch(
            m, generateMasks(m, m.paperSparsity, 7), batch);

        std::printf("\n--- %s ---\n", m.name.c_str());
        std::printf("%-6s %-7s %10s %10s %10s %12s\n", "map", "mode",
                    "fw (J)", "bw (J)", "wu (J)", "total (J)");
        double lo = 1e300;
        double hi = 0.0;
        for (MappingKind mk : kAllMappings) {
            for (bool sparse : {false, true}) {
                const NetworkCost c =
                    mappedAccel(mk, sparse).evaluateTrace(epoch);
                std::printf("%-6s %-7s %10.4f %10.4f %10.4f %12.4f\n",
                            mappingName(mk).c_str(),
                            sparse ? "S" : "D", c.fw.totalEnergyJ(),
                            c.bw.totalEnergyJ(), c.wu.totalEnergyJ(),
                            c.totalEnergyJ());
                if (sparse) {
                    lo = std::min(lo, c.totalEnergyJ());
                    hi = std::max(hi, c.totalEnergyJ());
                }
            }
        }
        std::printf("sparse-mode spread across mappings: %.1f%%\n",
                    100.0 * (hi / lo - 1.0));
    }
    std::printf("\n(paper: variations across dataflows are "
                "negligible)\n");
    return 0;
}
