/**
 * @file
 * Figure 19: training latency (cycles) across the four spatial
 * partitionings, dense vs sparse, per phase, all five CNNs.
 *
 * Shape claims under test: the minibatch-spatial mappings (C,N and
 * K,N) are fastest because they load-balance on the simple
 * interconnect; K,N edges out C,N via first-layer utilization; C,K
 * lags despite its complex balancing network (few-channel layers);
 * activation-stationary P,Q is slowest overall.
 */

#include "bench_util.h"

#include "arch/accelerator.h"

using namespace procrustes;
using namespace procrustes::arch;

namespace {

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
    bench::banner("Figure 19: training latency across dataflows",
                  "Fig. 19 of MICRO 2020 Procrustes paper");

    const int64_t batch = 64;
    for (const NetworkModel &m : allModels()) {
        const EpochTrace epoch = syntheticEpoch(
            m, generateMasks(m, m.paperSparsity, 7), batch);

        std::printf("\n--- %s ---\n", m.name.c_str());
        std::printf("%-6s %-7s %12s %12s %12s %14s\n", "map", "mode",
                    "fw (cyc)", "bw (cyc)", "wu (cyc)", "total (cyc)");
        for (MappingKind mk : kAllMappings) {
            for (bool sparse : {false, true}) {
                const NetworkCost c =
                    mappedAccel(mk, sparse).evaluateTrace(epoch);
                std::printf(
                    "%-6s %-7s %12.4g %12.4g %12.4g %14.4g\n",
                    mappingName(mk).c_str(), sparse ? "S" : "D",
                    c.fw.cycles, c.bw.cycles, c.wu.cycles,
                    c.totalCycles());
            }
        }
    }
    std::printf("\n(paper: K,N fastest, C,N close, C,K behind, P,Q "
                "slowest)\n");
    return 0;
}
