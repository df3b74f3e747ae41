/**
 * @file
 * Scenario: architecture exploration — sweep the four spatial
 * mappings and three balancing policies over a chosen network and
 * report per-phase latency, energy, and the load-imbalance histogram.
 *
 * This is how a hardware designer would use the library: pick a
 * network, generate (or import) sparsity masks, and compare dataflow
 * candidates before committing to an interconnect.
 */

#include <cstdio>
#include <string>

#include "arch/accelerator.h"
#include "arch/trace_imbalance.h"

using namespace procrustes;
using namespace procrustes::arch;

int
main(int argc, char **argv)
{
    // Pick the network from the command line (default: VGG-S).
    const std::string which = argc > 1 ? argv[1] : "VGG-S";
    NetworkModel model;
    bool found = false;
    for (NetworkModel &m : allModels()) {
        if (m.name == which) {
            model = m;
            found = true;
        }
    }
    if (!found) {
        std::printf("unknown model '%s'; choose from:", which.c_str());
        for (const NetworkModel &m : allModels())
            std::printf(" %s", m.name.c_str());
        std::printf("\n");
        return 1;
    }

    const int64_t batch = 64;
    const EpochTrace epoch = syntheticEpoch(
        model, generateMasks(model, model.paperSparsity, 7), batch);
    std::printf("%s: %lld weights, %.1fx sparsity, batch %lld\n",
                model.name.c_str(),
                static_cast<long long>(model.denseWeights()),
                model.paperSparsity, static_cast<long long>(batch));

    std::printf("\nmapping x balancing sweep (total cycles / total "
                "J):\n%-6s", "");
    for (const char *bm : {"none", "half-tile", "full-chip"})
        std::printf(" %22s", bm);
    std::printf("\n");
    for (MappingKind mk : kAllMappings) {
        std::printf("%-6s", mappingName(mk).c_str());
        for (BalanceMode bm : {BalanceMode::None, BalanceMode::HalfTile,
                               BalanceMode::FullChip}) {
            CostOptions opts;
            opts.sparse = true;
            opts.balance = bm;
            const Accelerator acc(ArrayConfig::baseline16(), opts, mk);
            const NetworkCost c = acc.evaluateTrace(epoch);
            std::printf(" %11.4g/%9.3f", c.totalCycles(),
                        c.totalEnergyJ());
        }
        std::printf("\n");
    }

    std::printf("\nforward-pass imbalance histograms (fraction of "
                "working sets):\n");
    for (MappingKind mk : {MappingKind::CK, MappingKind::KN}) {
        for (BalanceMode bm :
             {BalanceMode::None, BalanceMode::HalfTile}) {
            const auto overheads = collectMeasuredOverheads(
                epoch, Phase::Forward, mk, ArrayConfig::baseline16(), bm);
            const ImbalanceHistogram h =
                buildHistogram(overheads, 8, 0.25);
            std::printf("  %s/%-9s mean %5.1f%% max %6.1f%% | bins:",
                        mappingName(mk).c_str(),
                        bm == BalanceMode::None ? "none" : "half-tile",
                        100.0 * h.meanOverhead,
                        100.0 * h.maxOverhead);
            for (double f : h.fraction)
                std::printf(" %4.1f%%", 100.0 * f);
            std::printf("\n");
        }
    }

    std::printf("\nrecommendation: K,N with half-tile balancing (the "
                "Procrustes design point)\n");
    return 0;
}
