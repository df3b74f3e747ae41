/**
 * @file
 * Scenario: cycle-level validation of the analytic model.
 *
 * Runs the clocked PE-array simulator (explicit row/column buses,
 * unicast network, per-cycle MAC issue) against the analytic cost
 * model on a small layer under several mappings/phases, then scales
 * the accelerator from 16x16 to 32x32 with the analytic model.
 */

#include <cstdio>

#include "arch/accelerator.h"
#include "sim/cycle_sim.h"
#include "sparse/mask.h"

using namespace procrustes;
using namespace procrustes::arch;

int
main()
{
    // A small conv layer with a skewed 25%-dense mask.
    const LayerShape layer = convLayer("demo", 32, 64, 3, 8);
    sparse::SyntheticMaskConfig mc;
    mc.targetDensity = 0.25;
    mc.kernelSigma = 0.6;
    mc.seed = 3;
    const LayerTrace traced = syntheticLayer(
        layer,
        sparse::makeSyntheticMask(layer.K, layer.effectiveC(), layer.R,
                                  layer.S, mc),
        0.5, 16);
    const double density = traced.weightDensity();

    const ArrayConfig acfg = ArrayConfig::baseline16();
    CostOptions opts;
    opts.sparse = true;
    opts.balance = BalanceMode::HalfTile;
    const CostModel analytic(acfg, opts);
    sim::SimConfig scfg;

    std::printf("cycle-level simulator vs analytic model "
                "(conv 32->64, 8x8, density %.2f):\n",
                density);
    std::printf("%-10s %-4s %12s %12s %8s %10s\n", "mapping", "phase",
                "analytic", "simulated", "delta", "stalls");
    for (MappingKind mk :
         {MappingKind::KN, MappingKind::CN, MappingKind::CK}) {
        for (Phase ph :
             {Phase::Forward, Phase::Backward, Phase::WeightUpdate}) {
            const double expected =
                analytic.evaluatePhase(traced, density, ph, mk, 16)
                    .computeCycles;
            const sim::SimResult r = sim::simulateTraceLayerPhase(
                traced, ph, mk, 16, acfg, scfg, BalanceMode::HalfTile);
            std::printf("%-10s %-4s %12.0f %12lld %+7.1f%% %10lld\n",
                        mappingName(mk).c_str(),
                        phaseName(ph).c_str(), expected,
                        static_cast<long long>(r.computeCycles),
                        100.0 * (static_cast<double>(r.computeCycles) /
                                     expected -
                                 1.0),
                        static_cast<long long>(r.stallCycles));
        }
    }

    // Analytic scalability sweep on a real network.
    std::printf("\nscaling ResNet18 training (analytic, K,N, batch "
                "64):\n");
    const NetworkModel rn = buildResNet18();
    const EpochTrace epoch =
        syntheticEpoch(rn, generateMasks(rn, rn.paperSparsity, 7), 64);
    const NetworkCost c16 =
        Accelerator::procrustes(ArrayConfig::baseline16())
            .evaluateTrace(epoch);
    const NetworkCost c32 =
        Accelerator::procrustes(ArrayConfig::scaled32())
            .evaluateTrace(epoch);
    std::printf("  16x16: %.4g cycles, %.3f J\n", c16.totalCycles(),
                c16.totalEnergyJ());
    std::printf("  32x32: %.4g cycles, %.3f J  (%.2fx speedup on 4x "
                "PEs)\n",
                c32.totalCycles(), c32.totalEnergyJ(),
                c16.totalCycles() / c32.totalCycles());
    return 0;
}
