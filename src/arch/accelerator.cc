#include "arch/accelerator.h"

#include <algorithm>
#include <initializer_list>

#include "common/logging.h"

namespace procrustes {
namespace arch {

PhaseCost
NetworkCost::total() const
{
    PhaseCost t;
    t += fw;
    t += bw;
    t += wu;
    return t;
}

NetworkCost
Accelerator::evaluateTrace(const WorkloadTrace &trace, size_t epoch_idx,
                           EpochImbalance *imbalance,
                           sim::TraceSimResult *cycle_sim,
                           const sim::SimConfig &sim_cfg) const
{
    return evaluateTrace(trace.epoch(epoch_idx), imbalance, cycle_sim,
                         sim_cfg);
}

NetworkCost
Accelerator::evaluateTrace(const EpochTrace &e, EpochImbalance *imbalance,
                           sim::TraceSimResult *cycle_sim,
                           const sim::SimConfig &sim_cfg) const
{
    PROCRUSTES_ASSERT(e.batchSize > 0, "trace has no batch size");

    NetworkCost cost;
    double analytic_ref = 0.0;
    for (const LayerTrace &l : e.layers) {
        // Measured executed-MAC counts stand in for the density
        // estimate only where they describe what this machine would
        // execute: a sparsity-exploiting accelerator on a layer whose
        // counts came from the zero-skipping CSB executors (Conv2d
        // and Linear under KernelBackend::kSparse). The dense
        // baseline executes the full operation space, and layers
        // trained on a dense backend report honest *dense* counts, so
        // both keep the modelled estimate.
        const bool use_measured =
            model_.options().sparse && l.sparseExecuted;
        // The weight image's measured byte counts apply regardless of
        // which backend executed: they describe what *this machine*
        // would store and stream for the run's real mask (dense
        // backends still record a telemetry-only encode). The cost
        // model picks the compressed or dense figure to match its own
        // configuration.
        MeasuredLayerStats fw, bw, wu;
        if (l.csbWeightBytes > 0) {
            fw.csbWeightBytes = static_cast<double>(l.csbWeightBytes);
            bw.csbWeightBytes = fw.csbWeightBytes;
            wu.csbWeightBytes = fw.csbWeightBytes;
        }
        if (l.denseWeightBytes > 0) {
            fw.denseWeightBytes =
                static_cast<double>(l.denseWeightBytes);
            bw.denseWeightBytes = fw.denseWeightBytes;
            wu.denseWeightBytes = fw.denseWeightBytes;
        }
        if (use_measured) {
            fw.macs = l.fwMacsPerStep();
            bw.macs = l.bwDataMacsPerStep();
            wu.macs = l.bwWeightMacsPerStep();
        }
        // Gradient-exchange traffic (scale-out runs only): the trace
        // sums wire bytes over the epoch, the model prices one step.
        // A sparsity-exploiting machine ships the mask-live packed
        // image; the dense baseline ships the dense twin.
        if (l.steps > 0) {
            const int64_t epoch_bytes =
                model_.options().sparse ? l.exchangeCompressedBytes
                                        : l.exchangeDenseBytes;
            wu.exchangeBytes = static_cast<double>(epoch_bytes) /
                               static_cast<double>(l.steps);
        }
        const double weight_density = l.weightDensity();
        const PhaseCost pc_fw =
            model_.evaluatePhase(l, weight_density, Phase::Forward,
                                 mapping_, e.batchSize, fw);
        const PhaseCost pc_bw =
            model_.evaluatePhase(l, weight_density, Phase::Backward,
                                 mapping_, e.batchSize, bw);
        const PhaseCost pc_wu =
            model_.evaluatePhase(l, weight_density, Phase::WeightUpdate,
                                 mapping_, e.batchSize, wu);
        cost.fw += pc_fw;
        cost.bw += pc_bw;
        cost.wu += pc_wu;
        // Refill-aware analytic reference for the cycle-sim ratio:
        // when the co-run SimConfig charges DRAM->GLB refill, bound
        // each phase below by the same words at the same rate
        // (overlap-aware, matching CostOptions::dramRefillWordsPerCycle
        // semantics); with refill off this is exactly computeCycles.
        for (const PhaseCost &pc : {pc_fw, pc_bw, pc_wu}) {
            double ref = pc.computeCycles;
            if (sim_cfg.dramWordsPerCycle > 0.0) {
                const double dwords =
                    pc.dramCycles * model_.config().dramWordsPerCycle();
                ref = std::max(ref,
                               dwords / sim_cfg.dramWordsPerCycle);
            }
            analytic_ref += ref;
        }
    }
    if (imbalance) {
        *imbalance = measuredEpochImbalance(
            e, mapping_, model_.config(), model_.options().balance);
    }
    if (cycle_sim) {
        *cycle_sim = sim::simulateTraceEpoch(e, mapping_, model_.config(),
                                             sim_cfg,
                                             model_.options().balance);
        cycle_sim->analyticComputeCycles = cost.total().computeCycles;
        cycle_sim->analyticRefCycles = analytic_ref;
        cycle_sim->analyticCycleRatio =
            cycle_sim->analyticRefCycles > 0.0
                ? static_cast<double>(cycle_sim->total.cycles) /
                      cycle_sim->analyticRefCycles
                : -1.0;
    }
    return cost;
}

Accelerator
Accelerator::procrustes(const ArrayConfig &cfg)
{
    CostOptions opts;
    opts.sparse = true;
    opts.balance = BalanceMode::HalfTile;
    return {cfg, opts, MappingKind::KN};
}

Accelerator
Accelerator::denseBaseline(const ArrayConfig &cfg)
{
    CostOptions opts;
    opts.sparse = false;
    opts.balance = BalanceMode::None;
    return {cfg, opts, MappingKind::KN};
}

Accelerator
Accelerator::idealSparse(const ArrayConfig &cfg)
{
    CostOptions opts;
    opts.sparse = true;
    opts.ideal = true;
    opts.balance = BalanceMode::FullChip;
    return {cfg, opts, MappingKind::KN};
}

} // namespace arch
} // namespace procrustes
