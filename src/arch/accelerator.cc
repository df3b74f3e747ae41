#include "arch/accelerator.h"

#include <algorithm>
#include <utility>

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
    // Refill-aware analytic reference for the cycle-sim ratio: when
    // the co-run SimConfig charges DRAM->GLB refill, each phase is
    // bounded below by the model's DRAM words at the simulator's rate
    // (overlap-aware, matching CostOptions::dramRefillWordsPerCycle
    // semantics); with refill off this is exactly computeCycles.
    const bool refill_ref = cycle_sim && sim_cfg.dramWordsPerCycle > 0.0;
    double analytic_ref = 0.0;
    const std::pair<Phase, PhaseCost *> phases[] = {
        {Phase::Forward, &cost.fw},
        {Phase::Backward, &cost.bw},
        {Phase::WeightUpdate, &cost.wu}};
    for (const LayerTrace &l : e.layers) {
        const double weight_density = l.weightDensity();
        for (const auto &[phase, sum] : phases) {
            const PhaseCost pc = model_.evaluatePhase(
                l, weight_density, phase, mapping_, e.batchSize);
            *sum += pc;
            double ref = pc.computeCycles;
            if (refill_ref) {
                const double dwords =
                    phaseDramWords(l, weight_density, phase, e.batchSize,
                                   model_.options());
                ref = std::max(ref, dwords / sim_cfg.dramWordsPerCycle);
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
