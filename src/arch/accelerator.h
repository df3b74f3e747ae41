/**
 * @file
 * Top-level accelerator roll-ups: whole-network, all-phase evaluation.
 *
 * Ties the cost model and the traced epoch it reads together into the
 * two machines the paper compares: the dense baseline training
 * accelerator (Table I, top) and Procrustes (Table I, bottom), plus
 * the Figure 1 idealization. The epoch is recorded from a training
 * run (arch/workload_trace.h) or drawn by the model zoo
 * (syntheticEpoch, arch/model_zoo.h); every machine, the dense
 * baseline included, evaluates the same one.
 */

#ifndef PROCRUSTES_ARCH_ACCELERATOR_H_
#define PROCRUSTES_ARCH_ACCELERATOR_H_

#include <string>
#include <vector>

#include "arch/cost_model.h"
#include "arch/model_zoo.h"
#include "arch/trace_imbalance.h"
#include "arch/workload_trace.h"
#include "sim/cycle_sim.h"

namespace procrustes {
namespace arch {

/** Whole-network cost, broken down by phase. */
struct NetworkCost
{
    PhaseCost fw;
    PhaseCost bw;
    PhaseCost wu;

    /** Sum across phases. */
    PhaseCost total() const;

    /** Total energy across all phases (J). */
    double totalEnergyJ() const { return total().totalEnergyJ(); }

    /** Total cycles across all phases. */
    double totalCycles() const { return total().cycles; }
};

/** One accelerator configuration under evaluation. */
class Accelerator
{
  public:
    /**
     * @param cfg array geometry and energies.
     * @param opts sparse / balance / ideal behaviour.
     * @param mapping spatial partitioning used for all phases (the
     *        paper selects K,N for Procrustes, Section VI-D).
     */
    Accelerator(const ArrayConfig &cfg, const CostOptions &opts,
                MappingKind mapping)
        : model_(cfg, opts), mapping_(mapping)
    {}

    /**
     * Evaluate one epoch — one training iteration at the epoch's own
     * batch size: CostModel::evaluatePhase of every LayerTrace in all
     * three phases, summed per phase. The cost model reads what the
     * trace measured (executed MACs, weight-image bytes, exchange
     * bytes) from the trace itself and decides where each applies.
     *
     * @param imbalance when non-null, receives the epoch's
     *        balanced/unbalanced load-imbalance histograms replayed
     *        from the same masks and activation densities
     *        (arch/trace_imbalance.h) under this accelerator's mapping
     *        and balancing policy, all three phases pooled.
     * @param cycle_sim when non-null, the cycle-level PE-array
     *        simulator (sim/cycle_sim.h) co-runs the same epoch —
     *        identical wave geometry, work from the same masks and
     *        activation vectors — and its per-phase results land
     *        here, with analyticCycleRatio set to simulated cycles
     *        over this model's analytic compute latency (the fidelity
     *        bound BENCH_cosim.json v4 records).
     * @param sim_cfg interconnect / GLB / FIFO geometry for the
     *        cycle-level co-run (ignored when cycle_sim is null).
     */
    NetworkCost evaluateTrace(const EpochTrace &epoch,
                              EpochImbalance *imbalance = nullptr,
                              sim::TraceSimResult *cycle_sim = nullptr,
                              const sim::SimConfig &sim_cfg = {}) const;

    /** evaluateTrace of epoch `epoch_idx` of a recorded trace. */
    NetworkCost evaluateTrace(const WorkloadTrace &trace,
                              size_t epoch_idx,
                              EpochImbalance *imbalance = nullptr,
                              sim::TraceSimResult *cycle_sim = nullptr,
                              const sim::SimConfig &sim_cfg = {}) const;

    const CostModel &costModel() const { return model_; }
    MappingKind mapping() const { return mapping_; }

    /** The paper's Procrustes configuration (sparse, K,N, half-tile). */
    static Accelerator procrustes(
        const ArrayConfig &cfg = ArrayConfig::baseline16());

    /** The dense baseline of Table I (no sparse training support). */
    static Accelerator denseBaseline(
        const ArrayConfig &cfg = ArrayConfig::baseline16());

    /** The Figure 1 idealization. */
    static Accelerator idealSparse(
        const ArrayConfig &cfg = ArrayConfig::baseline16());

  private:
    CostModel model_;
    MappingKind mapping_;
};

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_ACCELERATOR_H_
