/**
 * @file
 * Measured-mask load-balance replay: Figures 5 and 13 rebuilt from the
 * masks a real training run produced, not from synthetic profiles.
 *
 * collectOverheads answers "how imbalanced would this network be"
 * through synthetic LayerSparsityProfiles, whose activation statistics
 * are hash jitter. This module answers the question for a recorded
 * WorkloadTrace epoch: it walks the wave plan of each traced layer
 * (arch/wave_plan.h, read from the epoch-final weight masks and the
 * measured activation vectors, the plan the cost model and the
 * simulator read too) and
 * reduces every wave to its overhead under the same half-tile balancer
 * the hardware would use (reduceWave). Accelerator::evaluateTrace
 * emits the resulting balanced/unbalanced histograms per epoch, which
 * is what BENCH_cosim.json v3 records.
 */

#ifndef PROCRUSTES_ARCH_TRACE_IMBALANCE_H_
#define PROCRUSTES_ARCH_TRACE_IMBALANCE_H_

#include <cstdint>
#include <vector>

#include "arch/imbalance.h"
#include "arch/workload_trace.h"

namespace procrustes {
namespace arch {

/** Balanced-vs-unbalanced overhead distributions of one epoch. */
struct EpochImbalance
{
    ImbalanceHistogram unbalanced;   //!< BalanceMode::None
    ImbalanceHistogram balanced;     //!< the requested balancing policy
};

/**
 * Per-wave overheads, in issue order, of every layer of a traced epoch
 * in one phase — the measured-mask analogue of collectOverheads.
 * Half-tile balancing applies only where the mapping admits it
 * (supportsCheapBalancing), exactly like the cost model.
 */
std::vector<double>
collectMeasuredOverheads(const EpochTrace &epoch, Phase phase,
                         MappingKind mapping, const ArrayConfig &cfg,
                         BalanceMode balance);

/**
 * Balanced and unbalanced overhead histograms of one epoch, all three
 * training phases pooled (the balanced side uses `balance`, the
 * unbalanced side BalanceMode::None). Defaults match the Figure 5/13
 * binning. Balanced meanOverhead never exceeds unbalanced: the
 * original tiles are one feasible pairing of the same halves, so the
 * half-tile pairing can only lower every wave's maximum.
 */
EpochImbalance
measuredEpochImbalance(const EpochTrace &epoch, MappingKind mapping,
                       const ArrayConfig &cfg, BalanceMode balance,
                       int bins = 32, double bin_width = 0.05);

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_TRACE_IMBALANCE_H_
