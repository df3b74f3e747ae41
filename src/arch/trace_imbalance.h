/**
 * @file
 * Load-imbalance histograms (Figures 5 and 13), replayed from traced
 * layers.
 *
 * The paper characterizes imbalance as the execution-time overhead of
 * each full-PE-array working set: how much longer the slowest PE runs
 * than a perfectly balanced distribution of the same work. Figure 5
 * histograms these overheads for the unbalanced weight-stationary C,K
 * mapping; Figure 13 repeats the exercise after half-tile balancing
 * under the minibatch-spatial dataflow.
 *
 * The replay walks the wave plan of each layer of an EpochTrace
 * (arch/wave_plan.h, read from the epoch-final weight masks and the
 * activation vectors, the plan the cost model and the simulator read
 * too) and reduces every wave to its overhead under the same half-tile
 * balancer the hardware would use (reduceWave). The epoch is recorded
 * from a training run or drawn by the model zoo (syntheticEpoch).
 * Accelerator::evaluateTrace emits the balanced/unbalanced histograms
 * per epoch, which is what BENCH_cosim.json v3 records.
 */

#ifndef PROCRUSTES_ARCH_TRACE_IMBALANCE_H_
#define PROCRUSTES_ARCH_TRACE_IMBALANCE_H_

#include <cstdint>
#include <vector>

#include "arch/cost_model.h"
#include "arch/workload_trace.h"

namespace procrustes {
namespace arch {

/** A binned overhead distribution over working sets. */
struct ImbalanceHistogram
{
    double binWidth = 0.0;
    std::vector<double> fraction;   //!< per-bin fraction of working sets
    double meanOverhead = 0.0;
    double maxOverhead = 0.0;

    /** Fraction of working sets with overhead above `threshold`. */
    double fractionAbove(double threshold) const;
};

/**
 * Execution overhead of one working set of half-split tiles under a
 * balancing policy: slowest slot over the perfectly balanced latency,
 * minus one. `cheap_ok` gates the half-tile pairing exactly as the
 * cost model does (supportsCheapBalancing): a mapping that cannot
 * rebalance on the simple interconnect falls back to unbalanced
 * execution. Empty or zero-work working sets report zero overhead.
 */
double waveOverhead(const std::vector<TileHalves> &tiles,
                    BalanceMode balance, bool cheap_ok);

/** Bin overheads into a histogram with `bins` bins of `bin_width`. */
ImbalanceHistogram buildHistogram(const std::vector<double> &overheads,
                                  int bins, double bin_width);

/** Balanced-vs-unbalanced overhead distributions of one epoch. */
struct EpochImbalance
{
    ImbalanceHistogram unbalanced;   //!< BalanceMode::None
    ImbalanceHistogram balanced;     //!< the requested balancing policy
};

/**
 * Per-wave overheads, in issue order, of every layer of a traced epoch
 * in one phase. Half-tile balancing applies only where the mapping
 * admits it (supportsCheapBalancing), exactly like the cost model.
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
