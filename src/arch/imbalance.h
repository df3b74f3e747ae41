/**
 * @file
 * Load-imbalance histogram machinery (Figures 5 and 13).
 *
 * The paper characterizes imbalance as the execution-time overhead of
 * each full-PE-array working set: how much longer the slowest PE runs
 * than a perfectly balanced distribution of the same work. Figure 5
 * histograms these overheads for the unbalanced weight-stationary C,K
 * mapping; Figure 13 repeats the exercise after half-tile balancing
 * under the minibatch-spatial dataflow.
 */

#ifndef PROCRUSTES_ARCH_IMBALANCE_H_
#define PROCRUSTES_ARCH_IMBALANCE_H_

#include <vector>

#include "arch/cost_model.h"
#include "arch/model_zoo.h"

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
 * Collect per-wave overheads for every layer of a network in one phase
 * under one mapping/balancing configuration. Waves whose workload is
 * uniform by construction report zero overhead. Tile work comes from
 * the synthetic profiles; a recorded WorkloadTrace epoch goes through
 * the mask-direct replay in arch/trace_imbalance.h instead.
 */
std::vector<double>
collectOverheads(const NetworkModel &model,
                 const std::vector<LayerSparsityProfile> &profiles,
                 Phase phase, MappingKind mapping, int64_t batch,
                 const ArrayConfig &cfg, BalanceMode balance);

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

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_IMBALANCE_H_
