/**
 * @file
 * Streaming quantile estimation (DUMIQUE) and its parallelized variant.
 *
 * Procrustes' key algorithmic move (Section III-B of the paper) is
 * replacing the global sort over all accumulated gradients — O(n log n)
 * comparisons over tens of millions of values — with a multiplicative
 * incremental quantile estimator (Yazidi & Hammer, IEEE Trans.
 * Cybernetics 2017). Every gradient magnitude updates a single running
 * threshold estimate; weights whose candidate accumulated gradient
 * exceeds the estimate are tracked, the rest are dropped back.
 *
 * The hardware QE unit processes up to four updates per cycle by
 * folding four incoming values into a single update (Algorithm 4
 * caption); ParallelQuantileEstimator models that.
 */

#ifndef PROCRUSTES_SPARSE_QUANTILE_H_
#define PROCRUSTES_SPARSE_QUANTILE_H_

#include <cstdint>

#include "common/logging.h"

namespace procrustes {
namespace sparse {

/**
 * DUMIQUE: deterministic update-based multiplicative incremental
 * quantile estimator for a stream of positive values.
 *
 * Update rule (Algorithm 4):
 *   if estimate < x:  estimate *= (1 + rho * q)
 *   else:             estimate *= (1 - rho * (1 - q))
 *
 * The estimate converges (in distribution) to the q-th quantile of the
 * input stream. The paper found accuracy insensitive to the initial
 * estimate and rho, and fixes them at 1e-6 and 1e-3 for all
 * experiments; those are the defaults here.
 */
class QuantileEstimator
{
  public:
    /**
     * @param q target quantile in (0, 1); e.g. 0.9 tracks the top 10%.
     * @param rho adjustment rate (paper: 1e-3).
     * @param initial_estimate starting estimate (paper: 1e-6).
     */
    explicit QuantileEstimator(double q, double rho = 1e-3,
                               double initial_estimate = 1e-6);

    /** Fold one observation into the estimate. x must be >= 0. */
    void
    update(double x)
    {
        if (estimate_ < x)
            estimate_ *= upFactor_;
        else
            estimate_ *= downFactor_;
        ++updates_;
    }

    /**
     * Fold a group of `width` observations, `above` of which exceed
     * the current estimate, as one update: the estimate moves up
     * `above` times and down `width - above` times, so a group of one
     * equals update().
     */
    void
    updateGroup(int above, int width)
    {
        for (int i = 0; i < above; ++i)
            estimate_ *= upFactor_;
        for (int i = above; i < width; ++i)
            estimate_ *= downFactor_;
        ++updates_;
    }

    /** Current estimate of the q-th quantile. */
    double estimate() const { return estimate_; }

    /** Target quantile. */
    double q() const { return q_; }

    /** Number of update() calls folded so far. */
    uint64_t updates() const { return updates_; }

  private:
    double q_;
    double estimate_;
    double upFactor_;
    double downFactor_;
    uint64_t updates_ = 0;
};

/**
 * Hardware-style wide quantile estimator: compares each of `width`
 * incoming values with the current estimate and folds the group into
 * the underlying DUMIQUE estimator as one update (one up step per
 * value above the estimate, one down step per value at or below it),
 * sustaining `width` gradient arrivals per cycle (the paper uses width
 * 4 to cover the peak rate of the last VGG-S conv layer). Every lane
 * applies the scalar rule against the estimate the group started
 * from, so the wide estimate tracks the same quantile of the stream.
 * Folding the group's average instead would track a quantile of the
 * group means, which sits well below the stream's high quantiles.
 */
class ParallelQuantileEstimator
{
  public:
    /** Construct with target quantile q and lane count `width`. */
    ParallelQuantileEstimator(double q, int width = 4, double rho = 1e-3,
                              double initial_estimate = 1e-6);

    /** Enqueue one observation; flushes every `width` observations. */
    void update(double x);

    /** Flush a partially filled buffer (end of a tensor stream). */
    void flush();

    /** Current estimate. */
    double estimate() const { return base_.estimate(); }

    /** Underlying scalar estimator (for tests). */
    const QuantileEstimator &base() const { return base_; }

  private:
    QuantileEstimator base_;
    int width_;
    int pending_ = 0;
    int pendingAbove_ = 0;   //!< pending values above the estimate
};

} // namespace sparse
} // namespace procrustes

#endif // PROCRUSTES_SPARSE_QUANTILE_H_
