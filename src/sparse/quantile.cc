#include "sparse/quantile.h"

namespace procrustes {
namespace sparse {

QuantileEstimator::QuantileEstimator(double q, double rho,
                                     double initial_estimate)
    : q_(q),
      estimate_(initial_estimate),
      upFactor_(1.0 + rho * q),
      downFactor_(1.0 - rho * (1.0 - q))
{
    PROCRUSTES_ASSERT(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
    PROCRUSTES_ASSERT(rho > 0.0 && rho < 1.0, "rho must be in (0,1)");
    PROCRUSTES_ASSERT(initial_estimate > 0.0,
                      "initial estimate must be positive");
}

ParallelQuantileEstimator::ParallelQuantileEstimator(
    double q, int width, double rho, double initial_estimate)
    : base_(q, rho, initial_estimate), width_(width)
{
    PROCRUSTES_ASSERT(width >= 1, "width must be >= 1");
}

void
ParallelQuantileEstimator::update(double x)
{
    pendingAbove_ += base_.estimate() < x;
    if (++pending_ == width_)
        flush();
}

void
ParallelQuantileEstimator::flush()
{
    if (pending_ > 0) {
        base_.updateGroup(pendingAbove_, pending_);
        pending_ = 0;
        pendingAbove_ = 0;
    }
}

} // namespace sparse
} // namespace procrustes
