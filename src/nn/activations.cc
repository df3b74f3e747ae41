#include "nn/activations.h"

#include <atomic>

#include "common/math_utils.h"
#include "common/thread_pool.h"

namespace procrustes {
namespace nn {

namespace {

/** Elements per pool task (64 KiB of floats): small tensors run inline. */
constexpr int64_t kGrain = int64_t{1} << 14;

/** y = x where x > 0, else +0 (also for -0 and NaN); returns how many
    x were > 0. */
int64_t
reluForward(const float *__restrict x, float *__restrict y, int64_t n)
{
    int64_t positives = 0;
    forEachBlocked8(n, [&](int64_t i) {
        const bool pos = x[i] > 0.0f;
        y[i] = pos ? x[i] : 0.0f;
        positives += pos;
    });
    return positives;
}

/**
 * dx = dy * keep, keep = 1 where y > 0 (exactly where x > 0) else 0.
 * A multiply rather than a select, so a dropped dy of -3 or NaN still
 * yields -0 or NaN: the bits of the float-mask product it replaces.
 */
void
reluBackward(const float *__restrict dy, const float *__restrict y,
             float *__restrict dx, int64_t n)
{
    forEachBlocked8(n, [&](int64_t i) {
        const float keep = y[i] > 0.0f ? 1.0f : 0.0f;
        dx[i] = dy[i] * keep;
    });
}

} // namespace

Tensor
ReLU::forward(const Tensor &x, bool)
{
    Tensor y = Tensor::uninitialized(x.shape());
    const float *px = x.data();
    float *py = y.data();
    const int64_t n = x.numel();
    std::atomic<int64_t> positives{0};
    ThreadPool::global().parallelFor(
        0, n,
        [&](int64_t b, int64_t e) {
            positives += reluForward(px + b, py + b, e - b);
        },
        kGrain);
    lastSparsity_ = n ? static_cast<double>(n - positives) /
                            static_cast<double>(n)
                      : 0.0;
    output_ = y;
    return y;
}

bool
ReLU::stepReport(LayerStepReport *out) const
{
    if (output_.numel() == 0)
        return false;
    out->layerName = name_;
    out->kind = LayerStepReport::Kind::Activation;
    out->batch = output_.shape().rank() > 0 ? output_.shape()[0] : 0;
    out->outputDensity = 1.0 - lastSparsity_;
    return true;
}

Tensor
ReLU::backward(const Tensor &dy)
{
    // Read the cached output through a const reference: a mutable
    // data() would detach it from the tensor forward() returned, i.e.
    // copy the whole activation.
    const Tensor &y = output_;
    PROCRUSTES_ASSERT(dy.shape() == y.shape(),
                      "dy shape mismatch in relu backward");
    Tensor dx = Tensor::uninitialized(dy.shape());
    const float *pdy = dy.data();
    const float *py = y.data();
    float *pdx = dx.data();
    ThreadPool::global().parallelFor(
        0, dy.numel(),
        [&](int64_t b, int64_t e) {
            reluBackward(pdy + b, py + b, pdx + b, e - b);
        },
        kGrain);
    return dx;
}

} // namespace nn
} // namespace procrustes
