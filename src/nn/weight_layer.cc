#include "nn/weight_layer.h"

#include <utility>

#include "sparse/sparse_conv.h"

namespace procrustes {
namespace nn {

WeightLayer::WeightLayer(const std::string &layer_name,
                         const Shape &weight_shape, int64_t stride,
                         int64_t pad, bool with_bias)
    : name_(layer_name),
      hasBias_(with_bias),
      filterShape_(weight_shape.rank() == 4
                       ? weight_shape
                       : Shape{weight_shape[0], weight_shape[1], 1, 1}),
      stride_(stride),
      pad_(pad),
      backend_(kernels::defaultKernelBackend()),
      forwardBackend_(backend_)
{
    weight_.init(weight_shape, name_ + ".weight", /*can_prune=*/true);
    if (hasBias_) {
        bias_.init(Shape{weight_shape[0]}, name_ + ".bias",
                   /*can_prune=*/false);
    }
}

std::vector<Param *>
WeightLayer::params()
{
    std::vector<Param *> out{&weight_};
    if (hasBias_)
        out.push_back(&bias_);
    return out;
}

Tensor
WeightLayer::forward(const Tensor &x, bool)
{
    checkInput(x);
    cachedInput_ = x;   // COW alias: no activation copy happens here
    forwardBackend_ = backend_;
    backwardSeen_ = false;
    Tensor y;
    if (backend_ == kernels::KernelBackend::kSparse)
        y = forwardSparse(x);
    else if (backend_ == kernels::KernelBackend::kGemm)
        y = forwardGemm(x);
    else
        y = forwardNaive(x);
    cachedOutput_ = y;   // COW alias for lazy density telemetry
    return y;
}

Tensor
WeightLayer::backward(const Tensor &dy)
{
    PROCRUSTES_ASSERT(cachedInput_.shape().rank() > 0,
                      "backward before forward");
    // The kSparse backward reads the CSB image its forward encoded; on
    // any other forward that image belongs to an earlier step.
    PROCRUSTES_ASSERT(backend_ == forwardBackend_,
                      "backend changed between forward and backward");
    PROCRUSTES_ASSERT(dy.shape() == cachedOutput_.shape(),
                      "dy shape mismatch in " + name_ + " backward");
    backwardSeen_ = true;
    if (backend_ == kernels::KernelBackend::kSparse)
        return backwardSparse(dy);
    if (backend_ == kernels::KernelBackend::kGemm)
        return backwardGemm(dy);
    return backwardNaive(dy);
}

bool
WeightLayer::stepReport(LayerStepReport *out) const
{
    if (cachedInput_.shape().rank() == 0)
        return false;
    out->layerName = name_;
    reportGeometry(out);

    measureInputDensities(cachedInput_, out);
    out->outputDensity =
        cachedOutput_.numel() ? 1.0 - cachedOutput_.zeroFraction() : 1.0;

    out->hasMask = true;
    out->mask = sparse::SparsityMask::fromTensor(weight_.value);

    // Compressed footprint of the live weights (the CSB image the
    // accelerator would stream). Always encoded fresh — the report is
    // sampled after the optimizer update that closed the step, so the
    // bytes must describe the same post-update weights as the mask
    // above, not the forward-time cachedCsb_ (a prune event in the
    // update would make the two disagree). stepReport is telemetry-
    // only O(numel) work, so the extra encode is acceptable.
    out->hasWeightBytes = true;
    out->csbWeightBytes = csbWeightBytes();
    out->denseWeightBytes =
        sparse::CsbTensor::denseBytes(weight_.value.shape());

    out->hasMacs = backwardSeen_;
    if (!backwardSeen_)
        return true;
    if (forwardBackend_ == kernels::KernelBackend::kSparse) {
        // The executors' own tallies: weight-skip in fw, plus dy-zero /
        // activation-zero skipping in the two backward phases.
        out->sparseExecuted = true;
        out->fwMacs = lastFwMacs_;
        out->bwDataMacs = lastBwDataMacs_;
        out->bwWeightMacs = lastBwWeightMacs_;
    } else {
        // Dense backends execute the full operation space, padding
        // zeros included, in every phase.
        const int64_t dense = out->batch * out->K * out->C * out->R *
                              out->S * out->P * out->Q;
        out->fwMacs = dense;
        out->bwDataMacs = dense;
        out->bwWeightMacs = dense;
    }
    return true;
}

Tensor
WeightLayer::forwardSparse(const Tensor &x)
{
    // Encode once per step: the weights cannot change between this
    // forward and the matching backward, so the backward passes reuse
    // the same compressed blocks (as the accelerator streams one CSB
    // image of the weights through all three phases). The tap pack, the
    // layout all three phases stream, additionally survives *across*
    // steps: while the mask and input geometry are unchanged, only the
    // values differ, and the pack names each weight by its index into
    // the CsbTensor's values, which the executors read each call.
    Tensor filters = weight_.value;   // COW alias: reshaping copies nothing
    filters.reshape(filterShape_);
    sparse::CsbTensor fresh = sparse::CsbTensor::encodeConvFilters(filters);
    convInput_ = toConvPlane(x);
    const int64_t in_h = convInput_.shape()[2];
    const int64_t in_w = convInput_.shape()[3];
    const bool mask_same = cachedPack_.valid() &&
                           fresh.sameMaskAs(cachedCsb_) &&
                           cachedPack_.matches(in_h, in_w, stride_, pad_);
    cachedCsb_ = std::move(fresh);
    if (!mask_same) {
        cachedPack_ =
            sparse::packConvTaps(cachedCsb_, in_h, in_w, stride_, pad_);
    }
    Tensor y = fromConvPlane(sparse::sparseConvForward(
        convInput_, cachedCsb_, stride_, pad_, &lastFwMacs_, &cachedPack_));
    if (hasBias_)
        addBias(&y);
    return y;
}

Tensor
WeightLayer::backwardSparse(const Tensor &dy)
{
    const Tensor dyc = toConvPlane(dy);
    Tensor dx = fromConvPlane(sparse::sparseConvBackwardData(
        dyc, cachedCsb_, convInput_.shape(), stride_, pad_,
        &lastBwDataMacs_, &cachedPack_));
    // Weight-update pass through the same CSB blocks: only mask-live
    // positions accumulate gradient, pruned weights stay frozen. The
    // executor writes through a filter-shaped view of the gradient
    // itself (a reshaped copy would detach on write and drop it).
    weight_.grad.reshape(filterShape_);
    sparse::sparseConvBackwardWeights(convInput_, dyc, cachedCsb_, stride_,
                                      pad_, &weight_.grad,
                                      &lastBwWeightMacs_, &cachedPack_);
    weight_.grad.reshape(weight_.value.shape());
    if (hasBias_)
        accumulateBiasGrad(dy);
    return dx;
}

void
WeightLayer::addBias(Tensor *y) const
{
    const Shape &ys = y->shape();
    const int64_t n = ys[0];
    const int64_t k = ys[1];
    const int64_t inner = n * k > 0 ? ys.numel() / (n * k) : 0;
    const float *pb = std::as_const(bias_.value).data();
    float *py = y->data();
    for (int64_t in = 0; in < n; ++in) {
        for (int64_t ok = 0; ok < k; ++ok) {
            const float b = pb[ok];
            float *row = py + (in * k + ok) * inner;
            for (int64_t j = 0; j < inner; ++j)
                row[j] += b;
        }
    }
}

void
WeightLayer::accumulateBiasGrad(const Tensor &dy)
{
    const Shape &dys = dy.shape();
    const int64_t n = dys[0];
    const int64_t k = dys[1];
    const int64_t inner = n * k > 0 ? dys.numel() / (n * k) : 0;
    const float *pdy = dy.data();
    float *pdb = bias_.grad.data();
    for (int64_t ok = 0; ok < k; ++ok) {
        float acc = 0.0f;
        for (int64_t in = 0; in < n; ++in) {
            const float *row = pdy + (in * k + ok) * inner;
            for (int64_t j = 0; j < inner; ++j)
                acc += row[j];
        }
        pdb[ok] += acc;
    }
}

} // namespace nn
} // namespace procrustes
