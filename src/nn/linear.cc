#include "nn/linear.h"

#include <utility>
#include <vector>

#include "kernels/gemm.h"
#include "sparse/sparse_conv.h"

namespace procrustes {
namespace nn {

Linear::Linear(int64_t in_features, int64_t out_features,
               const std::string &layer_name, bool with_bias)
    : inFeatures_(in_features),
      outFeatures_(out_features),
      hasBias_(with_bias),
      name_(layer_name),
      backend_(kernels::defaultKernelBackend())
{
    PROCRUSTES_ASSERT(in_features > 0 && out_features > 0,
                      "linear features must be positive");
    weight_.init(Shape{out_features, in_features}, name_ + ".weight",
                 /*can_prune=*/true);
    if (hasBias_) {
        bias_.init(Shape{out_features}, name_ + ".bias",
                   /*can_prune=*/false);
    }
}

std::vector<Param *>
Linear::params()
{
    std::vector<Param *> out{&weight_};
    if (hasBias_)
        out.push_back(&bias_);
    return out;
}

Tensor
Linear::forward(const Tensor &x, bool)
{
    const Shape &xs = x.shape();
    PROCRUSTES_ASSERT(xs.rank() == 2 && xs[1] == inFeatures_,
                      "linear input must be [N, in_features]");
    cachedInput_ = x;
    backwardSeen_ = false;
    Tensor y;
    if (backend_ == kernels::KernelBackend::kNaive)
        y = forwardNaive(x);
    else if (backend_ == kernels::KernelBackend::kSparse)
        y = forwardSparse(x);
    else
        y = forwardGemm(x);
    cachedOutput_ = y;   // COW alias for lazy density telemetry
    return y;
}

Tensor
Linear::backward(const Tensor &dy)
{
    const Shape &xs = cachedInput_.shape();
    PROCRUSTES_ASSERT(xs.rank() == 2, "backward before forward");
    PROCRUSTES_ASSERT(dy.shape() == Shape({xs[0], outFeatures_}),
                      "dy shape mismatch in linear backward");
    backwardSeen_ = true;
    if (backend_ == kernels::KernelBackend::kNaive)
        return backwardNaive(dy);
    if (backend_ == kernels::KernelBackend::kSparse)
        return backwardSparse(dy);
    return backwardGemm(dy);
}

bool
Linear::stepReport(LayerStepReport *out) const
{
    if (cachedInput_.shape().rank() != 2)
        return false;
    const int64_t n = cachedInput_.shape()[0];
    out->layerName = name_;
    out->kind = LayerStepReport::Kind::Linear;
    out->batch = n;
    out->K = outFeatures_;
    out->C = inFeatures_;

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
    out->csbWeightBytes =
        sparse::CsbTensor::encodeMatrix(weight_.value, kCsbBlockSide,
                                        storagePrecision_)
            .totalBytes();
    out->denseWeightBytes =
        sparse::CsbTensor::denseBytes(weight_.value.shape());

    out->hasMacs = backwardSeen_;
    if (!backwardSeen_)
        return true;
    if (backend_ == kernels::KernelBackend::kSparse && csbValid_) {
        // The conv executors' own tallies: weight-skip in fw, plus
        // dy-zero / activation-zero skipping in the backward phases.
        out->sparseExecuted = true;
        out->fwMacs = lastFwMacs_;
        out->bwDataMacs = lastBwDataMacs_;
        out->bwWeightMacs = lastBwWeightMacs_;
    } else {
        // Dense backends run the full [N, out, in] contraction in all
        // three phases.
        const int64_t dense = n * outFeatures_ * inFeatures_;
        out->fwMacs = dense;
        out->bwDataMacs = dense;
        out->bwWeightMacs = dense;
    }
    return true;
}

namespace {

/** [rows, cols] -> [1, cols, 1, rows]: the batch plane of a 1x1 conv. */
Tensor
toBatchPlane(const Tensor &t)
{
    const int64_t rows = t.shape()[0];
    const int64_t cols = t.shape()[1];
    Tensor out = Tensor::uninitialized(Shape{1, cols, 1, rows});
    kernels::transpose(t.data(), rows, cols, out.data());
    return out;
}

/** [1, cols, 1, rows] -> [rows, cols]: the inverse of toBatchPlane. */
Tensor
fromBatchPlane(const Tensor &t)
{
    const int64_t cols = t.shape()[1];
    const int64_t rows = t.shape()[3];
    Tensor out = Tensor::uninitialized(Shape{rows, cols});
    kernels::transpose(t.data(), cols, rows, out.data());
    return out;
}

} // namespace

Tensor
Linear::forwardSparse(const Tensor &x)
{
    // fc is the conv with R = S = P = Q = 1: the [O, I] weight encodes
    // as [O, I, 1, 1] filters and the batch becomes the output row, so
    // y = W x runs on the conv executors over the plane [1, I, 1, N].
    // Encode once per step, as Conv2d does; the packed tap geometry
    // survives across steps while the mask epoch and the batch size
    // hold.
    const int64_t n = x.shape()[0];
    Tensor w4 = weight_.value;   // COW alias: the reshape copies nothing
    w4.reshape(Shape{outFeatures_, inFeatures_, 1, 1});
    sparse::CsbTensor fresh =
        sparse::CsbTensor::encodeConvFilters(w4, storagePrecision_);
    const bool mask_same = csbValid_ && fresh.sameMaskAs(cachedCsb_) &&
                           cachedPack_.matches(1, n, 1, 0);
    cachedCsb_ = std::move(fresh);
    if (!mask_same)
        cachedPack_ = kernels::packConvTaps(cachedCsb_, 1, n, 1, 0);
    csbValid_ = true;
    if (storagePrecision_ == Precision::kBf16)
        cachedInput_ = bf16RoundedCopy(x);
    cachedPlane_ = toBatchPlane(cachedInput_);
    Tensor y = fromBatchPlane(sparse::sparseConvForward(
        cachedPlane_, cachedCsb_, 1, 0, &lastFwMacs_, &cachedPack_));
    if (hasBias_)
        addBias(&y);
    return y;
}

Tensor
Linear::backwardSparse(const Tensor &dy)
{
    PROCRUSTES_ASSERT(csbValid_, "sparse backward before sparse forward");
    const Tensor dyp = toBatchPlane(dy);
    Tensor dx = fromBatchPlane(sparse::sparseConvBackwardData(
        dyp, cachedCsb_, cachedPlane_.shape(), 1, 0, &lastBwDataMacs_,
        &cachedPack_));
    // Weight-update pass through the same CSB blocks: only mask-live
    // positions accumulate gradient, pruned weights stay frozen. The
    // executor writes through an [O, I, 1, 1] view of the gradient
    // itself (a reshaped copy would detach on write and drop it).
    weight_.grad.reshape(cachedCsb_.denseShape());
    sparse::sparseConvBackwardWeights(cachedPlane_, dyp, cachedCsb_, 1, 0,
                                      &weight_.grad, &lastBwWeightMacs_,
                                      &cachedPack_);
    weight_.grad.reshape(weight_.value.shape());
    if (hasBias_)
        accumulateBiasGrad(dy);
    return dx;
}

void
Linear::addBias(Tensor *y) const
{
    const int64_t n = y->shape()[0];
    const float *pb = std::as_const(bias_.value).data();
    float *py = y->data();
    for (int64_t in = 0; in < n; ++in) {
        float *row = py + in * outFeatures_;
        for (int64_t o = 0; o < outFeatures_; ++o)
            row[o] += pb[o];
    }
}

void
Linear::accumulateBiasGrad(const Tensor &dy)
{
    const int64_t n = dy.shape()[0];
    const float *pdy = dy.data();
    float *pdb = bias_.grad.data();
    for (int64_t o = 0; o < outFeatures_; ++o) {
        float acc = 0.0f;
        for (int64_t in = 0; in < n; ++in)
            acc += pdy[in * outFeatures_ + o];
        pdb[o] += acc;
    }
}

Tensor
Linear::forwardGemm(const Tensor &x)
{
    const int64_t n = x.shape()[0];
    Tensor y(Shape{n, outFeatures_});

    // y = x * W^T: materialize W^T once so the GEMM streams unit-stride
    // (member scratch avoids a per-batch allocation; const reads avoid
    // COW detaches).
    wtScratch_.resize(static_cast<size_t>(inFeatures_ * outFeatures_));
    kernels::transpose(std::as_const(weight_.value).data(), outFeatures_,
                       inFeatures_, wtScratch_.data());
    kernels::gemm(n, outFeatures_, inFeatures_, x.data(),
                  wtScratch_.data(), y.data(), /*accumulate=*/false);

    if (hasBias_)
        addBias(&y);
    return y;
}

Tensor
Linear::backwardGemm(const Tensor &dy)
{
    const int64_t n = cachedInput_.shape()[0];
    Tensor dx(cachedInput_.shape());

    // dx = dy * W (both already in the right layout).
    kernels::gemm(n, inFeatures_, outFeatures_, dy.data(),
                  std::as_const(weight_.value).data(), dx.data(),
                  /*accumulate=*/false);

    // dW += dy^T * x. The cached input is read through a const view so
    // the COW alias never detaches into a deep copy here.
    dytScratch_.resize(static_cast<size_t>(n * outFeatures_));
    kernels::transpose(dy.data(), n, outFeatures_, dytScratch_.data());
    kernels::gemm(outFeatures_, inFeatures_, n, dytScratch_.data(),
                  std::as_const(cachedInput_).data(),
                  weight_.grad.data(), /*accumulate=*/true);

    if (hasBias_)
        accumulateBiasGrad(dy);
    return dx;
}

Tensor
Linear::forwardNaive(const Tensor &x)
{
    const int64_t n = x.shape()[0];
    Tensor y(Shape{n, outFeatures_});
    const float *px = x.data();
    const float *pw = std::as_const(weight_.value).data();
    const float *pb =
        hasBias_ ? std::as_const(bias_.value).data() : nullptr;
    float *py = y.data();
    for (int64_t in = 0; in < n; ++in) {
        const float *xr = px + in * inFeatures_;
        for (int64_t o = 0; o < outFeatures_; ++o) {
            const float *wr = pw + o * inFeatures_;
            float acc = pb ? pb[o] : 0.0f;
            for (int64_t i = 0; i < inFeatures_; ++i)
                acc += xr[i] * wr[i];
            py[in * outFeatures_ + o] = acc;
        }
    }
    return y;
}

Tensor
Linear::backwardNaive(const Tensor &dy)
{
    const Shape &xs = cachedInput_.shape();
    const int64_t n = xs[0];

    Tensor dx(xs);
    const float *px = std::as_const(cachedInput_).data();
    const float *pw = std::as_const(weight_.value).data();
    const float *pdy = dy.data();
    float *pdx = dx.data();
    float *pdw = weight_.grad.data();
    float *pdb = hasBias_ ? bias_.grad.data() : nullptr;

    for (int64_t in = 0; in < n; ++in) {
        const float *xr = px + in * inFeatures_;
        float *dxr = pdx + in * inFeatures_;
        for (int64_t o = 0; o < outFeatures_; ++o) {
            const float g = pdy[in * outFeatures_ + o];
            if (g == 0.0f)
                continue;
            const float *wr = pw + o * inFeatures_;
            float *dwr = pdw + o * inFeatures_;
            for (int64_t i = 0; i < inFeatures_; ++i) {
                dwr[i] += g * xr[i];
                dxr[i] += g * wr[i];
            }
            if (pdb)
                pdb[o] += g;
        }
    }
    return dx;
}

} // namespace nn
} // namespace procrustes
