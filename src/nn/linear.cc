#include "nn/linear.h"

#include <utility>
#include <vector>

#include "kernels/gemm.h"

namespace procrustes {
namespace nn {

namespace {

/** The [out, in] weight shape of checked feature counts. */
Shape
weightShape(int64_t in_features, int64_t out_features)
{
    PROCRUSTES_ASSERT(in_features > 0 && out_features > 0,
                      "linear features must be positive");
    return Shape{out_features, in_features};
}

} // namespace

Linear::Linear(int64_t in_features, int64_t out_features,
               const std::string &layer_name, bool with_bias)
    : WeightLayer(layer_name, weightShape(in_features, out_features),
                  /*stride=*/1, /*pad=*/0, with_bias),
      inFeatures_(in_features),
      outFeatures_(out_features)
{
}

void
Linear::checkInput(const Tensor &x) const
{
    const Shape &xs = x.shape();
    PROCRUSTES_ASSERT(xs.rank() == 2 && xs[1] == inFeatures_,
                      "linear input must be [N, in_features]");
}

void
Linear::reportGeometry(LayerStepReport *out) const
{
    out->kind = LayerStepReport::Kind::Linear;
    out->batch = cachedInput_.shape()[0];
    out->K = outFeatures_;
    out->C = inFeatures_;
    out->R = out->S = out->P = out->Q = out->stride = 1;
}

int64_t
Linear::csbWeightBytes() const
{
    return sparse::CsbTensor::encodeMatrix(weight_.value, kCsbBlockSide)
        .totalBytes();
}

/** [rows, cols] -> [1, cols, 1, rows]: the batch plane of a 1x1 conv. */
Tensor
Linear::toConvPlane(const Tensor &t) const
{
    const int64_t rows = t.shape()[0];
    const int64_t cols = t.shape()[1];
    Tensor out = Tensor::uninitialized(Shape{1, cols, 1, rows});
    kernels::transpose(t.data(), rows, cols, out.data());
    return out;
}

/** [1, cols, 1, rows] -> [rows, cols]: the inverse of toConvPlane. */
Tensor
Linear::fromConvPlane(const Tensor &t) const
{
    const int64_t cols = t.shape()[1];
    const int64_t rows = t.shape()[3];
    Tensor out = Tensor::uninitialized(Shape{rows, cols});
    kernels::transpose(t.data(), cols, rows, out.data());
    return out;
}

Tensor
Linear::forwardGemm(const Tensor &x)
{
    const int64_t n = x.shape()[0];
    // gemm(accumulate=false) writes every element before the bias add.
    Tensor y = Tensor::uninitialized(Shape{n, outFeatures_});

    // y = x * W^T: materialize W^T once so the GEMM streams unit-stride
    // (member scratch avoids a per-batch allocation; const reads avoid
    // COW detaches).
    wtScratch_.resize(static_cast<size_t>(inFeatures_ * outFeatures_));
    kernels::transpose(std::as_const(weight_.value).data(), outFeatures_,
                       inFeatures_, wtScratch_.data());
    kernels::gemm(n, outFeatures_, inFeatures_, x.data(),
                  wtScratch_.data(), y.data(), /*accumulate=*/false);

    if (hasBias())
        addBias(&y);
    return y;
}

Tensor
Linear::backwardGemm(const Tensor &dy)
{
    const int64_t n = cachedInput_.shape()[0];
    Tensor dx = Tensor::uninitialized(cachedInput_.shape());

    // dx = dy * W (both already in the right layout); gemm overwrites
    // every element.
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

    if (hasBias())
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
        hasBias() ? std::as_const(bias_.value).data() : nullptr;
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
    float *pdb = hasBias() ? bias_.grad.data() : nullptr;

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
