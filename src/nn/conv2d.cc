#include "nn/conv2d.h"

#include <utility>

#include "kernels/conv_kernels.h"

namespace procrustes {
namespace nn {

namespace {

/** The [K, C, R, S] filter shape of a checked config. */
Shape
filterShape(const Conv2dConfig &cfg)
{
    PROCRUSTES_ASSERT(cfg.inChannels > 0 && cfg.outChannels > 0,
                      "conv channels must be positive");
    PROCRUSTES_ASSERT(cfg.kernel > 0 && cfg.stride > 0 && cfg.pad >= 0,
                      "bad conv geometry");
    return Shape{cfg.outChannels, cfg.inChannels, cfg.kernel, cfg.kernel};
}

} // namespace

Conv2d::Conv2d(const Conv2dConfig &cfg, const std::string &layer_name)
    : WeightLayer(layer_name, filterShape(cfg), cfg.stride, cfg.pad,
                  cfg.bias),
      cfg_(cfg)
{
}

void
Conv2d::checkInput(const Tensor &x) const
{
    const Shape &xs = x.shape();
    PROCRUSTES_ASSERT(xs.rank() == 4, "conv input must be NCHW");
    PROCRUSTES_ASSERT(xs[1] == cfg_.inChannels, "conv channel mismatch");
    // Guard before outExtent's division: a negative numerator truncates
    // toward zero, so the p > 0 checks downstream would not catch it.
    PROCRUSTES_ASSERT(xs[2] + 2 * cfg_.pad >= cfg_.kernel &&
                          xs[3] + 2 * cfg_.pad >= cfg_.kernel,
                      "kernel larger than padded input");
}

Tensor
Conv2d::forwardGemm(const Tensor &x)
{
    const kernels::ConvGeom g = kernels::convGeomFromTensors(
        x, weight_.value.shape(), cfg_.stride, cfg_.pad);
    return kernels::convForwardGemm(
        x, weight_.value, cfg_.bias ? &bias_.value : nullptr, g);
}

Tensor
Conv2d::backwardGemm(const Tensor &dy)
{
    const kernels::ConvGeom g = kernels::convGeomFromTensors(
        cachedInput_, weight_.value.shape(), cfg_.stride, cfg_.pad);
    return kernels::convBackwardGemm(cachedInput_, weight_.value, dy, g,
                                     &weight_.grad,
                                     cfg_.bias ? &bias_.grad : nullptr);
}

void
Conv2d::reportGeometry(LayerStepReport *out) const
{
    out->kind = LayerStepReport::Kind::Conv;
    out->batch = cachedInput_.shape()[0];
    out->K = cfg_.outChannels;
    out->C = cfg_.inChannels;
    out->R = cfg_.kernel;
    out->S = cfg_.kernel;
    out->P = cachedOutput_.shape()[2];
    out->Q = cachedOutput_.shape()[3];
    out->stride = cfg_.stride;
}

int64_t
Conv2d::csbWeightBytes() const
{
    return sparse::CsbTensor::encodeConvFilters(weight_.value).totalBytes();
}

Tensor
Conv2d::forwardNaive(const Tensor &x)
{
    const Shape &xs = x.shape();
    const int64_t n = xs[0];
    const int64_t c = xs[1];
    const int64_t h = xs[2];
    const int64_t w = xs[3];
    const int64_t k = cfg_.outChannels;
    const int64_t r = cfg_.kernel;
    const int64_t p = outExtent(h);
    const int64_t q = outExtent(w);
    PROCRUSTES_ASSERT(p > 0 && q > 0, "conv output would be empty");

    Tensor y(Shape{n, k, p, q});

    const float *px = x.data();
    const float *pw = std::as_const(weight_.value).data();
    const float *pb =
        cfg_.bias ? std::as_const(bias_.value).data() : nullptr;
    float *py = y.data();

    for (int64_t in = 0; in < n; ++in) {
        for (int64_t ok = 0; ok < k; ++ok) {
            const float b = pb ? pb[ok] : 0.0f;
            for (int64_t op = 0; op < p; ++op) {
                for (int64_t oq = 0; oq < q; ++oq) {
                    float acc = b;
                    for (int64_t ic = 0; ic < c; ++ic) {
                        for (int64_t ir = 0; ir < r; ++ir) {
                            const int64_t ih =
                                op * cfg_.stride + ir - cfg_.pad;
                            if (ih < 0 || ih >= h)
                                continue;
                            const float *xrow =
                                px + ((in * c + ic) * h + ih) * w;
                            const float *wrow =
                                pw + ((ok * c + ic) * r + ir) * r;
                            for (int64_t is = 0; is < r; ++is) {
                                const int64_t iw =
                                    oq * cfg_.stride + is - cfg_.pad;
                                if (iw < 0 || iw >= w)
                                    continue;
                                acc += xrow[iw] * wrow[is];
                            }
                        }
                    }
                    py[((in * k + ok) * p + op) * q + oq] = acc;
                }
            }
        }
    }
    return y;
}

Tensor
Conv2d::backwardNaive(const Tensor &dy)
{
    const Shape &xs = cachedInput_.shape();
    const int64_t n = xs[0];
    const int64_t c = xs[1];
    const int64_t h = xs[2];
    const int64_t w = xs[3];
    const int64_t k = cfg_.outChannels;
    const int64_t r = cfg_.kernel;
    const int64_t p = outExtent(h);
    const int64_t q = outExtent(w);

    Tensor dx(xs);
    // Const reads: a non-const data() would detach the COW alias and
    // deep-copy the cached activation batch.
    const float *px = std::as_const(cachedInput_).data();
    const float *pw = std::as_const(weight_.value).data();
    const float *pdy = dy.data();
    float *pdx = dx.data();
    float *pdw = weight_.grad.data();
    float *pdb = cfg_.bias ? bias_.grad.data() : nullptr;

    // Weight update pass: dW[k,c,r,s] += sum_{n,p,q} dy[n,k,p,q] *
    // x[n,c,p*stride+r-pad,q*stride+s-pad]; and backward pass:
    // dx[n,c,ih,iw] += sum dy[n,k,p,q] * w[k,c,r,s]. Both share the
    // same traversal, so fuse them.
    for (int64_t in = 0; in < n; ++in) {
        for (int64_t ok = 0; ok < k; ++ok) {
            for (int64_t op = 0; op < p; ++op) {
                for (int64_t oq = 0; oq < q; ++oq) {
                    const float g =
                        pdy[((in * k + ok) * p + op) * q + oq];
                    if (g == 0.0f)
                        continue;
                    for (int64_t ic = 0; ic < c; ++ic) {
                        for (int64_t ir = 0; ir < r; ++ir) {
                            const int64_t ih =
                                op * cfg_.stride + ir - cfg_.pad;
                            if (ih < 0 || ih >= h)
                                continue;
                            const float *xrow =
                                px + ((in * c + ic) * h + ih) * w;
                            float *dxrow =
                                pdx + ((in * c + ic) * h + ih) * w;
                            const int64_t wbase =
                                ((ok * c + ic) * r + ir) * r;
                            for (int64_t is = 0; is < r; ++is) {
                                const int64_t iw =
                                    oq * cfg_.stride + is - cfg_.pad;
                                if (iw < 0 || iw >= w)
                                    continue;
                                pdw[wbase + is] += g * xrow[iw];
                                dxrow[iw] += g * pw[wbase + is];
                            }
                        }
                    }
                    if (pdb)
                        pdb[ok] += g;
                }
            }
        }
    }
    return dx;
}

} // namespace nn
} // namespace procrustes
