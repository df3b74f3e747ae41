/**
 * @file
 * Internal implementations shared by the sparse-microkernel TUs.
 *
 * The scalar reference kernels live here as inlines, next to the
 * declarations of their AVX2 twins; both microkernel TUs are compiled
 * with -ffp-contract=off, so the inlined arithmetic rounds the same
 * way wherever it lands. The AVX2 entry points are defined in
 * sparse_microkernels_avx2.cc, which is compiled with -mavx2 only when
 * the compiler supports it (PROCRUSTES_HAVE_AVX2).
 *
 * Not installed API: include only from src/kernels/sparse_microkernels*.cc.
 */

#ifndef PROCRUSTES_KERNELS_SPARSE_MICROKERNELS_IMPL_H_
#define PROCRUSTES_KERNELS_SPARSE_MICROKERNELS_IMPL_H_

#include <algorithm>
#include <cmath>

#include "kernels/sparse_microkernels.h"

namespace procrustes {
namespace kernels {
namespace detail {

/**
 * Scalar conv plane kernel over one flattened tap run (weights
 * w[tap.v]) against a prepared source: tap-major loops, full plane per
 * tap (padding made every tap unclipped). Per destination element the
 * taps arrive in increasing t order — the exact accumulation sequence
 * the output-stationary AVX2 kernel replays in registers, so the two
 * are bitwise identical. The accumulate step is one fused multiply-add
 * (kFused, forward) or a rounded product then a rounded add
 * (backward-data). yplane accumulates (partial sums survive chunked
 * calls).
 */
template <bool kFused>
inline void
convPlaneRunScalar(const ConvRunTap *taps, int64_t ntaps, const float *w,
                   const float *xbase, float *yplane, int64_t xrs,
                   int64_t p_ext, int64_t q_ext)
{
    for (int64_t t = 0; t < ntaps; ++t) {
        const float wt = w[taps[t].v];
        for (int64_t p = 0; p < p_ext; ++p) {
            const float *xr = xbase + taps[t].xoff + p * xrs;
            float *yr = yplane + p * q_ext;
            for (int64_t q = 0; q < q_ext; ++q)
                yr[q] = kFused ? std::fmaf(wt, xr[q], yr[q])
                               : yr[q] + wt * xr[q];
        }
    }
}

/**
 * Scalar conv backward-weight group with the SIMD lane schedule: each
 * tap accumulates into its 8 lanes indexed by q mod 8 (exactly the
 * lanes an AVX2 register carries), tap by tap — the taps' chains are
 * independent, so only each tap's own (p, q) order matters, and it is
 * the AVX2 kernel's. Products with a zero x operand are accumulated:
 * they add an exact ±0, an identity on lanes that start at +0.
 */
inline void
convBwdWeightGroupScalar(const int32_t *xoff, int64_t ntaps,
                         const float *xbase, int64_t xrs,
                         const float *dybase, int64_t q_ext, int64_t rows,
                         int64_t cols, float *lanes)
{
    for (int64_t j = 0; j < ntaps; ++j) {
        float *lane = lanes + 8 * j;
        for (int64_t p = 0; p < rows; ++p) {
            const float *xr = xbase + xoff[j] + p * xrs;
            const float *gr = dybase + p * q_ext;
            for (int64_t q = 0; q < cols; ++q)
                lane[q & 7] += gr[q] * xr[q];
        }
    }
}

/**
 * Scalar padPhaseSplitPlane: padded column slot * stride + ph holds
 * source column slot * stride + ph - pad, so phase ph of a row copies
 * the in-range slots [lo, hi) with a strided read and zeroes the slots
 * on either side.
 */
inline void
padPhaseSplitPlaneScalar(const float *src, int64_t h, int64_t width,
                         int64_t stride, int64_t pad, int64_t slots,
                         float *dst)
{
    const int64_t row = slots * stride;
    std::fill(dst, dst + pad * row, 0.0f);
    for (int64_t hr = 0; hr < h; ++hr) {
        const float *srow = src + hr * width;
        float *drow = dst + (hr + pad) * row;
        for (int64_t ph = 0; ph < stride; ++ph) {
            float *d = drow + ph * slots;
            const int64_t lo = std::min(
                slots, ph >= pad ? 0 : (pad - ph + stride - 1) / stride);
            const int64_t hi = std::max(
                lo, ph < pad + width ? (pad + width - 1 - ph) / stride + 1
                                     : 0);
            std::fill(d, d + lo, 0.0f);
            const float *sp = srow + lo * stride + ph - pad;
            for (int64_t slot = lo; slot < hi; ++slot, sp += stride)
                d[slot] = *sp;
            std::fill(d + hi, d + slots, 0.0f);
        }
    }
    std::fill(dst + (h + pad) * row, dst + (h + 2 * pad) * row, 0.0f);
}

#ifdef PROCRUSTES_HAVE_AVX2
void padPhaseSplitPlaneAvx2(const float *src, int64_t h, int64_t width,
                            int64_t stride, int64_t pad, int64_t slots,
                            float *dst);
template <bool kFused>
void convPlaneRunAvx2(const ConvRunTap *taps, int64_t ntaps,
                      const float *w, const float *xbase, float *yplane,
                      int64_t xrs, int64_t p_ext, int64_t q_ext);
void convBwdWeightGroupAvx2(const int32_t *xoff, int64_t ntaps,
                           const float *xbase, int64_t xrs,
                           const float *dybase, int64_t q_ext,
                           int64_t rows, int64_t cols, float *lanes);
#endif // PROCRUSTES_HAVE_AVX2

} // namespace detail
} // namespace kernels
} // namespace procrustes

#endif // PROCRUSTES_KERNELS_SPARSE_MICROKERNELS_IMPL_H_
