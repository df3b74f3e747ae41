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

#include <cmath>

#include "kernels/sparse_microkernels.h"

namespace procrustes {
namespace kernels {
namespace detail {

/**
 * Scalar conv plane kernel over one flattened tap run against a
 * prepared source: tap-major loops, full plane per tap (padding made
 * every tap unclipped). Per destination element the taps arrive in
 * increasing t order — the exact accumulation sequence the
 * output-stationary AVX2 kernel replays in registers, so the two are
 * bitwise identical. The accumulate step is one fused multiply-add
 * (kFused, forward) or a rounded product then a rounded add
 * (backward-data). yplane accumulates (partial sums survive chunked
 * calls).
 */
template <bool kFused>
inline void
convPlaneRunScalar(const ConvRunTap *taps, int64_t ntaps,
                   const float *xbase, float *yplane, int64_t xrs,
                   int64_t p_ext, int64_t q_ext)
{
    for (int64_t t = 0; t < ntaps; ++t) {
        const float wt = taps[t].w;
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
 * Scalar conv backward-weight with the SIMD lane schedule: each tap
 * accumulates into 8 lanes indexed by q mod 8 (exactly the lanes an
 * AVX2 register carries) and collapses them with the fixed binary tree
 * the vector hsum uses — so this reference is bitwise identical to
 * the AVX2 kernel, not merely close. Products with a zero x operand
 * are accumulated (they add an exact ±0, an identity on lanes that
 * start at +0) but not counted as executed MACs.
 */
inline int64_t
convBwdWeightBlockScalar(const ConvTap *taps, int64_t ntaps,
                         const float *x_chan, const float *dy_chan,
                         int64_t x_batch_stride, int64_t dy_batch_stride,
                         int64_t batch, int64_t in_w, int64_t stride,
                         int64_t q_ext, float *dw_block)
{
    const int64_t xrs = stride * in_w;
    int64_t macs = 0;
    for (int64_t t = 0; t < ntaps; ++t) {
        const ConvTap &tp = taps[t];
        float lane[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
        if (tp.nq > 0 && tp.pHi > tp.pLo) {
            for (int64_t in = 0; in < batch; ++in) {
                const float *xp = x_chan + in * x_batch_stride;
                const float *gp = dy_chan + in * dy_batch_stride;
                for (int64_t p = tp.pLo; p < tp.pHi; ++p) {
                    const float *xr = xp + p * xrs + tp.xoff;
                    const float *gr = gp + p * q_ext + tp.qLo;
                    for (int64_t q = 0; q < tp.nq; ++q) {
                        const float xv = xr[q * stride];
                        lane[q & 7] += gr[q] * xv;
                        macs += xv != 0.0f;
                    }
                }
            }
        }
        dw_block[tp.elem] += ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
                             ((lane[1] + lane[5]) + (lane[3] + lane[7]));
    }
    return macs;
}

#ifdef PROCRUSTES_HAVE_AVX2
template <bool kFused>
void convPlaneRunAvx2(const ConvRunTap *taps, int64_t ntaps,
                      const float *xbase, float *yplane, int64_t xrs,
                      int64_t p_ext, int64_t q_ext);
int64_t convBwdWeightBlockAvx2(const ConvTap *taps, int64_t ntaps,
                               const float *x_chan, const float *dy_chan,
                               int64_t x_batch_stride,
                               int64_t dy_batch_stride, int64_t batch,
                               int64_t in_w, int64_t stride,
                               int64_t q_ext, float *dw_block);
#endif // PROCRUSTES_HAVE_AVX2

} // namespace detail
} // namespace kernels
} // namespace procrustes

#endif // PROCRUSTES_KERNELS_SPARSE_MICROKERNELS_IMPL_H_
