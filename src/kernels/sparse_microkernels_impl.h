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

/** Scalar fc forward for one sample (the original executor loop). */
inline void
fcFwdRowScalar(const int64_t *offsets, const int64_t *index,
               const float *value, int64_t groups, const float *xr,
               float *yr)
{
    for (int64_t o = 0; o < groups; ++o) {
        float acc = 0.0f;
        for (int64_t t = offsets[o]; t < offsets[o + 1]; ++t)
            acc += value[t] * xr[index[t]];
        yr[o] = acc;
    }
}

/** Scalar fc backward-data for one sample (zero-dy skip + tally). */
inline int64_t
fcBwdDataRowScalar(const int64_t *offsets, const int64_t *index,
                   const float *value, int64_t groups, const float *dyr,
                   float *dxr)
{
    int64_t macs = 0;
    for (int64_t i = 0; i < groups; ++i) {
        float acc = 0.0f;
        for (int64_t t = offsets[i]; t < offsets[i + 1]; ++t) {
            const float g = dyr[index[t]];
            if (g == 0.0f)
                continue;
            acc += value[t] * g;
            ++macs;
        }
        dxr[i] = acc;
    }
    return macs;
}

/**
 * Scalar fc tile kernels: lane l is sample l, accumulated in the same
 * per-lane tap order as the untiled reference — bitwise identical to
 * both the AVX2 tile kernel and the per-sample scalar loop.
 */
inline void
fcFwdTile8Scalar(const int64_t *offsets, const int64_t *index,
                 const float *value, int64_t groups, const float *xtile,
                 float *ytile)
{
    for (int64_t o = 0; o < groups; ++o) {
        float acc[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
        for (int64_t t = offsets[o]; t < offsets[o + 1]; ++t) {
            const float v = value[t];
            const float *xl = xtile + index[t] * 8;
            for (int l = 0; l < 8; ++l)
                acc[l] += v * xl[l];
        }
        float *yl = ytile + o * 8;
        for (int l = 0; l < 8; ++l)
            yl[l] = acc[l];
    }
}

inline int64_t
fcBwdDataTile8Scalar(const int64_t *offsets, const int64_t *index,
                     const float *value, int64_t groups,
                     const float *dytile, float *dxtile)
{
    int64_t macs = 0;
    for (int64_t i = 0; i < groups; ++i) {
        float acc[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
        for (int64_t t = offsets[i]; t < offsets[i + 1]; ++t) {
            const float v = value[t];
            const float *gl = dytile + index[t] * 8;
            for (int l = 0; l < 8; ++l) {
                acc[l] += v * gl[l];
                macs += gl[l] != 0.0f;
            }
        }
        float *dl = dxtile + i * 8;
        for (int l = 0; l < 8; ++l)
            dl[l] = acc[l];
    }
    return macs;
}

/** Scalar fc weight-update fill (the original skip loop). */
inline int64_t
fcWuFillScalar(const int32_t *idx32, const int32_t *row32, int64_t nnz,
               const float *xr, const float *dyr, float *slot)
{
    int64_t macs = 0;
    for (int64_t t = 0; t < nnz; ++t) {
        const float xv = xr[idx32[t]];
        if (xv == 0.0f) {
            slot[t] = 0.0f;
            continue;
        }
        slot[t] = dyr[row32[t]] * xv;
        ++macs;
    }
    return macs;
}

/** Scalar fc weight-update reduction (the original sample-order sum). */
inline void
fcWuReduceScalar(const int32_t *di32, const float *part, int64_t nnz,
                 int64_t samples, int64_t t0, int64_t t1, float *pdw)
{
    for (int64_t t = t0; t < t1; ++t) {
        const int64_t di = di32[t];
        float acc = pdw[di];
        for (int64_t s = 0; s < samples; ++s)
            acc += part[s * nnz + t];
        pdw[di] = acc;
    }
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
void fcFwdTile8Avx2(const int64_t *offsets, const int64_t *index,
                    const float *value, int64_t groups,
                    const float *xtile, float *ytile);
int64_t fcBwdDataTile8Avx2(const int64_t *offsets, const int64_t *index,
                           const float *value, int64_t groups,
                           const float *dytile, float *dxtile);
int64_t fcWuFillAvx2(const int32_t *idx32, const int32_t *row32,
                     int64_t nnz, const float *xr, const float *dyr,
                     float *slot);
void fcWuReduceAvx2(const int32_t *di32, const float *part, int64_t nnz,
                    int64_t samples, int64_t t0, int64_t t1, float *pdw);
#endif // PROCRUSTES_HAVE_AVX2

} // namespace detail
} // namespace kernels
} // namespace procrustes

#endif // PROCRUSTES_KERNELS_SPARSE_MICROKERNELS_IMPL_H_
