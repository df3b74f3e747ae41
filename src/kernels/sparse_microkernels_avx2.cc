/**
 * @file
 * AVX2 definitions of the sparse microkernels.
 *
 * Compiled with -mavx2 -mfma -ffp-contract=off (per-file, so the rest
 * of the library keeps its host flags and the MARCH_NATIVE=OFF
 * sanitizer build still gets vector kernels). Rounding is symmetric
 * with the scalar reference by construction: the conv forward kernel
 * uses an explicit _mm256_fmadd_ps mirrored by std::fmaf in the
 * scalar loop (both round the fused product-sum once); every other
 * accumulation, conv backward-data included, uses explicit
 * _mm256_add_ps(_mm256_mul_ps(...)) — never a compiler-contracted FMA
 * — so each product is rounded exactly once, like its scalar
 * counterpart.
 *
 * Bitwise-parity invariants (see sparse_microkernels.h):
 *   - lanes are independent outputs (fwd, bwd-data), or
 *   - the lane schedule + reduction tree is mirrored by the scalar
 *     reference (bwd-weight).
 * Zero operands are multiplied instead of skipped; the executed-MAC
 * tallies count them out via compare + movemask + popcount.
 */

#ifdef PROCRUSTES_HAVE_AVX2

#include <immintrin.h>

#include "kernels/sparse_microkernels_impl.h"

namespace procrustes {
namespace kernels {
namespace detail {

namespace {

/** Lane masks for 0..7 active tail lanes (high bit set = active). */
alignas(32) const int32_t kTailMask[8][8] = {
    {0, 0, 0, 0, 0, 0, 0, 0},
    {-1, 0, 0, 0, 0, 0, 0, 0},
    {-1, -1, 0, 0, 0, 0, 0, 0},
    {-1, -1, -1, 0, 0, 0, 0, 0},
    {-1, -1, -1, -1, 0, 0, 0, 0},
    {-1, -1, -1, -1, -1, 0, 0, 0},
    {-1, -1, -1, -1, -1, -1, 0, 0},
    {-1, -1, -1, -1, -1, -1, -1, 0},
};

inline __m256i
tailMask(int64_t rem)
{
    return _mm256_load_si256(
        reinterpret_cast<const __m256i *>(kTailMask[rem]));
}

/** Gather indices {0, stride, ..., 7*stride} for strided x rows. */
inline __m256i
strideIndex(int64_t stride)
{
    const int32_t s = static_cast<int32_t>(stride);
    return _mm256_setr_epi32(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s,
                             7 * s);
}

/**
 * Fixed horizontal-sum tree: ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)),
 * mirrored exactly by convBwdWeightBlockScalar.
 */
inline float
hsum8(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    const __m128 s = _mm_add_ps(lo, hi);
    const __m128 s2 = _mm_add_ps(s, _mm_movehl_ps(s, s));
    const __m128 s3 =
        _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x1));
    return _mm_cvtss_f32(s3);
}

inline int
countNonzero(__m256 v)
{
    const __m256 zero = _mm256_setzero_ps();
    return __builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_NEQ_UQ))));
}

/** One accumulate step: fused (forward) or mul then add (bwd-data). */
template <bool kFused>
inline __m256
accumulate(__m256 wt, __m256 x, __m256 acc)
{
    return kFused ? _mm256_fmadd_ps(wt, x, acc)
                  : _mm256_add_ps(acc, _mm256_mul_ps(wt, x));
}

/**
 * Conv plane strip: ROWS x NV destination vectors held in registers
 * while the whole tap chunk streams by. The prepared source made every
 * tap full-range at unit column stride, so the per-tap work is
 * ROWS * NV loads and accumulate steps and nothing else. Partial tail
 * vectors accumulate up to 7 in-buffer garbage lanes; the masked
 * load/store drops them, so the stored lanes see exactly the scalar
 * sequence.
 */
template <bool kFused, int ROWS, int NV>
inline void
planeStrip(const ConvRunTap *taps, int64_t ntaps, const float *xbase,
           int64_t xrs, int64_t p0, int64_t qs, int64_t qn,
           float *yplane, int64_t q_ext)
{
    const int full = static_cast<int>(qn / 8);
    const __m256i tmask = tailMask(qn - 8 * full);
    __m256 acc[ROWS][NV];
    for (int r = 0; r < ROWS; ++r) {
        const float *ys = yplane + (p0 + r) * q_ext + qs;
        for (int v = 0; v < NV; ++v)
            acc[r][v] = v < full
                            ? _mm256_loadu_ps(ys + 8 * v)
                            : _mm256_maskload_ps(ys + 8 * v, tmask);
    }
    for (int64_t t = 0; t < ntaps; ++t) {
        const __m256 wt = _mm256_set1_ps(taps[t].w);
        const float *x0 = xbase + taps[t].xoff + p0 * xrs + qs;
        for (int r = 0; r < ROWS; ++r) {
            const float *xr = x0 + r * xrs;
            for (int v = 0; v < NV; ++v)
                acc[r][v] = accumulate<kFused>(
                    wt, _mm256_loadu_ps(xr + 8 * v), acc[r][v]);
        }
    }
    for (int r = 0; r < ROWS; ++r) {
        float *ys = yplane + (p0 + r) * q_ext + qs;
        for (int v = 0; v < NV; ++v) {
            if (v < full)
                _mm256_storeu_ps(ys + 8 * v, acc[r][v]);
            else
                _mm256_maskstore_ps(ys + 8 * v, tmask, acc[r][v]);
        }
    }
}

template <bool kFused, int ROWS>
inline void
planeStripNv(const ConvRunTap *taps, int64_t ntaps, const float *xbase,
             int64_t xrs, int64_t p0, int64_t qs, int64_t qn,
             float *yplane, int64_t q_ext)
{
    switch ((qn + 7) / 8) {
    case 1:
        planeStrip<kFused, ROWS, 1>(taps, ntaps, xbase, xrs, p0, qs, qn,
                                    yplane, q_ext);
        break;
    case 2:
        planeStrip<kFused, ROWS, 2>(taps, ntaps, xbase, xrs, p0, qs, qn,
                                    yplane, q_ext);
        break;
    case 3:
        planeStrip<kFused, ROWS, 3>(taps, ntaps, xbase, xrs, p0, qs, qn,
                                    yplane, q_ext);
        break;
    default:
        planeStrip<kFused, ROWS, 4>(taps, ntaps, xbase, xrs, p0, qs, qn,
                                    yplane, q_ext);
        break;
    }
}

} // namespace

template <bool kFused>
void
convPlaneRunAvx2(const ConvRunTap *taps, int64_t ntaps,
                 const float *xbase, float *yplane, int64_t xrs,
                 int64_t p_ext, int64_t q_ext)
{
    const int64_t rp = convStripRows(q_ext);
    for (int64_t p0 = 0; p0 < p_ext; p0 += rp) {
        const int64_t rows = p_ext - p0 < rp ? p_ext - p0 : rp;
        for (int64_t qs = 0; qs < q_ext; qs += 32) {
            const int64_t qn =
                q_ext - qs < 32 ? q_ext - qs : static_cast<int64_t>(32);
            switch (rows) {
            case 1:
                planeStripNv<kFused, 1>(taps, ntaps, xbase, xrs, p0, qs,
                                        qn, yplane, q_ext);
                break;
            case 2:
                planeStripNv<kFused, 2>(taps, ntaps, xbase, xrs, p0, qs,
                                        qn, yplane, q_ext);
                break;
            case 3:
                planeStripNv<kFused, 3>(taps, ntaps, xbase, xrs, p0, qs,
                                        qn, yplane, q_ext);
                break;
            default:
                planeStripNv<kFused, 4>(taps, ntaps, xbase, xrs, p0, qs,
                                        qn, yplane, q_ext);
                break;
            }
        }
    }
}

template void convPlaneRunAvx2<true>(const ConvRunTap *, int64_t,
                                     const float *, float *, int64_t,
                                     int64_t, int64_t);
template void convPlaneRunAvx2<false>(const ConvRunTap *, int64_t,
                                      const float *, float *, int64_t,
                                      int64_t, int64_t);

int64_t
convBwdWeightBlockAvx2(const ConvTap *taps, int64_t ntaps,
                       const float *x_chan, const float *dy_chan,
                       int64_t x_batch_stride, int64_t dy_batch_stride,
                       int64_t batch, int64_t in_w, int64_t stride,
                       int64_t q_ext, float *dw_block)
{
    const int64_t xrs = stride * in_w;
    const __m256i vidx = strideIndex(stride);
    int64_t macs = 0;
    for (int64_t t = 0; t < ntaps; ++t) {
        const ConvTap &tp = taps[t];
        __m256 acc = _mm256_setzero_ps();
        if (tp.nq > 0 && tp.pHi > tp.pLo) {
            for (int64_t in = 0; in < batch; ++in) {
                const float *xp = x_chan + in * x_batch_stride;
                const float *gp = dy_chan + in * dy_batch_stride;
                for (int64_t p = tp.pLo; p < tp.pHi; ++p) {
                    const float *xr = xp + p * xrs + tp.xoff;
                    const float *gr = gp + p * q_ext + tp.qLo;
                    int64_t q = 0;
                    for (; q + 8 <= tp.nq; q += 8) {
                        const __m256 xv =
                            stride == 1
                                ? _mm256_loadu_ps(xr + q)
                                : _mm256_i32gather_ps(xr + q * stride,
                                                      vidx, 4);
                        const __m256 g = _mm256_loadu_ps(gr + q);
                        acc = _mm256_add_ps(acc, _mm256_mul_ps(g, xv));
                        macs += countNonzero(xv);
                    }
                    const int64_t rem = tp.nq - q;
                    if (rem) {
                        const __m256i m = tailMask(rem);
                        __m256 xv;
                        if (stride == 1) {
                            xv = _mm256_maskload_ps(xr + q, m);
                        } else {
                            xv = _mm256_mask_i32gather_ps(
                                _mm256_setzero_ps(), xr + q * stride,
                                vidx, _mm256_castsi256_ps(m), 4);
                        }
                        const __m256 g = _mm256_maskload_ps(gr + q, m);
                        acc = _mm256_add_ps(acc, _mm256_mul_ps(g, xv));
                        macs += countNonzero(xv);
                    }
                }
            }
        }
        dw_block[tp.elem] += hsum8(acc);
    }
    return macs;
}

} // namespace detail
} // namespace kernels
} // namespace procrustes

#endif // PROCRUSTES_HAVE_AVX2
