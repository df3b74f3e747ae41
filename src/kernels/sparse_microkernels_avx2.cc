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
 *   - the lane schedule is mirrored by the scalar reference and both
 *     collapse the lanes with the one sumLanes8 tree (bwd-weight).
 * Zero operands are multiplied instead of skipped; the executors
 * count them out of the executed-MAC tallies.
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
 *
 * Every row and vector loop is fully unrolled: GCC -O2 leaves them
 * rolled and then keeps acc on the stack, so each accumulate step
 * becomes a load and a store. Unrolled, the strip lives in the 16 ymm
 * registers — convStripRows pairs 4 rows with at most 2 vectors and 2
 * rows with at most 4, so a strip has at most 8 accumulators — and
 * each accumulator still sees the same instructions in the same order.
 */
template <bool kFused, int ROWS, int NV>
inline void
planeStrip(const ConvRunTap *taps, int64_t ntaps, const float *w,
           const float *xbase, int64_t xrs, int64_t p0, int64_t qs,
           int64_t qn, float *yplane, int64_t q_ext)
{
    const int full = static_cast<int>(qn / 8);
    const __m256i tmask = tailMask(qn - 8 * full);
    __m256 acc[ROWS][NV];
#pragma GCC unroll 4
    for (int r = 0; r < ROWS; ++r) {
        const float *ys = yplane + (p0 + r) * q_ext + qs;
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v)
            acc[r][v] = v < full
                            ? _mm256_loadu_ps(ys + 8 * v)
                            : _mm256_maskload_ps(ys + 8 * v, tmask);
    }
    for (int64_t t = 0; t < ntaps; ++t) {
        const __m256 wt = _mm256_set1_ps(w[taps[t].v]);
        const float *x0 = xbase + taps[t].xoff + p0 * xrs + qs;
#pragma GCC unroll 4
        for (int r = 0; r < ROWS; ++r) {
            const float *xr = x0 + r * xrs;
#pragma GCC unroll 4
            for (int v = 0; v < NV; ++v)
                acc[r][v] = accumulate<kFused>(
                    wt, _mm256_loadu_ps(xr + 8 * v), acc[r][v]);
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < ROWS; ++r) {
        float *ys = yplane + (p0 + r) * q_ext + qs;
#pragma GCC unroll 4
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
planeStripNv(const ConvRunTap *taps, int64_t ntaps, const float *w,
             const float *xbase, int64_t xrs, int64_t p0, int64_t qs,
             int64_t qn, float *yplane, int64_t q_ext)
{
    switch ((qn + 7) / 8) {
    case 1:
        planeStrip<kFused, ROWS, 1>(taps, ntaps, w, xbase, xrs, p0, qs,
                                    qn, yplane, q_ext);
        break;
    case 2:
        planeStrip<kFused, ROWS, 2>(taps, ntaps, w, xbase, xrs, p0, qs,
                                    qn, yplane, q_ext);
        break;
    case 3:
        planeStrip<kFused, ROWS, 3>(taps, ntaps, w, xbase, xrs, p0, qs,
                                    qn, yplane, q_ext);
        break;
    default:
        planeStrip<kFused, ROWS, 4>(taps, ntaps, w, xbase, xrs, p0, qs,
                                    qn, yplane, q_ext);
        break;
    }
}

/**
 * Backward-weight group of NT taps: one dy vector feeds NT independent
 * accumulators, one per tap, each a rounded product then a rounded
 * add. Tail vectors load x and dy masked: the dead lanes add 0 * 0 =
 * +0, an identity, so the lanes match the scalar loop that never
 * touches them.
 */
template <int NT>
inline void
bwdWeightGroup(const int32_t *xoff, const float *xbase, int64_t xrs,
               const float *dybase, int64_t q_ext, int64_t rows,
               int64_t cols, float *lanes)
{
    // Every loop over the taps is fully unrolled, so acc stays in
    // registers (GCC -O2 keeps a rolled loop's array on the stack).
    __m256 acc[NT];
    const float *xr[NT];
#pragma GCC unroll 8
    for (int j = 0; j < NT; ++j) {
        acc[j] = _mm256_loadu_ps(lanes + 8 * j);
        xr[j] = xbase + xoff[j];
    }
    const int64_t full = cols & ~int64_t{7};
    const __m256i tmask = tailMask(cols - full);
    for (int64_t p = 0; p < rows; ++p) {
        const float *gr = dybase + p * q_ext;
        for (int64_t q = 0; q < full; q += 8) {
            const __m256 g = _mm256_loadu_ps(gr + q);
#pragma GCC unroll 8
            for (int j = 0; j < NT; ++j)
                acc[j] = _mm256_add_ps(
                    acc[j], _mm256_mul_ps(g, _mm256_loadu_ps(xr[j] + q)));
        }
        if (full < cols) {
            const __m256 g = _mm256_maskload_ps(gr + full, tmask);
#pragma GCC unroll 8
            for (int j = 0; j < NT; ++j)
                acc[j] = _mm256_add_ps(
                    acc[j],
                    _mm256_mul_ps(g, _mm256_maskload_ps(xr[j] + full,
                                                        tmask)));
        }
#pragma GCC unroll 8
        for (int j = 0; j < NT; ++j)
            xr[j] += xrs;
    }
#pragma GCC unroll 8
    for (int j = 0; j < NT; ++j)
        _mm256_storeu_ps(lanes + 8 * j, acc[j]);
}

} // namespace

template <bool kFused>
void
convPlaneRunAvx2(const ConvRunTap *taps, int64_t ntaps, const float *w,
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
                planeStripNv<kFused, 1>(taps, ntaps, w, xbase, xrs, p0, qs,
                                        qn, yplane, q_ext);
                break;
            case 2:
                planeStripNv<kFused, 2>(taps, ntaps, w, xbase, xrs, p0, qs,
                                        qn, yplane, q_ext);
                break;
            case 3:
                planeStripNv<kFused, 3>(taps, ntaps, w, xbase, xrs, p0, qs,
                                        qn, yplane, q_ext);
                break;
            default:
                planeStripNv<kFused, 4>(taps, ntaps, w, xbase, xrs, p0, qs,
                                        qn, yplane, q_ext);
                break;
            }
        }
    }
}

namespace {

/** Zero len floats at d with whole-vector stores, the tail masked. */
inline void
zeroSpan(float *d, int64_t len)
{
    const __m256 zero = _mm256_setzero_ps();
    for (; len >= 8; len -= 8, d += 8)
        _mm256_storeu_ps(d, zero);
    if (len > 0)
        _mm256_maskstore_ps(d, tailMask(len), zero);
}

/** Copy len floats from s to d, the tail vector masked. */
inline void
copySpan(float *d, const float *s, int64_t len)
{
    for (; len >= 8; len -= 8, d += 8, s += 8)
        _mm256_storeu_ps(d, _mm256_loadu_ps(s));
    if (len > 0) {
        const __m256i m = tailMask(len);
        _mm256_maskstore_ps(d, m, _mm256_maskload_ps(s, m));
    }
}

/**
 * One stride-2 row: source column j sits at padded column j + pad, so
 * the even columns fill phase pad % 2 from slot pad / 2 on and the odd
 * ones the other phase from slot (pad + 1) / 2 on; only the slots
 * outside those runs are zeroed. 16 source floats per step: the
 * in-lane shuffles give [s0 s2 s8 s10 | s4 s6 s12 s14] (and the odd
 * twin), and a 64-bit permute puts the halves in order.
 */
inline void
phaseSplitRow2(const float *src, int64_t width, int64_t pad, int64_t slots,
               float *drow)
{
    float *ev = drow + (pad & 1) * slots;
    float *od = drow + (1 - (pad & 1)) * slots;
    const int64_t ev0 = pad / 2, ev1 = ev0 + (width + 1) / 2;
    const int64_t od0 = (pad + 1) / 2, od1 = od0 + width / 2;
    zeroSpan(ev, ev0);
    zeroSpan(ev + ev1, slots - ev1);
    zeroSpan(od, od0);
    zeroSpan(od + od1, slots - od1);
    ev += ev0;
    od += od0;
    int64_t j = 0;
    for (; j + 16 <= width; j += 16) {
        const __m256 a = _mm256_loadu_ps(src + j);
        const __m256 b = _mm256_loadu_ps(src + j + 8);
        const __m256d e = _mm256_castps_pd(
            _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)));
        const __m256d o = _mm256_castps_pd(
            _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
        _mm256_storeu_ps(ev + j / 2, _mm256_castpd_ps(_mm256_permute4x64_pd(
                                         e, _MM_SHUFFLE(3, 1, 2, 0))));
        _mm256_storeu_ps(od + j / 2, _mm256_castpd_ps(_mm256_permute4x64_pd(
                                         o, _MM_SHUFFLE(3, 1, 2, 0))));
    }
    for (; j + 1 < width; j += 2) {
        ev[j / 2] = src[j];
        od[j / 2] = src[j + 1];
    }
    if (j < width)
        ev[j / 2] = src[j];
}

} // namespace

void
padPhaseSplitPlaneAvx2(const float *src, int64_t h, int64_t width,
                       int64_t stride, int64_t pad, int64_t slots,
                       float *dst)
{
    const int64_t row = slots * stride;
    zeroSpan(dst, pad * row);
    for (int64_t hr = 0; hr < h; ++hr) {
        const float *srow = src + hr * width;
        float *drow = dst + (hr + pad) * row;
        if (stride == 2) {
            phaseSplitRow2(srow, width, pad, slots, drow);
        } else {
            zeroSpan(drow, pad);
            copySpan(drow + pad, srow, width);
            zeroSpan(drow + pad + width, slots - pad - width);
        }
    }
    zeroSpan(dst + (h + pad) * row, pad * row);
}

template void convPlaneRunAvx2<true>(const ConvRunTap *, int64_t,
                                     const float *, const float *, float *,
                                     int64_t, int64_t, int64_t);
template void convPlaneRunAvx2<false>(const ConvRunTap *, int64_t,
                                      const float *, const float *, float *,
                                      int64_t, int64_t, int64_t);

void
convBwdWeightGroupAvx2(const int32_t *xoff, int64_t ntaps,
                       const float *xbase, int64_t xrs,
                       const float *dybase, int64_t q_ext, int64_t rows,
                       int64_t cols, float *lanes)
{
    switch (ntaps) {
    case 1:
        bwdWeightGroup<1>(xoff, xbase, xrs, dybase, q_ext, rows, cols,
                          lanes);
        break;
    case 2:
        bwdWeightGroup<2>(xoff, xbase, xrs, dybase, q_ext, rows, cols,
                          lanes);
        break;
    case 3:
        bwdWeightGroup<3>(xoff, xbase, xrs, dybase, q_ext, rows, cols,
                          lanes);
        break;
    case 4:
        bwdWeightGroup<4>(xoff, xbase, xrs, dybase, q_ext, rows, cols,
                          lanes);
        break;
    case 5:
        bwdWeightGroup<5>(xoff, xbase, xrs, dybase, q_ext, rows, cols,
                          lanes);
        break;
    case 6:
        bwdWeightGroup<6>(xoff, xbase, xrs, dybase, q_ext, rows, cols,
                          lanes);
        break;
    case 7:
        bwdWeightGroup<7>(xoff, xbase, xrs, dybase, q_ext, rows, cols,
                          lanes);
        break;
    default:
        bwdWeightGroup<8>(xoff, xbase, xrs, dybase, q_ext, rows, cols,
                          lanes);
        break;
    }
}

} // namespace detail
} // namespace kernels
} // namespace procrustes

#endif // PROCRUSTES_HAVE_AVX2
