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
