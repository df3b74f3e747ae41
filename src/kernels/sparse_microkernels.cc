#include "kernels/sparse_microkernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "kernels/sparse_microkernels_impl.h"

namespace procrustes {
namespace kernels {

namespace {

/** Resolve the dispatch level once from env + CPU capability. */
int
resolveSimdLevel()
{
    const char *env = std::getenv("PROCRUSTES_SIMD");
    if (env && *env) {
        if (std::strcmp(env, "scalar") == 0)
            return static_cast<int>(SimdLevel::kScalar);
        if (std::strcmp(env, "avx2") == 0) {
            if (!avx2Supported())
                FATAL("PROCRUSTES_SIMD=avx2 but this build/host has "
                      "no AVX2");
            return static_cast<int>(SimdLevel::kAvx2);
        }
        FATAL("PROCRUSTES_SIMD must be 'avx2' or 'scalar'");
    }
    return static_cast<int>(avx2Supported() ? SimdLevel::kAvx2
                                            : SimdLevel::kScalar);
}

std::atomic<int> g_simd_level{-1};

/** Dispatch one conv plane run (see sparseConvFwdPlaneRun). */
template <bool kFused>
void
convPlaneRun(const ConvRunTap *taps, int64_t ntaps, const float *w,
             const float *xbase, float *yplane, int64_t xrow_stride,
             int64_t p_ext, int64_t q_ext)
{
#ifdef PROCRUSTES_HAVE_AVX2
    if (activeSimdLevel() == SimdLevel::kAvx2) {
        detail::convPlaneRunAvx2<kFused>(taps, ntaps, w, xbase, yplane,
                                         xrow_stride, p_ext, q_ext);
        return;
    }
#endif
    detail::convPlaneRunScalar<kFused>(taps, ntaps, w, xbase, yplane,
                                       xrow_stride, p_ext, q_ext);
}

} // namespace

bool
avx2Supported()
{
#if defined(PROCRUSTES_HAVE_AVX2) && \
    (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

SimdLevel
activeSimdLevel()
{
    int level = g_simd_level.load(std::memory_order_relaxed);
    if (level < 0) {
        level = resolveSimdLevel();
        g_simd_level.store(level, std::memory_order_relaxed);
    }
    return static_cast<SimdLevel>(level);
}

void
setSimdLevel(SimdLevel level)
{
    PROCRUSTES_ASSERT(level == SimdLevel::kScalar || avx2Supported(),
                      "cannot select AVX2 kernels on this build/host");
    g_simd_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

const char *
simdLevelName(SimdLevel level)
{
    return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

void
sparseConvFwdPlaneRun(const ConvRunTap *taps, int64_t ntaps,
                      const float *w, const float *xbase, float *yplane,
                      int64_t xrow_stride, int64_t p_ext, int64_t q_ext)
{
    convPlaneRun<true>(taps, ntaps, w, xbase, yplane, xrow_stride, p_ext,
                       q_ext);
}

void
sparseConvBwdDataPlaneRun(const ConvRunTap *taps, int64_t ntaps,
                          const float *w, const float *dybase,
                          float *dxplane, int64_t dyrow_stride,
                          int64_t rows, int64_t cols)
{
    convPlaneRun<false>(taps, ntaps, w, dybase, dxplane, dyrow_stride,
                        rows, cols);
}

void
sparseConvBwdWeightGroup(const int32_t *xoff, int64_t ntaps,
                         const float *xbase, int64_t xrow_stride,
                         const float *dybase, int64_t q_ext, int64_t rows,
                         int64_t cols, float *lanes)
{
#ifdef PROCRUSTES_HAVE_AVX2
    if (activeSimdLevel() == SimdLevel::kAvx2) {
        detail::convBwdWeightGroupAvx2(xoff, ntaps, xbase, xrow_stride,
                                       dybase, q_ext, rows, cols, lanes);
        return;
    }
#endif
    detail::convBwdWeightGroupScalar(xoff, ntaps, xbase, xrow_stride,
                                     dybase, q_ext, rows, cols, lanes);
}

void
padPhaseSplitPlane(const float *src, int64_t h, int64_t width,
                   int64_t stride, int64_t pad, int64_t slots, float *dst)
{
#ifdef PROCRUSTES_HAVE_AVX2
    if (stride <= 2 && activeSimdLevel() == SimdLevel::kAvx2) {
        detail::padPhaseSplitPlaneAvx2(src, h, width, stride, pad, slots,
                                       dst);
        return;
    }
#endif
    detail::padPhaseSplitPlaneScalar(src, h, width, stride, pad, slots,
                                     dst);
}

} // namespace kernels
} // namespace procrustes
