#include "kernels/gemm.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace procrustes {
namespace kernels {

namespace {

// Register tile: 4 rows x 16 columns (2 AVX2 vectors per row) keeps 8
// vector accumulators live, which fits the 16 ymm registers with room
// for the broadcast A values and the B loads.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 16;

// Cache blocks: a KC x NC slab of B (~512 KiB at 256x512 floats) stays
// L2-resident while kMr rows of A stream against it.
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 512;

// Eight float lanes. aligned(4) lets a row load from any float address
// and may_alias lets it read float storage; without AVX the compiler
// splits each operation into narrower ones, lane for lane.
typedef float Vec8 __attribute__((vector_size(32), aligned(4), may_alias));

inline Vec8 &
vecAt(float *p)
{
    return *reinterpret_cast<Vec8 *>(p);
}

inline const Vec8 &
vecAt(const float *p)
{
    return *reinterpret_cast<const Vec8 *>(p);
}

/**
 * Micro-kernel for every tile: C[0:mr, 0:16] (+)= A[0:mr, 0:kc] *
 * B[0:kc, 0:16], with all eight accumulators in registers. `first`
 * selects overwrite vs accumulate for this k-slab. Each lane runs
 * `c += a * b` over p in order, written like the scalar fold, so the
 * host's contraction rule (an FMA, or a separately rounded product and
 * sum) applies to it unchanged. Rows past mr repeat row mr - 1 of A and
 * C; they are stored before it, so row mr - 1's own result stays.
 */
inline void
micro4x16(int64_t mr, int64_t kc, const float *a, int64_t lda,
          const float *b, int64_t ldb, float *c, int64_t ldc, bool first)
{
    const int64_t i1 = std::min<int64_t>(1, mr - 1);
    const int64_t i2 = std::min<int64_t>(2, mr - 1);
    const int64_t i3 = std::min<int64_t>(3, mr - 1);
    const float *a0 = a, *a1 = a + i1 * lda;
    const float *a2 = a + i2 * lda, *a3 = a + i3 * lda;
    float *r0 = c, *r1 = c + i1 * ldc, *r2 = c + i2 * ldc;
    float *r3 = c + i3 * ldc;
    Vec8 c00 = {}, c01 = {}, c10 = {}, c11 = {};
    Vec8 c20 = {}, c21 = {}, c30 = {}, c31 = {};
    if (!first) {
        c00 = vecAt(r0);
        c01 = vecAt(r0 + 8);
        c10 = vecAt(r1);
        c11 = vecAt(r1 + 8);
        c20 = vecAt(r2);
        c21 = vecAt(r2 + 8);
        c30 = vecAt(r3);
        c31 = vecAt(r3 + 8);
    }
    for (int64_t p = 0; p < kc; ++p) {
        const Vec8 b0 = vecAt(b + p * ldb);
        const Vec8 b1 = vecAt(b + p * ldb + 8);
        c00 += a0[p] * b0;
        c01 += a0[p] * b1;
        c10 += a1[p] * b0;
        c11 += a1[p] * b1;
        c20 += a2[p] * b0;
        c21 += a2[p] * b1;
        c30 += a3[p] * b0;
        c31 += a3[p] * b1;
    }
    vecAt(r3) = c30;
    vecAt(r3 + 8) = c31;
    vecAt(r2) = c20;
    vecAt(r2 + 8) = c21;
    vecAt(r1) = c10;
    vecAt(r1 + 8) = c11;
    vecAt(r0) = c00;
    vecAt(r0 + 8) = c01;
}

/**
 * Full blocked GEMM restricted to the row panel [i0, i1) of C. A strip
 * narrower than 16 columns runs the same kernel on a zero-padded copy
 * of its B rows (made once per k-slab) into a 16-wide C tile, of which
 * only the real columns are read from and written back to C.
 */
void
gemmPanel(int64_t i0, int64_t i1, int64_t n, int64_t k, const float *a,
          int64_t lda, const float *b, int64_t ldb, float *c, int64_t ldc,
          bool accumulate)
{
    float bpad[kKc * kNr];
    float tile[kMr * kNr] = {};
    for (int64_t jc = 0; jc < n; jc += kNc) {
        const int64_t nc = std::min(kNc, n - jc);
        const int64_t jtail = jc + nc - nc % kNr;
        const int64_t ntail = jc + nc - jtail;
        for (int64_t pc = 0; pc < k; pc += kKc) {
            const int64_t kc = std::min(kKc, k - pc);
            const bool first = (pc == 0) && !accumulate;
            if (ntail > 0) {
                for (int64_t p = 0; p < kc; ++p) {
                    const float *src = b + (pc + p) * ldb + jtail;
                    float *dst = bpad + p * kNr;
                    std::memcpy(dst, src,
                                static_cast<size_t>(ntail) * sizeof(float));
                    std::memset(dst + ntail, 0,
                                static_cast<size_t>(kNr - ntail) *
                                    sizeof(float));
                }
            }
            for (int64_t i = i0; i < i1; i += kMr) {
                const int64_t mr = std::min(kMr, i1 - i);
                const float *ap = a + i * lda + pc;
                for (int64_t j = jc; j < jtail; j += kNr) {
                    micro4x16(mr, kc, ap, lda, b + pc * ldb + j, ldb,
                              c + i * ldc + j, ldc, first);
                }
                if (ntail > 0) {
                    float *cp = c + i * ldc + jtail;
                    if (!first) {
                        for (int64_t r = 0; r < mr; ++r) {
                            std::memcpy(tile + r * kNr, cp + r * ldc,
                                        static_cast<size_t>(ntail) *
                                            sizeof(float));
                        }
                    }
                    micro4x16(mr, kc, ap, lda, bpad, kNr, tile, kNr, first);
                    for (int64_t r = 0; r < mr; ++r) {
                        std::memcpy(cp + r * ldc, tile + r * kNr,
                                    static_cast<size_t>(ntail) *
                                        sizeof(float));
                    }
                }
            }
        }
    }
}

} // namespace

void
gemm(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
     const float *b, int64_t ldb, float *c, int64_t ldc, bool accumulate,
     ThreadPool *pool)
{
    PROCRUSTES_ASSERT(m >= 0 && n >= 0 && k >= 0, "negative gemm extent");
    PROCRUSTES_ASSERT(lda >= k && ldb >= n && ldc >= n,
                      "gemm leading dimension too small");
    if (m == 0 || n == 0)
        return;
    if (k == 0) {
        if (!accumulate) {
            for (int64_t i = 0; i < m; ++i)
                std::memset(c + i * ldc, 0,
                            static_cast<size_t>(n) * sizeof(float));
        }
        return;
    }

    auto panel = [&](int64_t i0, int64_t i1) {
        gemmPanel(i0, i1, n, k, a, lda, b, ldb, c, ldc, accumulate);
    };
    if (pool == nullptr) {
        panel(0, m);
        return;
    }
    // Row panels are disjoint in C, so the reduction order inside each
    // output element is fixed and the result is thread-count invariant.
    pool->parallelFor(0, m, panel, /*grain=*/kMr * 2);
}

void
gemm(int64_t m, int64_t n, int64_t k, const float *a, const float *b,
     float *c, bool accumulate)
{
    gemm(m, n, k, a, k, b, n, c, n, accumulate, &ThreadPool::global());
}

void
transpose(const float *in, int64_t rows, int64_t cols, float *out)
{
    // Blocked to keep both the read and write streams cache-friendly.
    constexpr int64_t kB = 32;
    for (int64_t i0 = 0; i0 < rows; i0 += kB) {
        const int64_t i1 = std::min(rows, i0 + kB);
        for (int64_t j0 = 0; j0 < cols; j0 += kB) {
            const int64_t j1 = std::min(cols, j0 + kB);
            for (int64_t i = i0; i < i1; ++i) {
                for (int64_t j = j0; j < j1; ++j)
                    out[j * rows + i] = in[i * cols + j];
            }
        }
    }
}

} // namespace kernels
} // namespace procrustes
