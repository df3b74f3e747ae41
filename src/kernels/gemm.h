/**
 * @file
 * Cache-blocked single-precision GEMM for the software compute backend.
 *
 * All lowered convolution and fully-connected work in the training loop
 * funnels into one primitive: row-major C = A * B (optionally C += A *
 * B). The implementation blocks over k (256-deep slabs) and n for cache
 * residency and runs one 4x16 micro-kernel on every tile. Its eight
 * 8-lane accumulators (GCC/Clang vector types) stay in registers for
 * the whole slab. A partial tile runs the same kernel: rows past m
 * re-read a valid row and are not stored, and columns past n come from
 * a zero-padded copy of the B strip. Row panels of C are spread over
 * the shared ThreadPool.
 *
 * The invariant every caller relies on: each C element is one
 * sequential multiply-add fold over k, in k order, starting from 0 (or
 * from C when accumulating) — the naive triple loop's fold. The kernel
 * writes it like the scalar fold, so the compiler contracts it into an
 * FMA where the build allows (-march=native on an FMA host) and rounds
 * product and sum separately elsewhere. Blocking, tiling, padding and
 * the thread count never reorder it, so they never change a bit.
 *
 * The kernel needs unit-stride rows of A and B. A caller that needs a
 * transposed operand materializes it with transpose(), choosing the
 * smaller of the two operands when a*b + c = b*a + c lets it (the conv
 * weight gradient transposes dY, not the im2col matrix).
 */

#ifndef PROCRUSTES_KERNELS_GEMM_H_
#define PROCRUSTES_KERNELS_GEMM_H_

#include <cstdint>

namespace procrustes {

class ThreadPool;

namespace kernels {

/**
 * Row-major GEMM: C = A * B, or C += A * B when `accumulate`.
 *
 * @param m rows of A and C.
 * @param n columns of B and C.
 * @param k columns of A / rows of B.
 * @param a A, m x k, leading dimension lda >= k.
 * @param b B, k x n, leading dimension ldb >= n.
 * @param c C, m x n, leading dimension ldc >= n.
 * @param accumulate add into C instead of overwriting it.
 * @param pool pool to parallelize row panels over; nullptr runs serial.
 */
void gemm(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
          const float *b, int64_t ldb, float *c, int64_t ldc,
          bool accumulate, ThreadPool *pool);

/** Convenience overload: packed leading dimensions, global pool. */
void gemm(int64_t m, int64_t n, int64_t k, const float *a, const float *b,
          float *c, bool accumulate = false);

/** Row-major out[c][r] = in[r][c] for an r x c matrix. */
void transpose(const float *in, int64_t rows, int64_t cols, float *out);

} // namespace kernels
} // namespace procrustes

#endif // PROCRUSTES_KERNELS_GEMM_H_
