/**
 * @file
 * GEMM-lowered convolution executors (forward, data grad, weight grad).
 *
 * These implement the three convolutions of the paper's training loop
 * (Figure 2) on the im2col lowering:
 *
 *   forward:  Y_n[K, PQ]   = W[K, CRS]   * col(X_n)
 *   data bw:  dX_n         = col2im(W^T[CRS, K] * dY_n[K, PQ])
 *   weight:   dW[K, CRS]  += (col(X_n)[CRS, PQ] * dY_n^T[PQ, K])^T
 *                            (summed over n)
 *
 * The weight gradient multiplies col by dY_n^T, so only the K x PQ dY_n
 * is transposed per image, not the CRS x PQ col. Each element still
 * folds the products col * dy over PQ in PQ order, and a*b + c equals
 * b*a + c bit for bit, so the result is that of dY_n * col^T. The
 * per-image partial is [CRS, K]; the reduction into dW reads it in that
 * layout.
 *
 * Work is spread across the shared ThreadPool over the batch dimension
 * when the batch is wide enough to feed every thread, and over GEMM row
 * panels otherwise. Either way one body lowers a range of images, and
 * each call of it owns its workspace: a plain heap block, left
 * uninitialized, sized exactly for one image's col (and, backward,
 * dY_n^T and dcol: 2 * CRS * PQ + K * PQ floats). Per-image dW/db
 * partials are reduced in fixed image order, so gradient accumulation
 * order — and hence every output bit — is identical for any thread
 * count and either decomposition.
 */

#ifndef PROCRUSTES_KERNELS_CONV_KERNELS_H_
#define PROCRUSTES_KERNELS_CONV_KERNELS_H_

#include "kernels/im2col.h"
#include "tensor/tensor.h"

namespace procrustes {
namespace kernels {

/** Geometry from tensors: x is [N, C, H, W], w is [K, C, R, S]. */
ConvGeom convGeomFromTensors(const Tensor &x, const Shape &w_shape,
                             int64_t stride, int64_t pad);

/**
 * Forward convolution y = x * w (+ bias) via im2col + GEMM.
 *
 * @param x input activations [N, C, H, W].
 * @param w filters [K, C, R, S].
 * @param bias optional per-output-channel bias [K]; may be nullptr.
 * @param g geometry (from convGeomFromTensors).
 * @return output activations [N, K, P, Q].
 */
Tensor convForwardGemm(const Tensor &x, const Tensor &w,
                       const Tensor *bias, const ConvGeom &g);

/**
 * Backward convolution computing all three gradients in one pass.
 *
 * @param x forward input [N, C, H, W].
 * @param w filters [K, C, R, S].
 * @param dy output gradient [N, K, P, Q].
 * @param g geometry.
 * @param dw weight gradient [K, C, R, S]; ACCUMULATED into.
 * @param db optional bias gradient [K]; ACCUMULATED into; nullptr skips.
 * @return input gradient dx [N, C, H, W].
 */
Tensor convBackwardGemm(const Tensor &x, const Tensor &w, const Tensor &dy,
                        const ConvGeom &g, Tensor *dw, Tensor *db);

} // namespace kernels
} // namespace procrustes

#endif // PROCRUSTES_KERNELS_CONV_KERNELS_H_
