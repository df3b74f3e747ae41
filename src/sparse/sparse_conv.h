/**
 * @file
 * Sparse convolution executors operating directly on CSB weights.
 *
 * The accelerator never materializes dense filters: PEs fetch packed
 * blocks, walk the mask bits, and skip zero weights (the MAC-skipping
 * that Figure 1 converts into energy). These functions are the
 * functional-model equivalent — forward and backward-data convolution
 * computed straight from a CsbTensor, iterating only over non-zeros,
 * with the backward pass consuming the same blocks through the
 * 180°-rotation view. They are validated against the dense nn::Conv2d
 * reference in tests.
 *
 * fc layers run here too, as the degenerate conv of the paper's
 * operation space (R = S = P = Q = 1): nn::Linear encodes its [O, I]
 * weight as [O, I, 1, 1] filters and transposes the batch [N, I] into
 * the plane [1, I, 1, N], so the batch is the output row every
 * executor vectorizes.
 *
 * The traversal is partitioned across the shared ThreadPool — over
 * (sample, output-channel block) tiles in the forward pass, over
 * (sample, input channel) pairs in backward-data, over output channels
 * in backward-weight — so every thread accumulates into a private
 * slice of the output in a fixed order (deterministic for any thread
 * count), and each kernel element's output window is pre-clipped
 * against the padding halo once per tap pack so the MAC loops run
 * branch-free. The forward (from batch 16 up) and backward-data tasks
 * each own whole samples of their input side, as the PEs of the
 * paper's K,N and C,N mappings do: a task pads only its own samples'
 * planes.
 *
 * Each executor's `macs` out-param is the one executed-MAC count of its
 * phase, tallied while it runs; the layers' step reports and the
 * benches read it, and the tests check it against a brute force.
 *
 * The inner loops are the SIMD microkernels of
 * kernels/sparse_microkernels.h: each executor streams a pre-packed
 * gather-free tap list (geometry only — values are read from the
 * CsbTensor per call) and dispatches per plane/block to AVX2 or the
 * scalar reference, which are bitwise identical by construction. A
 * caller that owns a ConvTapPack for the current mask + geometry can
 * pass it in to skip the per-call pack step (the layers cache one
 * across optimizer steps while the mask epoch is unchanged).
 */

#ifndef PROCRUSTES_SPARSE_SPARSE_CONV_H_
#define PROCRUSTES_SPARSE_SPARSE_CONV_H_

#include <cstdint>

#include "kernels/sparse_microkernels.h"
#include "sparse/csb.h"
#include "tensor/tensor.h"

namespace procrustes {
namespace sparse {

/**
 * Forward convolution y = x * W from CSB-encoded filters.
 *
 * The tap runs (each output channel's live taps, flattened over input
 * channels and cut into L1-sized chunks) are built once per call. The
 * output is then tiled by (sample, output-channel block): every sample
 * is one tile at batch 16 and up, and a smaller batch splits its output
 * channels into blocks, so an fc head's one-sample batch plane still
 * spreads over the pool. The input planes are copied zero-padded and
 * phase-split by the stride: a whole-sample tile's task copies its
 * sample into a private block, while a batch whose samples are split
 * into blocks is copied once into a buffer the tasks share. Each task
 * zeroes and accumulates only its own output planes. Per y element the
 * taps run in one fixed order (input-channel chunk, then pack order),
 * one fused multiply-add each, so y does not depend on the tiling, the
 * thread count or the SIMD level.
 *
 * @param x input activations [N, C, H, W].
 * @param w CSB-encoded filters whose dense space is [K, C, R, S].
 * @param stride convolution stride.
 * @param pad symmetric zero padding.
 * @param macs optional out: MACs executed (non-zero weight taps x
 *        padding-clipped output positions), tallied while running so
 *        telemetry costs no second traversal.
 * @param pack optional pre-built tap pack for w at this geometry
 *        (asserted to match); built per call when omitted.
 * @return output activations [N, K, P, Q].
 */
Tensor sparseConvForward(const Tensor &x, const CsbTensor &w,
                         int64_t stride, int64_t pad,
                         int64_t *macs = nullptr,
                         const kernels::ConvTapPack *pack = nullptr);

/**
 * Backward-data convolution dx = dy * rot180(W) from the same CSB
 * blocks (the Figure 2b access pattern: the packed values are
 * consumed in rotated order while streaming).
 *
 * Computed in gather form, output-stationary like the forward pass:
 * each sample's dy planes are copied into a zero-padded buffer, dx
 * splits into its stride^2 phase planes, and each phase accumulates
 * the live taps of every output channel that land on it in register
 * strips. One path serves every stride. Per dx element the additions
 * run in the one fixed order (output channel, then pack order), with
 * a rounded product and a rounded add each, so the result does not
 * depend on the thread count or SIMD level.
 *
 * Zero dy entries — after a ReLU (or max-pool) backward the incoming
 * gradient carries the activation sparsity of Section II-B — are
 * multiplied, not skipped, and so are the padding reads outside a
 * tap's window: with a finite weight each adds an exact zero, an
 * identity on the partial sums, so dx is bitwise what a zero-skipping
 * scatter computes and this executor stays the exact adjoint of
 * sparseConvForward. An Inf or NaN weight breaks that identity (it
 * times zero is NaN) and turns every dx element its tap's window
 * covers NaN, not only those fed by non-zero dy. The MAC tally counts
 * zeros out, as a PE would issue no MAC for a zero operand.
 *
 * @param dy output-side gradient [N, K, P, Q].
 * @param w CSB-encoded filters [K, C, R, S].
 * @param x_shape shape of the forward input (for halo bounds).
 * @param stride convolution stride.
 * @param pad symmetric zero padding.
 * @param macs optional out: the MACs a zero-skipping PE executes
 *        (live weight taps x non-zero dy operands, padding-clipped).
 * @param pack optional pre-built tap pack (see sparseConvForward).
 * @return input-side gradient with shape x_shape.
 */
Tensor sparseConvBackwardData(const Tensor &dy, const CsbTensor &w,
                              const Shape &x_shape, int64_t stride,
                              int64_t pad, int64_t *macs = nullptr,
                              const kernels::ConvTapPack *pack = nullptr);

/**
 * Weight-gradient convolution restricted to the CSB mask (the third
 * training convolution of Figure 2, applied to the weight-update
 * pass): dW[k, c, r, s] += sum_{n, p, q} dy[n, k, p, q] *
 * x[n, c, p*stride + r - pad, q*stride + s - pad] for every position
 * the mask marks live. Pruned positions accumulate nothing — their
 * MACs are skipped exactly as the PEs skip zero weights, which is what
 * closes the sparse-training gap for the weight-update phase.
 *
 * At stride > 1 computed over a copy of x prepared as in the forward
 * (zero-padded and phase-split by the column stride, so every read is a
 * plain unit-stride load); at stride 1 over x itself, since every clip
 * window lies inside the plane and the tail loads are masked. The live
 * taps of one output channel whose kernel elements share a
 * padding-clip window run in groups of up to 8 input channels that
 * share each dy load; every tap reduces its (n, p, q) space into its
 * own 8 lanes in one fixed order, collapsed by one fixed tree, so dW
 * does not depend on the grouping, the thread count or the SIMD level.
 *
 * Zero input activations — ReLU zeros make x the sparse operand of the
 * weight-update phase (Section II-B) — are multiplied, not skipped:
 * their products are exact zeros, an identity on the partial sums
 * (with finite dy), so dW is bitwise what a zero-skipping PE
 * computes. The MAC tally counts them out, as a PE would issue no MAC
 * for a zero operand: the non-zero x of each (input channel, kernel
 * element) window are counted once per call, summed over the batch.
 *
 * @param x forward input activations [N, C, H, W].
 * @param dy output-side gradient [N, K, P, Q].
 * @param w CSB-encoded filters [K, C, R, S] (supplies the mask).
 * @param stride convolution stride.
 * @param pad symmetric zero padding.
 * @param dw dense weight gradient [K, C, R, S]; ACCUMULATED into at
 *        live positions only, untouched elsewhere.
 * @param macs optional out: MACs actually executed (mask-live taps x
 *        non-zero activation operands, padding-clipped).
 * @param pack optional pre-built tap pack (see sparseConvForward).
 */
void sparseConvBackwardWeights(const Tensor &x, const Tensor &dy,
                               const CsbTensor &w, int64_t stride,
                               int64_t pad, Tensor *dw,
                               int64_t *macs = nullptr,
                               const kernels::ConvTapPack *pack = nullptr);

} // namespace sparse
} // namespace procrustes

#endif // PROCRUSTES_SPARSE_SPARSE_CONV_H_
