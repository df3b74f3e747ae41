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
 * The traversal is partitioned across the shared ThreadPool by one
 * tile rule: a channel axis is cut into blocks that keep a tile's share
 * of it near 64 KiB, and into enough blocks that a call has at least 4
 * tiles where its channels allow. The tiles are (sample x output-channel
 * block) in the forward pass, (sample x input-channel block) in
 * backward-data, and (output-channel block x input-channel block) in
 * backward-weight, so every thread accumulates into a private slice of
 * the output in a fixed order (deterministic for any thread count).
 * Each task holds only its own operands, as the PEs of the paper's K,N
 * and C,N mappings do: a forward or backward-data task prepares the
 * sample of its tile into a private block when the sample changes, and
 * a backward-weight tile reads only its input channels' x and its
 * output channels' dy, preparing one sample of its input channels at a
 * time.
 *
 * Where the taps go is decided in one place, the ConvTapPack, built
 * once per (mask, geometry) on the calling thread: each kernel
 * element's padding-clip window, the forward's L1-chunked runs, the
 * backward-data phase runs and the backward-weight window groups. As
 * the PEs fetch one CSB image in each phase's order without
 * re-encoding it, each executor only prepares its input and streams
 * its own section of the pack. The pack names every weight by its
 * index into CsbTensor::valuesData() and holds no batch size, so one
 * pack serves every batch and every encode with the same mask; the
 * layers keep one across optimizer steps while the mask holds.
 *
 * Each executor's `macs` out-param is the one executed-MAC count of its
 * phase, tallied while it runs; the layers' step reports and the
 * benches read it, and the tests check it against a brute force.
 *
 * The inner loops are the SIMD microkernels of
 * kernels/sparse_microkernels.h, dispatched per plane/group to AVX2 or
 * the scalar reference, which are bitwise identical by construction.
 */

#ifndef PROCRUSTES_SPARSE_SPARSE_CONV_H_
#define PROCRUSTES_SPARSE_SPARSE_CONV_H_

#include <cstdint>
#include <vector>

#include "kernels/sparse_microkernels.h"
#include "sparse/csb.h"
#include "tensor/tensor.h"

namespace procrustes {
namespace sparse {

/**
 * The padding-clipped output window of one kernel element: the output
 * positions (p, q) whose input projection (p * stride + r - pad,
 * q * stride + s - pad) is in bounds. It depends only on (r, s) and the
 * geometry, so every block and every phase shares it.
 */
struct ConvWindow
{
    int64_t pLo, pHi;   //!< valid output rows [pLo, pHi)
    int64_t qLo, qHi;   //!< valid output cols [qLo, qHi)

    bool empty() const { return pHi == pLo || qHi == qLo; }
};

/**
 * The tap layout of one CSB conv-filter tensor at one input geometry,
 * for all three phases. Taps are in CSB mask order, which is the packed
 * value order, so live tap i pairs with value i of
 * CsbTensor::valuesData(); every run tap names its weight by that
 * index. Nothing here depends on the batch size or on a weight value,
 * so a pack stays valid for every batch and every encode with the same
 * mask at this geometry.
 */
struct ConvTapPack
{
    std::vector<int32_t> taps;      //!< kernel element r * S + s of each
                                    //!< live tap; block-major, mask order
    std::vector<int64_t> blockOff;  //!< per-block tap offsets, nb + 1
    std::vector<ConvWindow> win;    //!< per kernel element r * S + s
    int64_t inH = 0, inW = 0;       //!< input geometry the pack clips to
    int64_t stride = 0, pad = 0;
    int64_t pExt = 0, qExt = 0;     //!< derived output extents

    /**
     * Forward: per output channel, the taps with a non-empty window,
     * in pack order, cut into L1-sized input-channel chunks. Chunk g of
     * output channel ok spans runs[bound[ok * chunks + g], bound[ok *
     * chunks + g + 1]). A run tap's xoff addresses one sample's
     * prepared input planes (PlaneLayout in sparse_conv.cc).
     */
    struct Forward
    {
        std::vector<kernels::ConvRunTap> runs;
        std::vector<int64_t> bound;   //!< k * chunks + 1
        int64_t chunks = 0;
        int64_t macsPerSample = 0;    //!< sum of the runs' window areas
    } fw;

    /**
     * Backward-data: per input channel and dx stride phase, the taps of
     * every output channel that land on that phase, ordered by output
     * channel, then pack order, cut into L1-sized output-channel
     * chunks. Chunk g of phase ph of input channel ic spans
     * runs[bound[(ic * stride^2 + ph) * chunks + g], ... + 1]). xoff
     * addresses one sample's zero-padded dy planes: output channel ok's
     * plane starts at ok * dyPlane, dy row p at (loH + p) * dyRow + loW.
     */
    struct BackwardData
    {
        std::vector<kernels::ConvRunTap> runs;
        std::vector<int64_t> bound;   //!< c * stride^2 * chunks + 1
        int64_t chunks = 0;
        int64_t loH = 0, loW = 0;     //!< dy halo before row / column 0
        int64_t dyRow = 0, dyPlane = 0;
    } bd;

    /**
     * Backward-weight: the taps tiled by (output-channel block x
     * input-channel block), okTiles x icTiles blocks whose sizes differ
     * by at most one channel (block i of n channels starts at channel
     * i * n / blocks), tile t = okBlock * icTiles + icBlock. The block
     * counts follow from the geometry alone, by the executors' one tile
     * rule. Per output channel of a
     * tile, its live taps on the tile's input channels are bucketed by
     * clip window (one bucket per distinct window, in kernel-element
     * order; input channel, then pack order, within one) and cut into
     * groups of up to 8 that share every dy load. Tile t's taps are
     * [tapOff[t], tapOff[t + 1]) of xoff and slot, in group order, and
     * its groups are [groupOff[t], groupOff[t + 1]); a tap whose window
     * is empty is in no group. xoff addresses the tile's input-channel
     * block of one sample's x planes (prepared at stride > 1, raw at
     * stride 1): plane floats apart from the block's first channel, rows
     * rowStride apart. A group's dyoff addresses one sample's dy planes.
     */
    struct BackwardWeight
    {
        struct Group
        {
            int64_t dyoff, rows, cols;   //!< window within dy's planes
            int64_t first, count;        //!< taps [first, first + count)
        };
        std::vector<int32_t> xoff;      //!< window's first x read
        std::vector<int32_t> slot;      //!< dW index
        std::vector<Group> groups;
        std::vector<int64_t> tapOff;    //!< tiles + 1
        std::vector<int64_t> groupOff;  //!< tiles + 1
        int64_t okTiles = 0, icTiles = 0;
        int64_t plane = 0, rowStride = 0;
    } bw;

    bool valid() const { return !blockOff.empty(); }

    /** True if this pack describes the given call geometry. */
    bool
    matches(int64_t in_h, int64_t in_w, int64_t s, int64_t p) const
    {
        return valid() && inH == in_h && inW == in_w && stride == s &&
               pad == p;
    }
};

/**
 * Build the tap layout of CSB conv filters at one input geometry, once
 * per (mask, geometry), serially on the calling thread.
 */
ConvTapPack packConvTaps(const CsbTensor &w, int64_t in_h, int64_t in_w,
                         int64_t stride, int64_t pad);

/**
 * Forward convolution y = x * W from CSB-encoded filters.
 *
 * Streams the pack's forward runs (each output channel's live taps,
 * flattened over input channels and cut into L1-sized chunks). The
 * output is tiled by (sample x output-channel block): the output
 * channels split into blocks of about 64 KiB of y, and a batch of
 * fewer than 4 samples into more, so an fc head's one-sample batch
 * plane still spreads over the pool. A task copies the sample of its
 * tile, zero-padded and phase-split by the stride, into a private
 * block, and zeroes and accumulates only its own output planes. Per y
 * element the taps run in one fixed order (input-channel chunk, then
 * pack order), one fused multiply-add each, so y does not depend on
 * the tiling, the thread count or the SIMD level.
 *
 * @param x input activations [N, C, H, W].
 * @param w CSB-encoded filters whose dense space is [K, C, R, S].
 * @param stride convolution stride.
 * @param pad symmetric zero padding.
 * @param macs optional out: MACs executed (non-zero weight taps x
 *        padding-clipped output positions), tallied while running so
 *        telemetry costs no second traversal.
 * @param pack optional tap pack of w's mask at this geometry (asserted
 *        to match); built for this call alone when omitted.
 * @return output activations [N, K, P, Q].
 */
Tensor sparseConvForward(const Tensor &x, const CsbTensor &w,
                         int64_t stride, int64_t pad,
                         int64_t *macs = nullptr,
                         const ConvTapPack *pack = nullptr);

/**
 * Backward-data convolution dx = dy * rot180(W) from the same CSB
 * blocks (the Figure 2b access pattern: the packed values are
 * consumed in rotated order while streaming).
 *
 * Computed in gather form, output-stationary like the forward pass,
 * and tiled like it by (sample x input-channel block): a task copies
 * the dy planes of its tile's sample into a zero-padded private block,
 * dx splits into its stride^2 phase planes, and each phase accumulates
 * the pack's phase run — the live taps of every output channel that
 * land on it — in register strips. One path serves every stride. Per
 * dx element the additions run in the one fixed order (output channel,
 * then pack order), with a rounded product and a rounded add each, so
 * the result does not depend on the thread count or SIMD level.
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
                              const ConvTapPack *pack = nullptr);

/**
 * Weight-gradient convolution restricted to the CSB mask (the third
 * training convolution of Figure 2, applied to the weight-update
 * pass): dW[k, c, r, s] += sum_{n, p, q} dy[n, k, p, q] *
 * x[n, c, p*stride + r - pad, q*stride + s - pad] for every position
 * the mask marks live. Pruned positions accumulate nothing — their
 * MACs are skipped exactly as the PEs skip zero weights, which is what
 * closes the sparse-training gap for the weight-update phase.
 *
 * Tiled by the pack's (output-channel block x input-channel block)
 * tiles, whose counts follow from the geometry alone: the input
 * channels split into blocks of about 64 KiB of one sample's x (at
 * stride > 1, where a tile prepares them, into at least 4), then the
 * output channels into blocks of about 64 KiB of its dy, and into
 * enough of them for 4 tiles. A tile runs the samples outermost. At
 * stride > 1 it reads its input channels of one sample at a time from
 * a copy prepared as in the forward (zero-padded and phase-split by
 * the column stride, so every read is a plain unit-stride load) in a
 * block of its own; at stride 1 it reads x itself, since every clip
 * window lies inside the plane and the tail loads are masked. The
 * pack's groups hold up to 8 live taps of one
 * output channel whose kernel elements share a padding-clip window,
 * and share each dy load; every tap lives in one tile and reduces its
 * (n, p, q) space into its own 8 lanes in one fixed order, collapsed
 * by one fixed tree, so dW does not depend on the tiling, the
 * grouping, the thread count or the SIMD level.
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
                               const ConvTapPack *pack = nullptr);

} // namespace sparse
} // namespace procrustes

#endif // PROCRUSTES_SPARSE_SPARSE_CONV_H_
