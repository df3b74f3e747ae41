/**
 * @file
 * Compressed Sparse Block (CSB) weight representation (Section IV-B).
 *
 * Inference-accelerator formats (CSC-style run-length encodings) are
 * coupled to one traversal order and cannot serve training, where the
 * same weights are read in different orders in different phases. The
 * Procrustes CSB variant stores:
 *
 *   (a) a *weight array* of variable-size packed non-zero blocks, where
 *       a block corresponds to a fixed region of the dense space (one
 *       R x S kernel for conv layers, a square sub-matrix for fc);
 *   (b) a *pointer array* indexed by tensor coordinates giving each
 *       block's offset in the weight array; and
 *   (c) a *mask array*, also coordinate-indexed, with one bit per dense
 *       position in the block.
 *
 * Because pointers are indexed in the dense coordinate space, block
 * addresses are computable in any phase; block density is a pointer
 * subtraction; blocks are rotated 180° (backward pass) or transposed
 * (fc backward) while being fetched.
 *
 * The software executors run fc as a 1x1 conv over the batch plane, on
 * an [O, I, 1, 1] ConvFilters encode. The square-block Matrix kind is
 * the image the accelerator streams for fc layers; nn::Linear prices
 * its telemetry bytes with it.
 */

#ifndef PROCRUSTES_SPARSE_CSB_H_
#define PROCRUSTES_SPARSE_CSB_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace procrustes {
namespace sparse {

/** Block-compressed sparse weight tensor. */
class CsbTensor
{
  public:
    /** Tensor kind determines block geometry and legal traversals. */
    enum class Kind
    {
        ConvFilters,   //!< dense space [K, C, R, S]; block = one kernel
        Matrix,        //!< dense space [O, I]; square blocks
    };

    /** Empty placeholder; assign an encode*() result before use. */
    CsbTensor() = default;

    /**
     * Encode dense conv filters [K, C, R, S]; one block per (k, c)
     * kernel, so the region size adapts to the layer's kernel size.
     */
    static CsbTensor encodeConvFilters(const Tensor &w);

    /**
     * Encode a dense fc weight matrix [O, I] into square blocks of the
     * given side; edge blocks cover the in-range remainder.
     */
    static CsbTensor encodeMatrix(const Tensor &w, int64_t block_side);

    /** Reconstruct the dense tensor. */
    Tensor decode() const;

    /**
     * Dense tensor with every kernel rotated 180° (the backward-pass
     * filter view of Figure 2b). ConvFilters only.
     */
    Tensor decodeRotated180() const;

    /**
     * Dense transposed matrix [I, O] assembled by transposing blocks
     * piecewise (the fc backward-pass view). Matrix only.
     */
    Tensor decodeTransposed() const;

    /** Number of blocks. */
    int64_t numBlocks() const
    {
        return static_cast<int64_t>(pointers_.size()) - 1;
    }

    /** Non-zeros in block b — a pointer subtraction (Section IV-B). */
    int64_t
    blockNnz(int64_t b) const
    {
        return static_cast<int64_t>(pointers_[static_cast<size_t>(b + 1)] -
                                    pointers_[static_cast<size_t>(b)]);
    }

    /** Total non-zeros. */
    int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

    /** Non-zero fraction of the dense space. */
    double density() const;

    /** Dense contents of one block, in row-major region order. */
    std::vector<float> blockDense(int64_t b) const;

    /** Dense elements covered by one block's region. */
    int64_t blockElems() const { return blockElems_; }

    /**
     * True if the mask marks dense position e of block b live. This is
     * the bit the weight-gradient pass consults: only live positions
     * accumulate dW, pruned ones are skipped like any other zero MAC.
     */
    bool blockMaskBit(int64_t b, int64_t e) const { return maskBit(b, e); }

    /** Kind of tensor encoded. */
    Kind kind() const { return kind_; }

    /** Matrix kind: side length of the square blocks. */
    int64_t blockSide() const { return blockSide_; }

    /** Matrix kind: number of blocks along the I dimension. */
    int64_t blocksPerRow() const { return blocksPerRow_; }

    /** Dense shape this tensor decodes to. */
    const Shape &denseShape() const { return denseShape_; }

    /**
     * Raw packed value stream (mask traversal order). The executors'
     * pre-packed tap geometry indexes into this array, so packs built
     * against one encode stay valid for any later encode with the same
     * mask — only the values change.
     */
    const float *valuesData() const { return values_.data(); }

    /** Offset of block b's first value in the packed value stream. */
    int64_t
    blockValueOffset(int64_t b) const
    {
        return static_cast<int64_t>(pointers_[static_cast<size_t>(b)]);
    }

    /**
     * True if the other tensor has an identical sparsity structure:
     * same kind, dense shape, block geometry, pointers, and mask bits.
     * Values may differ. This is the mask-epoch test the layers use to
     * decide whether cached tap geometry can be reused across optimizer
     * steps.
     */
    bool sameMaskAs(const CsbTensor &other) const;

    /** @name Storage accounting for the cost model. */
    /**@{*/
    int64_t valueBytes() const { return nnz() * 4; }
    int64_t maskBytes() const;      //!< 1 bit per dense element
    int64_t pointerBytes() const { return (numBlocks() + 1) * 4; }
    int64_t totalBytes() const;
    static int64_t denseBytes(const Shape &s) { return s.numel() * 4; }
    /**@}*/

  private:
    static CsbTensor encodeBlocks(const Tensor &w, Kind kind,
                                  int64_t block_side);

    /** Flat dense index of element e of block b. */
    int64_t denseIndex(int64_t b, int64_t e) const;

    /** True if mask bit e of block b is set. */
    bool
    maskBit(int64_t b, int64_t e) const
    {
        const int64_t bit = b * blockElems_ + e;
        return (maskWords_[static_cast<size_t>(bit >> 6)] >>
                (bit & 63)) & 1;
    }

    Kind kind_ = Kind::ConvFilters;
    Shape denseShape_;
    int64_t blockElems_ = 0;
    int64_t blockSide_ = 0;        //!< Matrix kind: block side length
    int64_t blocksPerRow_ = 0;     //!< Matrix kind: blocks along I
    std::vector<float> values_;    //!< (a) packed weight array
    std::vector<uint32_t> pointers_; //!< (b) block offsets, size nb+1
    std::vector<uint64_t> maskWords_; //!< (c) packed mask bits
};

} // namespace sparse
} // namespace procrustes

#endif // PROCRUSTES_SPARSE_CSB_H_
