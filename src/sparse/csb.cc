#include "sparse/csb.h"

#include "common/math_utils.h"

namespace procrustes {
namespace sparse {

CsbTensor
CsbTensor::encodeConvFilters(const Tensor &w)
{
    PROCRUSTES_ASSERT(w.shape().rank() == 4,
                      "conv filters must be [K, C, R, S]");
    return encodeBlocks(w, Kind::ConvFilters, /*block_side=*/0);
}

CsbTensor
CsbTensor::encodeMatrix(const Tensor &w, int64_t block_side)
{
    PROCRUSTES_ASSERT(w.shape().rank() == 2, "matrix must be [O, I]");
    PROCRUSTES_ASSERT(block_side > 0, "block side must be positive");
    return encodeBlocks(w, Kind::Matrix, block_side);
}

int64_t
CsbTensor::denseIndex(int64_t b, int64_t e) const
{
    if (kind_ == Kind::ConvFilters) {
        // Block b covers kernel (k, c); blocks and kernels are both
        // row-major, so the dense index is simply contiguous.
        return b * blockElems_ + e;
    }
    const int64_t rows = denseShape_[0];
    const int64_t cols = denseShape_[1];
    const int64_t br = b / blocksPerRow_;
    const int64_t bc = b % blocksPerRow_;
    const int64_t er = e / blockSide_;
    const int64_t ec = e % blockSide_;
    const int64_t row = br * blockSide_ + er;
    const int64_t col = bc * blockSide_ + ec;
    if (row >= rows || col >= cols)
        return -1;   // out-of-range corner of an edge block
    return row * cols + col;
}

CsbTensor
CsbTensor::encodeBlocks(const Tensor &w, Kind kind, int64_t block_side)
{
    CsbTensor out;
    out.kind_ = kind;
    out.denseShape_ = w.shape();

    int64_t num_blocks;
    if (kind == Kind::ConvFilters) {
        out.blockElems_ = w.shape()[2] * w.shape()[3];
        num_blocks = w.shape()[0] * w.shape()[1];
    } else {
        out.blockSide_ = block_side;
        out.blockElems_ = block_side * block_side;
        out.blocksPerRow_ = ceilDiv(w.shape()[1], block_side);
        num_blocks = ceilDiv(w.shape()[0], block_side) * out.blocksPerRow_;
    }

    out.pointers_.assign(static_cast<size_t>(num_blocks) + 1, 0);
    out.maskWords_.assign(
        static_cast<size_t>(
            ceilDiv(num_blocks * out.blockElems_, 64)),
        0);

    const float *pw = w.data();
    for (int64_t b = 0; b < num_blocks; ++b) {
        for (int64_t e = 0; e < out.blockElems_; ++e) {
            const int64_t di = out.denseIndex(b, e);
            if (di < 0)
                continue;
            // Read once: handing pw[di] itself to push_back measured
            // slower.
            const float v = pw[di];
            if (v != 0.0f) {
                out.values_.push_back(v);
                const int64_t bit = b * out.blockElems_ + e;
                out.maskWords_[static_cast<size_t>(bit >> 6)] |=
                    uint64_t{1} << (bit & 63);
            }
        }
        out.pointers_[static_cast<size_t>(b) + 1] =
            static_cast<uint32_t>(out.values_.size());
    }
    return out;
}

Tensor
CsbTensor::decode() const
{
    Tensor out(denseShape_);
    float *po = out.data();
    for (int64_t b = 0; b < numBlocks(); ++b) {
        int64_t cursor = pointers_[static_cast<size_t>(b)];
        for (int64_t e = 0; e < blockElems_; ++e) {
            if (!maskBit(b, e))
                continue;
            const int64_t di = denseIndex(b, e);
            PROCRUSTES_ASSERT(di >= 0, "set mask bit outside dense space");
            po[di] = values_[static_cast<size_t>(cursor++)];
        }
    }
    return out;
}

Tensor
CsbTensor::decodeRotated180() const
{
    PROCRUSTES_ASSERT(kind_ == Kind::ConvFilters,
                      "rotation applies to conv filters only");
    const int64_t r_ext = denseShape_[2];
    const int64_t s_ext = denseShape_[3];
    Tensor out(denseShape_);
    float *po = out.data();
    // Rotation happens per block while fetching: the packed values are
    // streamed in mask order and written to the 180-degree-rotated
    // position of the same kernel region.
    for (int64_t b = 0; b < numBlocks(); ++b) {
        int64_t cursor = pointers_[static_cast<size_t>(b)];
        for (int64_t e = 0; e < blockElems_; ++e) {
            if (!maskBit(b, e))
                continue;
            const int64_t r = e / s_ext;
            const int64_t s = e % s_ext;
            const int64_t rot_e = (r_ext - 1 - r) * s_ext +
                                  (s_ext - 1 - s);
            po[b * blockElems_ + rot_e] =
                values_[static_cast<size_t>(cursor++)];
        }
    }
    return out;
}

Tensor
CsbTensor::decodeTransposed() const
{
    PROCRUSTES_ASSERT(kind_ == Kind::Matrix,
                      "transposition applies to fc matrices only");
    const int64_t rows = denseShape_[0];
    const int64_t cols = denseShape_[1];
    Tensor out(Shape{cols, rows});
    float *po = out.data();
    for (int64_t b = 0; b < numBlocks(); ++b) {
        int64_t cursor = pointers_[static_cast<size_t>(b)];
        for (int64_t e = 0; e < blockElems_; ++e) {
            if (!maskBit(b, e))
                continue;
            const int64_t di = denseIndex(b, e);
            PROCRUSTES_ASSERT(di >= 0, "set mask bit outside dense space");
            const int64_t row = di / cols;
            const int64_t col = di % cols;
            po[col * rows + row] = values_[static_cast<size_t>(cursor++)];
        }
    }
    return out;
}

double
CsbTensor::density() const
{
    const int64_t dense = denseShape_.numel();
    return dense ? static_cast<double>(nnz()) /
                       static_cast<double>(dense)
                 : 0.0;
}

std::vector<float>
CsbTensor::blockDense(int64_t b) const
{
    PROCRUSTES_ASSERT(b >= 0 && b < numBlocks(), "block index range");
    std::vector<float> out(static_cast<size_t>(blockElems_), 0.0f);
    int64_t cursor = pointers_[static_cast<size_t>(b)];
    for (int64_t e = 0; e < blockElems_; ++e) {
        if (maskBit(b, e))
            out[static_cast<size_t>(e)] =
                values_[static_cast<size_t>(cursor++)];
    }
    return out;
}

int64_t
CsbTensor::maskBytes() const
{
    return ceilDiv(numBlocks() * blockElems_, 8);
}

int64_t
CsbTensor::totalBytes() const
{
    return valueBytes() + maskBytes() + pointerBytes();
}

bool
CsbTensor::sameMaskAs(const CsbTensor &other) const
{
    return kind_ == other.kind_ && denseShape_ == other.denseShape_ &&
           blockElems_ == other.blockElems_ &&
           blockSide_ == other.blockSide_ &&
           blocksPerRow_ == other.blocksPerRow_ &&
           pointers_ == other.pointers_ &&
           maskWords_ == other.maskWords_;
}

} // namespace sparse
} // namespace procrustes
