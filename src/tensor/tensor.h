/**
 * @file
 * A minimal dense FP32 tensor substrate.
 *
 * The paper trains with 32-bit floating point throughout (Section V), so
 * a float-only tensor keeps the neural-network framework honest about
 * the datatype the accelerator models. Layout is row-major over up to
 * six dimensions; the activation convention throughout the repo is
 * NCHW and the convolution-filter convention is KCRS.
 */

#ifndef PROCRUSTES_TENSOR_TENSOR_H_
#define PROCRUSTES_TENSOR_TENSOR_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"

namespace procrustes {

class Xorshift128Plus;

/**
 * Storage precision of a tensor image. The datapath stores 32-bit
 * floats only (Table I); this type and the two functions below exist
 * because perfbench's provenance line prints the storage precision.
 */
enum class Precision
{
    kFp32,
};

inline Precision
defaultStoragePrecision()
{
    return Precision::kFp32;
}

inline const char *
precisionName(Precision)
{
    return "fp32";
}

/** Dense tensor shape: an ordered list of extents, rank <= kMaxRank. */
class Shape
{
  public:
    static constexpr int kMaxRank = 6;

    /** Empty (rank-0) shape describing a scalar. */
    Shape() : rank_(0) { dims_.fill(1); }

    /** Construct from an explicit extent list. */
    Shape(std::initializer_list<int64_t> dims);

    /** Construct from a vector of extents. */
    explicit Shape(const std::vector<int64_t> &dims);

    /** Number of dimensions. */
    int rank() const { return rank_; }

    /** Extent of dimension i. */
    int64_t
    operator[](int i) const
    {
        PROCRUSTES_ASSERT(i >= 0 && i < rank_, "shape index out of range");
        return dims_[static_cast<size_t>(i)];
    }

    /** Total number of elements. */
    int64_t numel() const;

    /** Equality compares rank and every extent. */
    bool operator==(const Shape &other) const;
    bool operator!=(const Shape &other) const { return !(*this == other); }

    /** Human-readable form, e.g. "[2, 3, 4]". */
    std::string str() const;

  private:
    std::array<int64_t, kMaxRank> dims_;
    int rank_;
};

/**
 * Dense row-major FP32 tensor with copy-on-write storage.
 *
 * Copies and copy-assignments share the underlying buffer; any mutable
 * access (non-const data()/at()/operator(), fill, ...) detaches the
 * tensor onto a private copy first. Value semantics are therefore
 * identical to a deep-copying tensor, but pure caching copies — e.g. a
 * layer saving its input batch for the weight-update pass — cost O(1)
 * instead of a full activation copy per batch. Hot loops in the NN
 * framework index through data() directly, while the variadic
 * operator() provides bounds-checked convenience access for tests and
 * setup code.
 *
 * Sharing is not thread-safe for concurrent detach; the kernels only
 * ever hand worker threads raw pointers obtained before dispatch.
 */
class Tensor
{
  public:
    /** Empty tensor (no storage). */
    Tensor() = default;

    /** Allocate a zero-filled tensor of the given shape. */
    explicit Tensor(const Shape &shape);

    /** Allocate with an initializer-list shape. */
    Tensor(std::initializer_list<int64_t> dims) : Tensor(Shape(dims)) {}

    /**
     * Allocate without initializing the elements, for an output whose
     * every element the caller writes before anything reads it. It
     * skips the zero-fill pass of Tensor(shape).
     */
    static Tensor uninitialized(const Shape &shape);

    /** Shape accessor. */
    const Shape &shape() const { return shape_; }

    /** Total element count. */
    int64_t
    numel() const
    {
        return storage_ ? static_cast<int64_t>(storage_->size()) : 0;
    }

    /** Raw storage access for hot loops; mutable access detaches. */
    float *
    data()
    {
        detach();
        return storage_ ? storage_->data() : nullptr;
    }

    const float *data() const
    {
        return storage_ ? storage_->data() : nullptr;
    }

    /** True if this tensor shares its buffer with another copy. */
    bool sharesStorage() const { return storage_ && storage_.use_count() > 1; }

    /** Flat element access with bounds check. */
    float &
    at(int64_t i)
    {
        PROCRUSTES_ASSERT(i >= 0 && i < numel(), "flat index out of range");
        detach();
        return (*storage_)[static_cast<size_t>(i)];
    }

    float
    at(int64_t i) const
    {
        PROCRUSTES_ASSERT(i >= 0 && i < numel(), "flat index out of range");
        return (*storage_)[static_cast<size_t>(i)];
    }

    /** Multi-dimensional access; the index count must equal the rank. */
    template <typename... Ix>
    float &
    operator()(Ix... ix)
    {
        const size_t flat = flatIndex({static_cast<int64_t>(ix)...});
        detach();
        return (*storage_)[flat];
    }

    template <typename... Ix>
    float
    operator()(Ix... ix) const
    {
        return (*storage_)[flatIndex({static_cast<int64_t>(ix)...})];
    }

    /** Set every element to value. */
    void fill(float value);

    /** Set every element to zero. */
    void zero() { fill(0.0f); }

    /** Fill with N(0, std^2) variates from the supplied generator. */
    void fillGaussian(Xorshift128Plus &rng, float std);

    /** Fill with U[lo, hi) variates from the supplied generator. */
    void fillUniform(Xorshift128Plus &rng, float lo, float hi);

    /** Reshape in place; the element count must be preserved. */
    void reshape(const Shape &new_shape);

    /** Sum of all elements (double accumulator). */
    double sum() const;

    /** Fraction of elements equal to exactly zero. */
    double zeroFraction() const;

  private:
    /**
     * Allocator whose value-initialization is default-initialization:
     * Storage(n) leaves its floats unwritten. Storage(n, v) and copies
     * construct with an argument, which allocator_traits routes to a
     * plain placement new.
     */
    template <typename T>
    struct NoInitAllocator : std::allocator<T>
    {
        template <typename U>
        struct rebind
        {
            using other = NoInitAllocator<U>;
        };

        NoInitAllocator() = default;
        template <typename U>
        NoInitAllocator(const NoInitAllocator<U> &) noexcept
        {
        }

        template <typename U>
        void
        construct(U *p) noexcept
        {
            ::new (static_cast<void *>(p)) U;
        }
    };
    using Storage = std::vector<float, NoInitAllocator<float>>;

    /** The one allocation path: zero-filled or left unwritten. */
    Tensor(const Shape &shape, bool zero_fill);

    size_t flatIndex(std::initializer_list<int64_t> ix) const;

    /** Clone the buffer if it is shared (copy-on-write). */
    void
    detach()
    {
        if (storage_ && storage_.use_count() > 1)
            storage_ = std::make_shared<Storage>(*storage_);
    }

    Shape shape_;
    std::shared_ptr<Storage> storage_;
};

/** Elementwise a += b (shapes must match). */
void addInPlace(Tensor &a, const Tensor &b);

/** Elementwise a *= s. */
void scaleInPlace(Tensor &a, float s);

/** Max absolute elementwise difference between two same-shape tensors. */
float maxAbsDiff(const Tensor &a, const Tensor &b);

} // namespace procrustes

#endif // PROCRUSTES_TENSOR_TENSOR_H_
