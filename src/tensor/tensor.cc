#include "tensor/tensor.h"

#include <cmath>
#include <sstream>

#include "common/rng.h"

namespace procrustes {

Shape::Shape(std::initializer_list<int64_t> dims) : rank_(0)
{
    PROCRUSTES_ASSERT(dims.size() <= kMaxRank, "rank exceeds kMaxRank");
    dims_.fill(1);
    for (int64_t d : dims) {
        PROCRUSTES_ASSERT(d >= 0, "negative extent");
        dims_[static_cast<size_t>(rank_++)] = d;
    }
}

Shape::Shape(const std::vector<int64_t> &dims) : rank_(0)
{
    PROCRUSTES_ASSERT(dims.size() <= kMaxRank, "rank exceeds kMaxRank");
    dims_.fill(1);
    for (int64_t d : dims) {
        PROCRUSTES_ASSERT(d >= 0, "negative extent");
        dims_[static_cast<size_t>(rank_++)] = d;
    }
}

int64_t
Shape::numel() const
{
    int64_t n = 1;
    for (int i = 0; i < rank_; ++i)
        n *= dims_[static_cast<size_t>(i)];
    return n;
}

bool
Shape::operator==(const Shape &other) const
{
    if (rank_ != other.rank_)
        return false;
    for (int i = 0; i < rank_; ++i) {
        if (dims_[static_cast<size_t>(i)] !=
            other.dims_[static_cast<size_t>(i)]) {
            return false;
        }
    }
    return true;
}

std::string
Shape::str() const
{
    std::ostringstream os;
    os << "[";
    for (int i = 0; i < rank_; ++i) {
        if (i)
            os << ", ";
        os << dims_[static_cast<size_t>(i)];
    }
    os << "]";
    return os.str();
}

Tensor::Tensor(const Shape &shape) : Tensor(shape, /*zero_fill=*/true) {}

Tensor::Tensor(const Shape &shape, bool zero_fill)
    : shape_(shape),
      storage_(zero_fill ? std::make_shared<Storage>(
                               static_cast<size_t>(shape.numel()), 0.0f)
                         : std::make_shared<Storage>(
                               static_cast<size_t>(shape.numel())))
{
}

Tensor
Tensor::uninitialized(const Shape &shape)
{
    return Tensor(shape, /*zero_fill=*/false);
}

size_t
Tensor::flatIndex(std::initializer_list<int64_t> ix) const
{
    PROCRUSTES_ASSERT(static_cast<int>(ix.size()) == shape_.rank(),
                      "index rank mismatch");
    int64_t flat = 0;
    int dim = 0;
    for (int64_t i : ix) {
        PROCRUSTES_ASSERT(i >= 0 && i < shape_[dim],
                          "index out of range in dim " + std::to_string(dim));
        flat = flat * shape_[dim] + i;
        ++dim;
    }
    return static_cast<size_t>(flat);
}

void
Tensor::fill(float value)
{
    float *p = data();
    const int64_t n = numel();
    for (int64_t i = 0; i < n; ++i)
        p[i] = value;
}

void
Tensor::fillGaussian(Xorshift128Plus &rng, float std)
{
    float *p = data();
    const int64_t n = numel();
    for (int64_t i = 0; i < n; ++i)
        p[i] = static_cast<float>(rng.nextGaussian()) * std;
}

void
Tensor::fillUniform(Xorshift128Plus &rng, float lo, float hi)
{
    float *p = data();
    const int64_t n = numel();
    for (int64_t i = 0; i < n; ++i)
        p[i] = lo + (hi - lo) * rng.nextFloat();
}

void
Tensor::reshape(const Shape &new_shape)
{
    PROCRUSTES_ASSERT(new_shape.numel() == numel(),
                      "reshape changes element count");
    shape_ = new_shape;
}

double
Tensor::sum() const
{
    const float *p = data();
    const int64_t n = numel();
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i)
        acc += p[i];
    return acc;
}

double
Tensor::zeroFraction() const
{
    const int64_t n = numel();
    if (n == 0)
        return 0.0;
    const float *p = data();
    int64_t zeros = 0;
    for (int64_t i = 0; i < n; ++i) {
        if (p[i] == 0.0f)
            ++zeros;
    }
    return static_cast<double>(zeros) / static_cast<double>(n);
}

void
addInPlace(Tensor &a, const Tensor &b)
{
    PROCRUSTES_ASSERT(a.shape() == b.shape(), "shape mismatch in add");
    float *pa = a.data();
    const float *pb = b.data();
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i)
        pa[i] += pb[i];
}

void
scaleInPlace(Tensor &a, float s)
{
    float *pa = a.data();
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i)
        pa[i] *= s;
}

float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    PROCRUSTES_ASSERT(a.shape() == b.shape(), "shape mismatch in diff");
    const float *pa = a.data();
    const float *pb = b.data();
    float worst = 0.0f;
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i)
        worst = std::max(worst, std::fabs(pa[i] - pb[i]));
    return worst;
}

} // namespace procrustes
