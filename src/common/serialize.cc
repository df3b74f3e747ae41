#include "common/serialize.h"

#include <limits>

namespace procrustes {

void
ByteWriter::writeTensor(const Tensor &t)
{
    const Shape &s = t.shape();
    writeU32(static_cast<uint32_t>(s.rank()));
    for (int i = 0; i < s.rank(); ++i)
        writeI64(s[i]);
    writeI64(t.numel());
    writeBytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
}

Tensor
ByteReader::readTensor()
{
    const uint32_t rank = readU32();
    if (rank > static_cast<uint32_t>(Shape::kMaxRank))
        FATAL("checkpoint corrupt: tensor rank out of range");
    // Extents and payload size are checked before anything is allocated.
    constexpr int64_t kMaxNumel =
        std::numeric_limits<int64_t>::max() / sizeof(float);
    std::vector<int64_t> dims(rank);
    int64_t numel = 1;
    for (int64_t &d : dims) {
        d = readI64();
        if (d < 0 || (d > 0 && numel > kMaxNumel / d))
            FATAL("checkpoint corrupt: tensor extent out of range");
        numel *= d;
    }
    if (readI64() != numel)
        FATAL("checkpoint corrupt: tensor payload size mismatch");
    require(static_cast<size_t>(numel) * sizeof(float));
    Tensor t(rank ? Shape(dims) : Shape{});
    readBytes(t.data(), static_cast<size_t>(numel) * sizeof(float));
    return t;
}

} // namespace procrustes
