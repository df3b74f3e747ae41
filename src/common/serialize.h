/**
 * @file
 * Bitwise-exact binary serialization primitives.
 *
 * The job service's checkpoint/resume contract is *bitwise* equality:
 * a training run restored from a snapshot must continue exactly as the
 * uninterrupted run would have. Text formats cannot guarantee that
 * (float -> decimal -> float round trips are easy to get subtly
 * wrong), so all training state travels as raw little-endian byte
 * images of the in-memory values: float and double payloads are
 * memcpy'd bit patterns, never printf'd. ByteWriter appends to a
 * growable buffer; ByteReader walks it back and treats any underrun
 * or trailing garbage as a corrupted snapshot (fatal, user-facing).
 */

#ifndef PROCRUSTES_COMMON_SERIALIZE_H_
#define PROCRUSTES_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "tensor/tensor.h"

namespace procrustes {

/** Append-only binary encoder for checkpoint payloads. */
class ByteWriter
{
  public:
    void
    writeBytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    void writeU8(uint8_t v) { writeBytes(&v, sizeof(v)); }
    void writeU32(uint32_t v) { writeBytes(&v, sizeof(v)); }
    void writeU64(uint64_t v) { writeBytes(&v, sizeof(v)); }
    void writeI64(int64_t v) { writeBytes(&v, sizeof(v)); }

    /** Raw bit image — exact for every value including -0.0 / NaN. */
    void writeF64(double v) { writeBytes(&v, sizeof(v)); }
    void writeF32(float v) { writeBytes(&v, sizeof(v)); }

    /** Length-prefixed UTF-8 string. */
    void
    writeString(const std::string &s)
    {
        writeU32(static_cast<uint32_t>(s.size()));
        writeBytes(s.data(), s.size());
    }

    /** Shape (rank + extents) followed by the raw fp32 payload. */
    void writeTensor(const Tensor &t);

    const std::vector<uint8_t> &bytes() const { return buf_; }
    size_t size() const { return buf_.size(); }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Sequential decoder over a checkpoint payload. Reading past the end
 * is a corrupted-snapshot condition and FATALs; callers that embed
 * sub-payloads should check offset() against the recorded length.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    explicit ByteReader(const std::vector<uint8_t> &buf)
        : ByteReader(buf.data(), buf.size())
    {}

    void
    readBytes(void *out, size_t n)
    {
        require(n);
        std::memcpy(out, data_ + off_, n);
        off_ += n;
    }

    /** FATAL unless n more bytes remain; called before allocating n. */
    void
    require(size_t n) const
    {
        if (n > remaining())
            FATAL("checkpoint truncated: read past end of snapshot");
    }

    uint8_t readU8() { return readScalar<uint8_t>(); }
    uint32_t readU32() { return readScalar<uint32_t>(); }
    uint64_t readU64() { return readScalar<uint64_t>(); }
    int64_t readI64() { return readScalar<int64_t>(); }
    double readF64() { return readScalar<double>(); }
    float readF32() { return readScalar<float>(); }

    std::string
    readString()
    {
        const uint32_t n = readU32();
        require(n);
        std::string s(n, '\0');
        readBytes(s.data(), n);
        return s;
    }

    /** Counterpart of ByteWriter::writeTensor. */
    Tensor readTensor();

    size_t offset() const { return off_; }
    size_t remaining() const { return size_ - off_; }
    bool atEnd() const { return off_ == size_; }

  private:
    template <typename T>
    T
    readScalar()
    {
        T v;
        readBytes(&v, sizeof(v));
        return v;
    }

    const uint8_t *data_;
    size_t size_;
    size_t off_ = 0;
};

} // namespace procrustes

#endif // PROCRUSTES_COMMON_SERIALIZE_H_
