#include "sparse/sparse_conv.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/thread_pool.h"
#include "kernels/im2col.h"   // validOutRange: the shared padding clip

namespace procrustes {
namespace sparse {

namespace {

/** Validate inputs and derive the output spatial extent. */
int64_t
outExtent(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    // Check the numerator, not the quotient: a negative numerator
    // truncates toward zero and would masquerade as extent 1.
    PROCRUSTES_ASSERT(in + 2 * pad >= kernel,
                      "convolution output would be empty");
    return (in + 2 * pad - kernel) / stride + 1;
}

/** Largest offset or value index a pack's 32-bit fields can hold. */
constexpr int64_t kMaxIndex = std::numeric_limits<int32_t>::max();

/**
 * Use the caller's tap pack when it matches this (mask, geometry) pair;
 * otherwise build one into `local` and return that. A caller-provided
 * pack with the wrong geometry or mask is a contract violation, not a
 * cache miss — the layers test matches() and the mask themselves before
 * passing one. The tap count guards the value indices: a pack of
 * another mask with more live taps would read past valuesData().
 */
const ConvTapPack *
resolvePack(const ConvTapPack *pack, const CsbTensor &w, int64_t h,
            int64_t width, int64_t stride, int64_t pad, ConvTapPack *local)
{
    if (pack) {
        PROCRUSTES_ASSERT(pack->matches(h, width, stride, pad),
                          "conv tap pack geometry mismatch");
        PROCRUSTES_ASSERT(static_cast<int64_t>(pack->blockOff.size()) ==
                              w.numBlocks() + 1,
                          "conv tap pack block count mismatch");
        PROCRUSTES_ASSERT(static_cast<int64_t>(pack->taps.size()) ==
                              w.nnz(),
                          "conv tap pack live-tap count mismatch");
        return pack;
    }
    *local = packConvTaps(w, h, width, stride, pad);
    return local;
}

/**
 * Channels per L1-sized chunk of a conv plane run: one strip visit
 * reads `rows_per_channel` source rows of up to 40 floats (32 columns
 * plus the 8-lane overread) from every channel of the chunk.
 */
int64_t
l1ChannelChunk(int64_t rows_per_channel)
{
    const int64_t strip_bytes = rows_per_channel * 40 * 4;
    return std::max<int64_t>(1,
                             24576 / std::max<int64_t>(1, strip_bytes));
}

/**
 * Exact dy halo of one axis of the gather-form backward-data pass.
 * dx index a + stride*i (phase a) receives kernel tap r = r0 +
 * stride*m, r0 = (a + pad) mod stride, from dy index i + (a + pad) /
 * stride - m. Over every phase, tap, and in-range i, that index spans
 * [-*lo, out - 1 + *hi]: the rows/columns of zeros the padded dy needs
 * on each side.
 */
void
phaseHalo(int64_t in, int64_t out, int64_t kernel, int64_t stride,
          int64_t pad, int64_t *lo, int64_t *hi)
{
    *lo = 0;
    *hi = 0;
    for (int64_t a = 0; a < stride && a < in; ++a) {
        const int64_t r0 = (a + pad) % stride;
        if (r0 >= kernel)
            continue;   // no tap lands on this phase
        const int64_t base = (a + pad) / stride;
        const int64_t m_max = (kernel - 1 - r0) / stride;
        const int64_t n_phase = (in - a + stride - 1) / stride;
        *lo = std::max(*lo, m_max - base);
        *hi = std::max(*hi, base + n_phase - 1 - (out - 1));
    }
}

/**
 * Least work per pool task: floats of x or dy for the non-zero tallies
 * (64 KiB), multiply-adds, counting zeros, for the tiles of every
 * phase. Below them a call runs inline, which costs less than waking
 * the pool — an fc head's batch plane is that small.
 */
constexpr int64_t kPrepareGrainFloats = int64_t{1} << 14;
constexpr int64_t kGrainMacs = int64_t{1} << 15;

/**
 * The one tile rule of the three phases (tileBlocks): a tile's share of
 * the channels it splits stays near kTileFloats (64 KiB, within a
 * core's L2), and a call has at least kMinTiles tiles where its
 * channels allow, one per thread of a 4-thread pool; 8 cost more CPU
 * time there (each tile re-reads operands its neighbours read too) and
 * took no wall time off. Both depend on the geometry and the batch
 * only, never on the thread count.
 */
constexpr int64_t kTileFloats = int64_t{1} << 14;
constexpr int64_t kMinTiles = 4;

/** First channel of block i when n channels are cut into `blocks`
    blocks whose sizes differ by at most one. */
int64_t
blockStart(int64_t i, int64_t n, int64_t blocks)
{
    return i * n / blocks;
}

/**
 * Blocks to cut `channels` channels of `floats` floats each into:
 * enough that a block holds about kTileFloats, at least `min_blocks`,
 * and never more than one per channel.
 */
int64_t
tileBlocks(int64_t channels, int64_t floats, int64_t min_blocks)
{
    const int64_t fit = (channels * floats + kTileFloats - 1) / kTileFloats;
    return std::max<int64_t>(1,
                             std::min(channels, std::max(fit, min_blocks)));
}

/** Tiles per pool task, so that a task gets at least kGrainMacs of a
    call's `macs`. */
int64_t
taskGrain(int64_t tiles, int64_t macs)
{
    return std::max<int64_t>(
        1, kGrainMacs * tiles / std::max<int64_t>(1, macs));
}

/**
 * The task loop of the forward and backward-data: (sample x channel
 * block) tiles, sample-major, as the PEs of the paper's K,N and C,N
 * mappings each own their samples. The `channels` output channels
 * (forward) or input channels (backward-data) of `plane` floats each
 * are cut by tileBlocks into at least kMinTiles / n blocks. A task
 * owns one private block: `floats` floats that prepare(in, block)
 * fills with sample in's operands whenever the task's next tile is of
 * another sample, 8 floats of zero slack for the kernels'
 * read-past-tail vectors, then `scratch` floats. body(in, ch0, ch1,
 * block) runs the tile's channels [ch0, ch1).
 */
template <typename Prepare, typename Body>
void
forEachSampleTile(int64_t n, int64_t channels, int64_t plane,
                  int64_t macs, int64_t floats, int64_t scratch,
                  const Prepare &prepare, const Body &body)
{
    const int64_t blocks = tileBlocks(
        channels, plane, (kMinTiles + n - 1) / std::max<int64_t>(n, 1));
    const int64_t tiles = n * blocks;
    ThreadPool::global().parallelFor(0, tiles, [&](int64_t t0, int64_t t1) {
        std::unique_ptr<float[]> block(
            new float[static_cast<size_t>(floats + 8 + scratch)]);
        std::fill(block.get() + floats, block.get() + floats + 8, 0.0f);
        int64_t prepared = -1;
        for (int64_t t = t0; t < t1; ++t) {
            const int64_t in = t / blocks, b = t % blocks;
            if (in != prepared) {
                prepare(in, block.get());
                prepared = in;
            }
            body(in, blockStart(b, channels, blocks),
                 blockStart(b + 1, channels, blocks), block.get());
        }
    }, taskGrain(tiles, macs));
}

/**
 * The layout of a conv input copied zero-padded and phase-split by the
 * column stride, so the taps of forward and backward-weight read
 * unit-stride row segments with plain loads — no range masks, no
 * gathers. Padded column cp of a row lands in slot (cp % stride) *
 * slots + cp / stride, so kernel element (r, s) reads output position
 * (p, q) of one (sample, channel) plane at tapOffset(r, s) + p * stride
 * * rowStride + q. A forward task fills its tile's sample into its
 * private block; at stride > 1 each backward-weight tile fills its
 * input-channel block of one sample at a time into a block of its own.
 */
struct PlaneLayout
{
    int64_t stride, pad, h, width;
    int64_t slots;       //!< phase slots per padded row
    int64_t rowStride;   //!< floats per padded row (slots * stride)
    int64_t planeSize;   //!< floats per (sample, channel) plane

    PlaneLayout(int64_t in_h, int64_t in_w, int64_t conv_stride,
                int64_t conv_pad)
        : stride(conv_stride), pad(conv_pad), h(in_h), width(in_w),
          slots((width + 2 * pad + stride - 1) / stride),
          rowStride(slots * stride), planeSize((h + 2 * pad) * rowStride)
    {
    }

    int64_t
    tapOffset(int64_t r, int64_t s) const
    {
        return r * rowStride + (s % stride) * slots + s / stride;
    }

    /** Fill `count` consecutive planes at dst from their h x width
        sources at src. */
    void
    fillPlanes(float *dst, const float *src, int64_t count) const
    {
        for (int64_t i = 0; i < count; ++i)
            kernels::padPhaseSplitPlane(src + i * h * width, h, width,
                                        stride, pad, slots,
                                        dst + i * planeSize);
    }
};

/**
 * The executed-MAC tally of both backward phases: a live tap fires on
 * the non-zero operands inside its clip window. Zeros are multiplied
 * (an exact identity, see the microkernel notes) but, as a PE would
 * skip them, not counted. The count of one window, summed over the
 * batch, is the same for every tap of that kernel element on one
 * plane, so it is taken once per plane: each pixel's non-zeros over
 * the n planes src + i * sample_pitch (i < n) of `plane` floats go into
 * nz, and counts[e] gets the sum of kernel element e's window, whose
 * output position (p, q) reads nz[origin(e) + p * row_pitch + q *
 * col_step].
 */
template <typename Origin>
void
windowNonZeros(const float *src, int64_t n, int64_t sample_pitch,
               int64_t plane, const std::vector<ConvWindow> &win,
               int64_t row_pitch, int64_t col_step, Origin origin,
               int32_t *nz, int64_t *counts)
{
    std::fill(nz, nz + plane, 0);
    for (int64_t in = 0; in < n; ++in) {
        const float *sp = src + in * sample_pitch;
        forEachBlocked8(plane, [&](int64_t i) { nz[i] += sp[i] != 0.0f; });
    }
    for (size_t e = 0; e < win.size(); ++e) {
        const ConvWindow &wd = win[e];
        int64_t total = 0;
        for (int64_t p = wd.pLo; p < wd.pHi; ++p) {
            const int64_t row =
                origin(static_cast<int64_t>(e)) + p * row_pitch;
            for (int64_t q = wd.qLo; q < wd.qHi; ++q)
                total += nz[row + q * col_step];
        }
        counts[e] = total;
    }
}

} // namespace

ConvTapPack
packConvTaps(const CsbTensor &w, int64_t in_h, int64_t in_w,
             int64_t stride, int64_t pad)
{
    PROCRUSTES_ASSERT(w.kind() == CsbTensor::Kind::ConvFilters,
                      "tap packing applies to CSB conv filters");
    const Shape &ws = w.denseShape();
    const int64_t k = ws[0], c = ws[1], r_ext = ws[2], s_ext = ws[3];
    const int64_t rs = r_ext * s_ext;
    ConvTapPack pack;
    pack.inH = in_h;
    pack.inW = in_w;
    pack.stride = stride;
    pack.pad = pad;
    const int64_t p_ext = pack.pExt = outExtent(in_h, r_ext, stride, pad);
    const int64_t q_ext = pack.qExt = outExtent(in_w, s_ext, stride, pad);

    const int64_t nb = w.numBlocks();
    pack.blockOff.assign(static_cast<size_t>(nb) + 1, 0);
    pack.taps.reserve(static_cast<size_t>(w.nnz()));
    for (int64_t b = 0; b < nb; ++b) {
        for (int64_t e = 0; e < w.blockElems() && w.blockNnz(b) > 0; ++e) {
            if (w.blockMaskBit(b, e))
                pack.taps.push_back(static_cast<int32_t>(e));
        }
        pack.blockOff[static_cast<size_t>(b) + 1] =
            static_cast<int64_t>(pack.taps.size());
    }
    const int32_t *taps = pack.taps.data();
    const int64_t *block_off = pack.blockOff.data();

    // The input layouts the runs address: prepared x planes (forward,
    // and backward-weight at stride > 1; x itself at stride 1, where
    // every clip window lies inside the plane and the kernel masks its
    // tail loads) and the zero-padded dy of backward-data, whose halo is
    // exactly what its phase correlations read.
    const PlaneLayout lay(in_h, in_w, stride, pad);
    ConvTapPack::Forward &fw = pack.fw;
    ConvTapPack::BackwardData &bd = pack.bd;
    ConvTapPack::BackwardWeight &bw = pack.bw;
    int64_t hi_h, hi_w;
    phaseHalo(in_h, p_ext, r_ext, stride, pad, &bd.loH, &hi_h);
    phaseHalo(in_w, q_ext, s_ext, stride, pad, &bd.loW, &hi_w);
    bd.dyRow = bd.loW + q_ext + hi_w;
    bd.dyPlane = (bd.loH + p_ext + hi_h) * bd.dyRow;
    const bool raw = stride == 1;
    bw.plane = raw ? in_h * in_w : lay.planeSize;
    bw.rowStride = raw ? in_w : stride * lay.rowStride;
    PROCRUSTES_ASSERT(w.nnz() <= kMaxIndex && ws.numel() <= kMaxIndex &&
                          c * std::max(lay.planeSize, bw.plane) <= kMaxIndex &&
                          k * bd.dyPlane <= kMaxIndex,
                      "conv tap pack offsets exceed 32 bits");

    // Per kernel element e = (r, s): its clip window; the forward's
    // offset into a prepared sample plane and its MACs per sample (0
    // when the window is empty, so the tap adds nothing); the dx phase
    // a * stride + b it lands on (a ≡ r - pad, b ≡ s - pad mod stride;
    // -1 when that phase or the window is empty) and its offset into
    // padded dy from there; and its backward-weight window class (the
    // first element with the same window, so the same dy streaks) with
    // the plane offset of its first x read.
    pack.win.resize(static_cast<size_t>(rs));
    std::vector<int64_t> fw_off(static_cast<size_t>(rs));
    std::vector<int64_t> fw_macs(static_cast<size_t>(rs));
    std::vector<int64_t> bd_phase(static_cast<size_t>(rs));
    std::vector<int64_t> bd_off(static_cast<size_t>(rs));
    std::vector<int64_t> bw_cls(static_cast<size_t>(rs));
    std::vector<int64_t> bw_off(static_cast<size_t>(rs));
    for (size_t e = 0; e < static_cast<size_t>(rs); ++e) {
        const int64_t r = static_cast<int64_t>(e) / s_ext;
        const int64_t s = static_cast<int64_t>(e) % s_ext;
        ConvWindow &wd = pack.win[e];
        kernels::validOutRange(p_ext, in_h, r, stride, pad, &wd.pLo,
                               &wd.pHi);
        kernels::validOutRange(q_ext, in_w, s, stride, pad, &wd.qLo,
                               &wd.qHi);
        fw_off[e] = lay.tapOffset(r, s);
        fw_macs[e] = (wd.pHi - wd.pLo) * (wd.qHi - wd.qLo);
        const int64_t a = ((r - pad) % stride + stride) % stride;
        const int64_t b = ((s - pad) % stride + stride) % stride;
        bd_phase[e] =
            a < in_h && b < in_w && !wd.empty() ? a * stride + b : -1;
        bd_off[e] = ((a + pad) / stride + bd.loH - r / stride) * bd.dyRow +
                    (b + pad) / stride + bd.loW - s / stride;
        bw_off[e] = (raw ? (r - pad) * in_w + s - pad : fw_off[e]) +
                    wd.pLo * bw.rowStride + wd.qLo;
        bw_cls[e] = static_cast<int64_t>(e);
        for (size_t f = 0; f < e; ++f) {
            const ConvWindow &o = pack.win[f];
            if (o.pLo == wd.pLo && o.pHi == wd.pHi && o.qLo == wd.qLo &&
                o.qHi == wd.qHi) {
                bw_cls[e] = static_cast<int64_t>(f);
                break;
            }
        }
    }

    // Forward: per output channel the input-channel sweep is flattened
    // into one tap stream, cut into L1-sized input-channel chunks so the
    // output-stationary kernel re-reads hot x rows from cache. The
    // executed-MAC count is per-tap arithmetic (clipped extents), so the
    // padding zeros the PEs would skip are left out of it.
    const int64_t ic_chunk = l1ChannelChunk(
        r_ext + stride * (kernels::convStripRows(q_ext) - 1));
    fw.chunks = (c + ic_chunk - 1) / ic_chunk;
    fw.runs.reserve(pack.taps.size());
    for (int64_t ok = 0; ok < k; ++ok) {
        for (int64_t ic0 = 0; ic0 < c; ic0 += ic_chunk) {
            fw.bound.push_back(static_cast<int64_t>(fw.runs.size()));
            for (int64_t ic = ic0; ic < std::min(c, ic0 + ic_chunk); ++ic) {
                const int64_t b = ok * c + ic;
                for (int64_t t = block_off[b]; t < block_off[b + 1]; ++t) {
                    const size_t e = static_cast<size_t>(taps[t]);
                    if (fw_macs[e] == 0)
                        continue;
                    fw.macsPerSample += fw_macs[e];
                    fw.runs.push_back(
                        {static_cast<int32_t>(ic * lay.planeSize + fw_off[e]),
                         static_cast<int32_t>(t)});
                }
            }
        }
    }
    fw.bound.push_back(static_cast<int64_t>(fw.runs.size()));

    // Backward-data, the 180-degree-rotated view of the same blocks
    // (Figure 2b) in gather form: per input channel and dx phase, the
    // taps of every output channel that land there, by output channel,
    // then pack order — one fixed addition sequence per dx element —
    // cut into L1-sized output-channel chunks.
    const int64_t ok_chunk =
        l1ChannelChunk((r_ext + stride - 1) / stride - 1 +
                       kernels::convStripRows((in_w + stride - 1) / stride));
    bd.chunks = (k + ok_chunk - 1) / ok_chunk;
    bd.runs.reserve(pack.taps.size());
    for (int64_t ic = 0; ic < c; ++ic) {
        for (int64_t ph = 0; ph < stride * stride; ++ph) {
            for (int64_t ok0 = 0; ok0 < k; ok0 += ok_chunk) {
                bd.bound.push_back(static_cast<int64_t>(bd.runs.size()));
                for (int64_t ok = ok0; ok < std::min(k, ok0 + ok_chunk);
                     ++ok) {
                    const int64_t b = ok * c + ic;
                    for (int64_t t = block_off[b]; t < block_off[b + 1];
                         ++t) {
                        const size_t e = static_cast<size_t>(taps[t]);
                        if (bd_phase[e] == ph)
                            bd.runs.push_back(
                                {static_cast<int32_t>(ok * bd.dyPlane +
                                                      bd_off[e]),
                                 static_cast<int32_t>(t)});
                    }
                }
            }
        }
    }
    bd.bound.push_back(static_cast<int64_t>(bd.runs.size()));

    // Backward-weight: (output-channel block x input-channel block)
    // tiles, and per output channel of a tile its live taps bucketed by
    // window class across the tile's input channels, in groups of up to
    // 8. A tile's share of one sample's x and of its dy each stay near
    // kTileFloats. The side a tile prepares is cut first into kMinTiles
    // blocks where its channels allow: the input channels at stride > 1,
    // as every output-channel block would prepare them again (a block
    // of few input channels only part-fills its groups, which costs
    // less), and nothing at stride 1, where the taps read x in place.
    // Then the output channels, up to kMinTiles tiles.
    bw.icTiles = tileBlocks(c, bw.plane, raw ? 1 : kMinTiles);
    bw.okTiles = tileBlocks(k, p_ext * q_ext,
                            (kMinTiles + bw.icTiles - 1) / bw.icTiles);
    struct TapRef
    {
        int32_t xoff, slot;
    };
    std::vector<std::vector<TapRef>> bucket(static_cast<size_t>(rs));
    bw.xoff.reserve(pack.taps.size());
    bw.slot.reserve(pack.taps.size());
    for (int64_t okb = 0; okb < bw.okTiles; ++okb) {
        for (int64_t icb = 0; icb < bw.icTiles; ++icb) {
            bw.tapOff.push_back(static_cast<int64_t>(bw.xoff.size()));
            bw.groupOff.push_back(static_cast<int64_t>(bw.groups.size()));
            const int64_t ic0 = blockStart(icb, c, bw.icTiles);
            const int64_t ic1 = blockStart(icb + 1, c, bw.icTiles);
            for (int64_t ok = blockStart(okb, k, bw.okTiles);
                 ok < blockStart(okb + 1, k, bw.okTiles); ++ok) {
                for (int64_t b = ok * c + ic0; b < ok * c + ic1; ++b) {
                    for (int64_t t = block_off[b]; t < block_off[b + 1];
                         ++t) {
                        const size_t e = static_cast<size_t>(taps[t]);
                        bucket[static_cast<size_t>(bw_cls[e])].push_back(
                            {static_cast<int32_t>(
                                 (b - ok * c - ic0) * bw.plane + bw_off[e]),
                             static_cast<int32_t>(b * rs + taps[t])});
                    }
                }
                for (int64_t cl = 0; cl < rs; ++cl) {
                    std::vector<TapRef> &bk = bucket[static_cast<size_t>(cl)];
                    const int64_t first = static_cast<int64_t>(bw.xoff.size());
                    for (const TapRef &tr : bk) {
                        bw.xoff.push_back(tr.xoff);
                        bw.slot.push_back(tr.slot);
                    }
                    bk.clear();
                    const ConvWindow &wd = pack.win[static_cast<size_t>(cl)];
                    const int64_t end = static_cast<int64_t>(bw.xoff.size());
                    for (int64_t g = first; g < end && !wd.empty(); g += 8)
                        bw.groups.push_back(
                            {(ok * p_ext + wd.pLo) * q_ext + wd.qLo,
                             wd.pHi - wd.pLo, wd.qHi - wd.qLo, g,
                             std::min<int64_t>(8, end - g)});
                }
            }
        }
    }
    bw.tapOff.push_back(static_cast<int64_t>(bw.xoff.size()));
    bw.groupOff.push_back(static_cast<int64_t>(bw.groups.size()));
    return pack;
}

Tensor
sparseConvForward(const Tensor &x, const CsbTensor &w, int64_t stride,
                  int64_t pad, int64_t *macs, const ConvTapPack *pack)
{
    PROCRUSTES_ASSERT(w.kind() == CsbTensor::Kind::ConvFilters,
                      "weights must be CSB conv filters");
    const Shape &ws = w.denseShape();
    const Shape &xs = x.shape();
    PROCRUSTES_ASSERT(xs.rank() == 4 && xs[1] == ws[1],
                      "input channels mismatch");
    const int64_t n = xs[0];
    const int64_t c = ws[1];
    const int64_t h = xs[2];
    const int64_t width = xs[3];
    const int64_t k = ws[0];
    const int64_t r_ext = ws[2];
    const int64_t s_ext = ws[3];
    const int64_t p_ext = outExtent(h, r_ext, stride, pad);
    const int64_t q_ext = outExtent(width, s_ext, stride, pad);

    Tensor y = Tensor::uninitialized(Shape{n, k, p_ext, q_ext});
    const float *px = x.data();
    float *py = y.data();

    ConvTapPack local_pack;
    pack = resolvePack(pack, w, h, width, stride, pad, &local_pack);
    const ConvTapPack::Forward &fw = pack->fw;
    const int64_t nchunks = fw.chunks;
    const float *wvals = w.valuesData();
    const PlaneLayout lay(h, width, stride, pad);

    // Tiled by (sample x output-channel block) (forEachSampleTile). A
    // task fills its tile's sample, zero-padded (see PlaneLayout), into
    // its private block, where it stays hot in that core's cache while
    // the task sweeps its output channels, and zeroes and accumulates
    // only its own y[in, ok] planes, so no locks are needed. Per y
    // element the chunks accumulate in fixed ic order and the taps in
    // pack order, whatever the tiling, so the result is identical at
    // every thread count and SIMD level.
    const int64_t total_macs = fw.macsPerSample * n;
    forEachSampleTile(
        n, k, p_ext * q_ext, total_macs, c * lay.planeSize, 0,
        [&](int64_t in, float *xs_in) {
            lay.fillPlanes(xs_in, px + in * c * h * width, c);
        },
        [&](int64_t in, int64_t ok0, int64_t ok1, const float *xs_in) {
            for (int64_t ok = ok0; ok < ok1; ++ok) {
                float *yplane = py + (in * k + ok) * p_ext * q_ext;
                std::fill(yplane, yplane + p_ext * q_ext, 0.0f);
                const int64_t *cb = fw.bound.data() + ok * nchunks;
                for (int64_t g = 0; g < nchunks; ++g) {
                    if (cb[g + 1] == cb[g])
                        continue;
                    kernels::sparseConvFwdPlaneRun(
                        fw.runs.data() + cb[g], cb[g + 1] - cb[g], wvals,
                        xs_in, yplane, stride * lay.rowStride, p_ext,
                        q_ext);
                }
            }
        });
    if (macs)
        *macs = total_macs;
    return y;
}

Tensor
sparseConvBackwardData(const Tensor &dy, const CsbTensor &w,
                       const Shape &x_shape, int64_t stride,
                       int64_t pad, int64_t *macs, const ConvTapPack *pack)
{
    PROCRUSTES_ASSERT(w.kind() == CsbTensor::Kind::ConvFilters,
                      "weights must be CSB conv filters");
    const Shape &ws = w.denseShape();
    PROCRUSTES_ASSERT(x_shape.rank() == 4 && x_shape[1] == ws[1],
                      "x shape mismatch");
    const int64_t n = x_shape[0];
    const int64_t c = ws[1];
    const int64_t h = x_shape[2];
    const int64_t width = x_shape[3];
    const int64_t k = ws[0];
    const int64_t r_ext = ws[2];
    const int64_t s_ext = ws[3];
    const int64_t p_ext = outExtent(h, r_ext, stride, pad);
    const int64_t q_ext = outExtent(width, s_ext, stride, pad);
    PROCRUSTES_ASSERT(dy.shape() == Shape({n, k, p_ext, q_ext}),
                      "dy shape mismatch");

    Tensor dx = Tensor::uninitialized(x_shape);
    const float *pdy = dy.data();
    float *pdx = dx.data();

    ConvTapPack local_pack;
    pack = resolvePack(pack, w, h, width, stride, pad, &local_pack);
    const ConvTapPack::BackwardData &bd = pack->bd;
    const int32_t *taps = pack->taps.data();
    const int64_t *block_off = pack->blockOff.data();
    const float *wvals = w.valuesData();

    // Executed MACs: the non-zero dy of each (output channel, kernel
    // element) window, summed over the batch, once per output channel;
    // a live tap then costs one lookup.
    const int64_t rs = r_ext * s_ext;
    const int64_t plane = p_ext * q_ext;
    std::atomic<int64_t> mac_total{0};
    ThreadPool::global().parallelFor(0, k, [&](int64_t ok0, int64_t ok1) {
        int64_t local_macs = 0;
        std::vector<int32_t> nz(static_cast<size_t>(plane));
        std::vector<int64_t> win_nz(static_cast<size_t>(rs));
        for (int64_t ok = ok0; ok < ok1; ++ok) {
            windowNonZeros(pdy + ok * plane, n, k * plane, plane, pack->win,
                           q_ext, 1, [](int64_t) { return int64_t{0}; },
                           nz.data(), win_nz.data());
            for (int64_t t = block_off[ok * c]; t < block_off[(ok + 1) * c];
                 ++t)
                local_macs += win_nz[static_cast<size_t>(taps[t])];
        }
        mac_total.fetch_add(local_macs, std::memory_order_relaxed);
    }, std::max<int64_t>(
           1, kPrepareGrainFloats / std::max<int64_t>(1, n * plane)));

    // Tiled by (sample x input-channel block) (forEachSampleTile). A
    // task pads its tile's sample's k dy planes into its private block,
    // which every input channel of that sample reuses, and owns the
    // tile's dx[in, ic] planes, so no locks are needed. At stride 1 the
    // one phase plane is the dx plane itself, zeroed by its task before
    // it accumulates; otherwise each phase accumulates in the block's
    // zeroed scratch and is interleaved into dx (a phase no tap lands
    // on interleaves its zeros). Every dx element is written by its own
    // task, so dx starts uninitialized. Per dx element the pack's run
    // fixes one addition order, so the result is deterministic for any
    // thread count and SIMD level.
    const int64_t lo_h = bd.loH, lo_w = bd.loW;
    const int64_t dyrow = bd.dyRow, dyplane_sz = bd.dyPlane;
    const int64_t nchunks = bd.chunks;
    const int64_t ph_rows = (h + stride - 1) / stride;
    const int64_t ph_cols = (width + stride - 1) / stride;
    forEachSampleTile(
        n, c, h * width,
        static_cast<int64_t>(pack->taps.size()) * n * p_ext * q_ext,
        k * dyplane_sz, stride > 1 ? ph_rows * ph_cols : 0,
        [&](int64_t in, float *dys) {
            for (int64_t ok = 0; ok < k; ++ok) {
                const float *src = pdy + (in * k + ok) * p_ext * q_ext;
                float *dst = dys + ok * dyplane_sz;
                std::fill(dst, dst + lo_h * dyrow, 0.0f);
                for (int64_t p = 0; p < p_ext; ++p) {
                    float *drow = dst + (lo_h + p) * dyrow;
                    std::fill(drow, drow + lo_w, 0.0f);
                    std::memcpy(drow + lo_w, src + p * q_ext,
                                static_cast<size_t>(q_ext) * sizeof(float));
                    std::fill(drow + lo_w + q_ext, drow + dyrow, 0.0f);
                }
                std::fill(dst + (lo_h + p_ext) * dyrow, dst + dyplane_sz,
                          0.0f);
            }
        },
        [&](int64_t in, int64_t ic0, int64_t ic1, float *dys) {
            float *phase = dys + k * dyplane_sz + 8;
            for (int64_t ic = ic0; ic < ic1; ++ic) {
                float *dxplane = pdx + (in * c + ic) * h * width;
                for (int64_t a = 0; a < stride && a < h; ++a) {
                    const int64_t rows = (h - a + stride - 1) / stride;
                    for (int64_t b = 0; b < stride && b < width; ++b) {
                        const int64_t cols =
                            (width - b + stride - 1) / stride;
                        const int64_t *cb =
                            bd.bound.data() +
                            (ic * stride * stride + a * stride + b) * nchunks;
                        float *dst = stride > 1 ? phase : dxplane;
                        std::fill(dst, dst + rows * cols, 0.0f);
                        for (int64_t g = 0; g < nchunks; ++g) {
                            if (cb[g + 1] == cb[g])
                                continue;
                            kernels::sparseConvBwdDataPlaneRun(
                                bd.runs.data() + cb[g], cb[g + 1] - cb[g],
                                wvals, dys, dst, dyrow, rows, cols);
                        }
                        if (stride == 1)
                            continue;
                        for (int64_t r = 0; r < rows; ++r) {
                            const float *prow = dst + r * cols;
                            float *xrow =
                                dxplane + (a + stride * r) * width + b;
                            for (int64_t j = 0; j < cols; ++j)
                                xrow[stride * j] = prow[j];
                        }
                    }
                }
            }
        });
    if (macs)
        *macs = mac_total.load(std::memory_order_relaxed);
    return dx;
}

void
sparseConvBackwardWeights(const Tensor &x, const Tensor &dy,
                          const CsbTensor &w, int64_t stride,
                          int64_t pad, Tensor *dw, int64_t *macs,
                          const ConvTapPack *pack)
{
    PROCRUSTES_ASSERT(w.kind() == CsbTensor::Kind::ConvFilters,
                      "weights must be CSB conv filters");
    const Shape &ws = w.denseShape();
    const Shape &xs = x.shape();
    PROCRUSTES_ASSERT(xs.rank() == 4 && xs[1] == ws[1],
                      "input channels mismatch");
    PROCRUSTES_ASSERT(dw && dw->shape() == ws,
                      "dw shape mismatch in sparse conv backward");
    const int64_t n = xs[0];
    const int64_t c = ws[1];
    const int64_t h = xs[2];
    const int64_t width = xs[3];
    const int64_t k = ws[0];
    const int64_t r_ext = ws[2];
    const int64_t s_ext = ws[3];
    const int64_t p_ext = outExtent(h, r_ext, stride, pad);
    const int64_t q_ext = outExtent(width, s_ext, stride, pad);
    PROCRUSTES_ASSERT(dy.shape() == Shape({n, k, p_ext, q_ext}),
                      "dy shape mismatch");

    const float *px = x.data();
    const float *pdy = dy.data();
    float *pdw = dw->data();

    ConvTapPack local_pack;
    pack = resolvePack(pack, w, h, width, stride, pad, &local_pack);
    const ConvTapPack::BackwardWeight &bw = pack->bw;
    const int32_t *taps = pack->taps.data();
    const int64_t *block_off = pack->blockOff.data();

    // One pass over x, partitioned over input channels, takes the
    // executed-MAC counts: the non-zero x of each (input channel, kernel
    // element) window, summed over the batch, once per call; a live tap
    // then costs one table read.
    const int64_t rs = r_ext * s_ext;
    std::vector<int64_t> nz_count(static_cast<size_t>(c * rs));
    const int64_t ic_grain = std::max<int64_t>(
        1, kPrepareGrainFloats / std::max<int64_t>(1, n * h * width));
    ThreadPool::global().parallelFor(0, c, [&](int64_t ic0, int64_t ic1) {
        std::vector<int32_t> nz(static_cast<size_t>(h * width));
        for (int64_t ic = ic0; ic < ic1; ++ic)
            windowNonZeros(
                px + ic * h * width, n, c * h * width, h * width, pack->win,
                stride * width, stride,
                [&](int64_t e) {
                    return (e / s_ext - pad) * width + e % s_ext - pad;
                },
                nz.data(), nz_count.data() + ic * rs);
    }, ic_grain);

    // Partitioned over the pack's (output-channel block x input-channel
    // block) tiles, as the PEs of the paper's C,N and K,N mappings each
    // hold only their operands: a tile owns the dW slices of its taps
    // and reads only its input channels' x and its output channels' dy.
    // Samples run outermost; at stride > 1 the tile first copies its
    // input channels of the sample, prepared as in the forward (see
    // PlaneLayout), into a block of its own, and at stride 1 it reads x
    // itself. Every tap lives in one tile and accumulates into its own 8
    // lanes, so its addition sequence — samples, then p, then q — does
    // not depend on the tiling, the grouping, the partition or the SIMD
    // level. Pruned taps are never touched, so their dW entries stay
    // exactly as given; a live tap with an empty window adds the sum of
    // zero lanes, +0, like every other tap. The lanes and the prepared
    // blocks are slices of two heap blocks, indexed by tap and by tile
    // and allocated here on the calling thread: blocks each task
    // allocated on a pool thread raised train_sparse's peak RSS by about
    // 2 MB. A task gets at least kGrainMacs of work, counting zeros, so
    // a small fc head runs inline.
    const PlaneLayout lay(h, width, stride, pad);
    const bool raw = stride == 1;
    const int64_t tiles = bw.okTiles * bw.icTiles;
    std::atomic<int64_t> mac_total{0};
    const int64_t ic_block = (c + bw.icTiles - 1) / bw.icTiles;
    std::vector<float> lanes(static_cast<size_t>(8 * bw.tapOff.back()),
                             0.0f);
    std::unique_ptr<float[]> blocks(
        raw ? nullptr
            : new float[static_cast<size_t>(tiles * ic_block * bw.plane)]);
    ThreadPool::global().parallelFor(0, tiles, [&](int64_t t0, int64_t t1) {
        int64_t local_macs = 0;
        for (int64_t t = t0; t < t1; ++t) {
            const int64_t okb = t / bw.icTiles, icb = t % bw.icTiles;
            const int64_t ok0 = blockStart(okb, k, bw.okTiles);
            const int64_t ok1 = blockStart(okb + 1, k, bw.okTiles);
            const int64_t ic0 = blockStart(icb, c, bw.icTiles);
            const int64_t ic1 = blockStart(icb + 1, c, bw.icTiles);
            for (int64_t ok = ok0; ok < ok1; ++ok) {
                for (int64_t ic = ic0; ic < ic1; ++ic) {
                    const int64_t b = ok * c + ic;
                    const int64_t *row = nz_count.data() + ic * rs;
                    for (int64_t i = block_off[b]; i < block_off[b + 1]; ++i)
                        local_macs += row[taps[i]];
                }
            }
            float *block = blocks.get() + (raw ? 0 : t * ic_block * bw.plane);
            const ConvTapPack::BackwardWeight::Group *g0 =
                bw.groups.data() + bw.groupOff[static_cast<size_t>(t)];
            const ConvTapPack::BackwardWeight::Group *g1 =
                bw.groups.data() + bw.groupOff[static_cast<size_t>(t) + 1];
            for (int64_t in = 0; in < n && g0 != g1; ++in) {
                const float *xn = px + (in * c + ic0) * h * width;
                if (!raw) {
                    lay.fillPlanes(block, xn, ic1 - ic0);
                    xn = block;
                }
                const float *dyn = pdy + in * k * p_ext * q_ext;
                for (const auto *g = g0; g != g1; ++g)
                    kernels::sparseConvBwdWeightGroup(
                        bw.xoff.data() + g->first, g->count, xn,
                        bw.rowStride, dyn + g->dyoff, q_ext, g->rows,
                        g->cols, lanes.data() + 8 * g->first);
            }
            for (int64_t i = bw.tapOff[static_cast<size_t>(t)];
                 i < bw.tapOff[static_cast<size_t>(t) + 1]; ++i)
                pdw[bw.slot[static_cast<size_t>(i)]] +=
                    kernels::sumLanes8(lanes.data() + 8 * i);
        }
        mac_total.fetch_add(local_macs, std::memory_order_relaxed);
    }, taskGrain(tiles, static_cast<int64_t>(pack->taps.size()) * n *
                            p_ext * q_ext));
    if (macs)
        *macs = mac_total.load(std::memory_order_relaxed);
}

} // namespace sparse
} // namespace procrustes
