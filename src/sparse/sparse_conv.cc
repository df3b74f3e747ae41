#include "sparse/sparse_conv.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/thread_pool.h"

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

/**
 * Use the caller's tap pack when it matches this (mask, geometry) pair;
 * otherwise build one into `local` and return that. A caller-provided
 * pack with the wrong geometry is a contract violation, not a cache
 * miss — the layers test matches() themselves before passing one.
 */
const kernels::ConvTapPack *
resolvePack(const kernels::ConvTapPack *pack, const CsbTensor &w,
            int64_t h, int64_t width, int64_t stride, int64_t pad,
            kernels::ConvTapPack *local)
{
    if (pack) {
        PROCRUSTES_ASSERT(pack->matches(h, width, stride, pad),
                          "conv tap pack geometry mismatch");
        PROCRUSTES_ASSERT(static_cast<int64_t>(pack->blockOff.size()) ==
                              w.numBlocks() + 1,
                          "conv tap pack block count mismatch");
        return pack;
    }
    *local = kernels::packConvTaps(w, h, width, stride, pad);
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
 * Least work per pool task: floats of x or dy for the input
 * preparation and the non-zero tallies (64 KiB), multiply-adds for the
 * forward tiles and the backward-weight reduction, live taps for the
 * forward's run build. Below them a call
 * runs inline, which costs less than waking the pool — an fc head's
 * batch plane is that small.
 */
constexpr int64_t kPrepareGrainFloats = int64_t{1} << 14;
constexpr int64_t kGrainMacs = int64_t{1} << 15;
constexpr int64_t kGrainTaps = int64_t{1} << 12;

/**
 * (sample, output-channel block) tiles the forward aims for: at batch
 * 16 and up every sample is one tile; a smaller batch — an fc head's
 * plane has one sample — splits its output channels into blocks so the
 * pool still gets about this many tiles. It depends on the batch only,
 * so the tiling is the same at every thread count.
 */
constexpr int64_t kForwardTiles = 16;

/**
 * The layout of a conv input copied zero-padded and phase-split by the
 * column stride, so the taps of forward and backward-weight read
 * unit-stride row segments with plain loads — no range masks, no
 * gathers. Padded column cp of a row lands in slot (cp % stride) *
 * slots + cp / stride, so kernel element (r, s) reads output position
 * (p, q) of one (sample, channel) plane at tapOffset(r, s) + p * stride
 * * rowStride + q. The forward fills each sample's planes into a
 * block of the task that owns the sample (a small batch, whose samples
 * several tasks share, into one buffer up front); backward-weight fills
 * the whole batch at stride > 1.
 */
struct PlaneLayout
{
    int64_t stride, pad, h, width;
    int64_t slots;       //!< phase slots per padded row
    int64_t rowStride;   //!< floats per padded row (slots * stride)
    int64_t planeSize;   //!< floats per (sample, channel) plane

    PlaneLayout(const Shape &xs, int64_t conv_stride, int64_t conv_pad)
        : stride(conv_stride), pad(conv_pad), h(xs[2]), width(xs[3]),
          slots((width + 2 * pad + stride - 1) / stride),
          rowStride(slots * stride), planeSize((h + 2 * pad) * rowStride)
    {
    }

    int64_t
    tapOffset(int64_t r, int64_t s) const
    {
        return r * rowStride + (s % stride) * slots + s / stride;
    }

    /** Fill the plane at dst from its h x width source. */
    void
    fillPlane(float *dst, const float *src) const
    {
        std::fill(dst, dst + planeSize, 0.0f);
        for (int64_t hr = 0; hr < h; ++hr) {
            const float *srow = src + hr * width;
            float *drow = dst + (hr + pad) * rowStride;
            if (stride == 1) {
                std::memcpy(drow + pad, srow,
                            static_cast<size_t>(width) * sizeof(float));
                continue;
            }
            // Phase-major so the per-element divisions hoist out of the
            // inner loop: padded column slot * stride + ph holds source
            // column slot * stride + ph - pad.
            for (int64_t ph = 0; ph < stride; ++ph) {
                float *dph = drow + ph * slots;
                int64_t slot =
                    ph >= pad ? 0 : (pad - ph + stride - 1) / stride;
                const int64_t last = (pad + width - 1 - ph) / stride;
                const float *sp = srow + slot * stride + ph - pad;
                for (; slot <= last; ++slot, sp += stride)
                    dph[slot] = *sp;
            }
        }
    }
};

} // namespace

Tensor
sparseConvForward(const Tensor &x, const CsbTensor &w, int64_t stride,
                  int64_t pad, int64_t *macs,
                  const kernels::ConvTapPack *pack)
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

    kernels::ConvTapPack local_pack;
    pack = resolvePack(pack, w, h, width, stride, pad, &local_pack);
    const kernels::ConvTap *all_taps = pack->taps.data();
    const float *wvals = w.valuesData();
    const PlaneLayout lay(xs, stride, pad);
    const int64_t plane_sz = lay.planeSize;

    // The tap runs, built once per call. Per output channel the
    // input-channel sweep is flattened into one homogeneous tap stream
    // (channel plane, kernel row, and phase slot folded into xoff, an
    // offset into one sample's prepared planes; weight value copied
    // in), split into L1-sized input-channel chunks so the
    // output-stationary kernel re-reads hot x rows from cache. Zero
    // blocks and zero weights are skipped exactly as the PEs skip them
    // — the pack holds mask-live taps only. Output channel ok's run
    // starts at its first pack tap (fully clipped taps leave the
    // slot's tail unused); chunk g spans runs[cb[g], cb[g + 1]), cb =
    // bound + ok * (nchunks + 1). The executed-MAC tally is per-tap
    // arithmetic (clipped extents x batch), not an inner-loop counter,
    // so it costs nothing — padding adds exact zeros the PEs would
    // skip, and the tally does not count them.
    const int64_t ic_chunk = l1ChannelChunk(
        r_ext + stride * (kernels::convStripRows(q_ext) - 1));
    const int64_t nchunks = (c + ic_chunk - 1) / ic_chunk;
    std::vector<kernels::ConvRunTap> runs(pack->taps.size());
    std::vector<int64_t> bound(static_cast<size_t>(k * (nchunks + 1)));
    // Kernel element e reads its sample plane at elem_off[e] and fires
    // on elem_macs[e] output positions, 0 when its clip window is empty.
    const int64_t rs = r_ext * s_ext;
    std::vector<int64_t> elem_off(static_cast<size_t>(rs));
    std::vector<int64_t> elem_macs(static_cast<size_t>(rs));
    for (int64_t e = 0; e < rs; ++e) {
        const kernels::ConvWindow &wd = pack->win[e];
        elem_off[static_cast<size_t>(e)] =
            lay.tapOffset(e / s_ext, e % s_ext);
        elem_macs[static_cast<size_t>(e)] =
            (wd.pHi - wd.pLo) * (wd.qHi - wd.qLo);
    }
    std::atomic<int64_t> mac_total{0};
    ThreadPool::global().parallelFor(0, k, [&](int64_t ok0, int64_t ok1) {
        int64_t local_macs = 0;
        for (int64_t ok = ok0; ok < ok1; ++ok) {
            int64_t *cb = bound.data() + ok * (nchunks + 1);
            int64_t fill = pack->blockOff[static_cast<size_t>(ok * c)];
            for (int64_t ic0 = 0; ic0 < c; ic0 += ic_chunk) {
                *cb++ = fill;
                const int64_t b_end = ok * c + std::min(c, ic0 + ic_chunk);
                for (int64_t b = ok * c + ic0; b < b_end; ++b) {
                    const int64_t t0 =
                        pack->blockOff[static_cast<size_t>(b)];
                    const int64_t ntaps =
                        pack->blockOff[static_cast<size_t>(b) + 1] - t0;
                    if (ntaps == 0)
                        continue;
                    const int64_t plane = (b - ok * c) * plane_sz;
                    const float *bvals = wvals + w.blockValueOffset(b);
                    for (int64_t t = 0; t < ntaps; ++t) {
                        const size_t e =
                            static_cast<size_t>(all_taps[t0 + t].elem);
                        if (elem_macs[e] == 0)
                            continue;   // fully clipped: adds nothing
                        local_macs += elem_macs[e];
                        runs[static_cast<size_t>(fill++)] = {
                            plane + elem_off[e], bvals[t]};
                    }
                }
            }
            *cb = fill;
        }
        mac_total.fetch_add(local_macs * n, std::memory_order_relaxed);
    }, std::max<int64_t>(1, kGrainTaps * k /
                                std::max<int64_t>(1, pack->taps.size())));

    // Partitioned over (sample, output-channel block) tiles,
    // sample-major, as the PEs of the K,N mapping each own their
    // samples' activations; each task zeroes and accumulates only its
    // own y[in, ok] planes, so no locks are needed. Per y element the
    // chunks accumulate in fixed ic order and the taps in pack order,
    // whatever the tiling, so the result is identical at every thread
    // count and SIMD level. A task gets at least kGrainMacs of work, so
    // a small fc head runs inline.
    const int64_t max_blocks = std::min(
        std::max<int64_t>(k, 1),
        (kForwardTiles + n - 1) / std::max<int64_t>(n, 1));
    const int64_t ok_per_block =
        std::max<int64_t>(1, (k + max_blocks - 1) / max_blocks);
    const int64_t ok_blocks = (k + ok_per_block - 1) / ok_per_block;
    const int64_t total_macs = mac_total.load(std::memory_order_relaxed);
    const int64_t tile_grain = std::max<int64_t>(
        1, kGrainMacs * n * ok_blocks / std::max<int64_t>(1, total_macs));

    // The zero-padded input planes (see PlaneLayout), 8 floats of slack
    // after them for the kernel's read-past-tail vectors. A sample that
    // is one tile is filled by its task into a private block when the
    // task first needs it, and stays hot in that core's cache while the
    // task sweeps its output channels. A sample split into several
    // output-channel blocks is read by several tasks, so the batch is
    // filled once, up front, into one shared buffer instead of once per
    // task.
    const int64_t sample_sz = c * plane_sz;
    const bool shared = ok_blocks > 1;
    std::unique_ptr<float[]> batch_buf;
    if (shared) {
        batch_buf.reset(new float[static_cast<size_t>(n * sample_sz + 8)]);
        std::fill(batch_buf.get() + n * sample_sz,
                  batch_buf.get() + n * sample_sz + 8, 0.0f);
        ThreadPool::global().parallelFor(
            0, n * c,
            [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i)
                    lay.fillPlane(batch_buf.get() + i * plane_sz,
                                  px + i * h * width);
            },
            std::max<int64_t>(
                1, kPrepareGrainFloats / std::max<int64_t>(1, plane_sz)));
    }
    ThreadPool::global().parallelFor(0, n * ok_blocks, [&](int64_t t0,
                                                           int64_t t1) {
        std::unique_ptr<float[]> block;
        if (!shared) {
            block.reset(new float[static_cast<size_t>(sample_sz + 8)]);
            std::fill(block.get() + sample_sz, block.get() + sample_sz + 8,
                      0.0f);
        }
        int64_t prepared = -1;
        for (int64_t t = t0; t < t1; ++t) {
            const int64_t in = t / ok_blocks;
            const int64_t ok0 = t % ok_blocks * ok_per_block;
            const int64_t ok1 = std::min(k, ok0 + ok_per_block);
            const float *xs_in =
                shared ? batch_buf.get() + in * sample_sz : block.get();
            for (int64_t ok = ok0; ok < ok1; ++ok) {
                float *yplane = py + (in * k + ok) * p_ext * q_ext;
                std::fill(yplane, yplane + p_ext * q_ext, 0.0f);
                const int64_t *cb = bound.data() + ok * (nchunks + 1);
                if (cb[0] == cb[nchunks])
                    continue;   // no live taps: the plane stays zero
                if (!shared && in != prepared) {
                    for (int64_t ic = 0; ic < c; ++ic)
                        lay.fillPlane(block.get() + ic * plane_sz,
                                      px + (in * c + ic) * h * width);
                    prepared = in;
                }
                for (int64_t g = 0; g < nchunks; ++g) {
                    if (cb[g + 1] == cb[g])
                        continue;
                    kernels::sparseConvFwdPlaneRun(
                        runs.data() + cb[g], cb[g + 1] - cb[g], xs_in,
                        yplane, stride * lay.rowStride, p_ext, q_ext);
                }
            }
        }
    }, tile_grain);
    if (macs)
        *macs = total_macs;
    return y;
}

Tensor
sparseConvBackwardData(const Tensor &dy, const CsbTensor &w,
                       const Shape &x_shape, int64_t stride,
                       int64_t pad, int64_t *macs,
                       const kernels::ConvTapPack *pack)
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

    kernels::ConvTapPack local_pack;
    pack = resolvePack(pack, w, h, width, stride, pad, &local_pack);
    const kernels::ConvTap *all_taps = pack->taps.data();
    const float *wvals = w.valuesData();

    // The backward pass consumes the same packed blocks through the
    // 180-degree-rotated view (Figure 2b), in gather form: dx splits
    // into stride^2 phase planes (rows ≡ a, columns ≡ b mod stride),
    // and the taps that land on a phase form a unit-stride
    // correlation of dy — the forward pass's shape, run by the same
    // output-stationary strip kernel over a zero-padded copy of dy.
    // The padding is the exact halo those correlations read.
    int64_t lo_h, hi_h, lo_w, hi_w;
    phaseHalo(h, p_ext, r_ext, stride, pad, &lo_h, &hi_h);
    phaseHalo(width, q_ext, s_ext, stride, pad, &lo_w, &hi_w);
    const int64_t dyrow = lo_w + q_ext + hi_w;
    const int64_t dyplane_sz = (lo_h + p_ext + hi_h) * dyrow;

    // Executed MACs: a live tap fires on the non-zero dy inside its
    // padding-clipped output window. Zeros are multiplied (an exact
    // identity, see the microkernel notes) but, as a PE would skip
    // them, not counted. The count of one (output channel, element)
    // window, summed over the batch, does not depend on the input
    // channel, so each output channel gets one plane of per-pixel
    // non-zero counts over the batch, each kernel element one window
    // sum over it, and a live tap then costs one lookup.
    const int64_t rs = r_ext * s_ext;
    const int64_t plane = p_ext * q_ext;
    std::atomic<int64_t> mac_total{0};
    ThreadPool::global().parallelFor(0, k, [&](int64_t ok0, int64_t ok1) {
        int64_t local_macs = 0;
        std::vector<int32_t> nz_plane(static_cast<size_t>(plane));
        std::vector<int64_t> win_nz(static_cast<size_t>(rs));
        int32_t *nz = nz_plane.data();
        for (int64_t ok = ok0; ok < ok1; ++ok) {
            std::fill(nz, nz + plane, 0);
            for (int64_t in = 0; in < n; ++in) {
                const float *src = pdy + (in * k + ok) * plane;
                forEachBlocked8(plane,
                                [&](int64_t i) { nz[i] += src[i] != 0.0f; });
            }
            for (int64_t e = 0; e < rs; ++e) {
                const kernels::ConvWindow &wd = pack->win[e];
                int64_t total = 0;
                for (int64_t p = wd.pLo; p < wd.pHi; ++p)
                    for (int64_t q = wd.qLo; q < wd.qHi; ++q)
                        total += nz[p * q_ext + q];
                win_nz[static_cast<size_t>(e)] = total;
            }
            const int64_t t_end =
                pack->blockOff[static_cast<size_t>((ok + 1) * c)];
            for (int64_t t = pack->blockOff[static_cast<size_t>(ok * c)];
                 t < t_end; ++t)
                local_macs += win_nz[static_cast<size_t>(all_taps[t].elem)];
        }
        mac_total.fetch_add(local_macs, std::memory_order_relaxed);
    }, std::max<int64_t>(
           1, kPrepareGrainFloats / std::max<int64_t>(1, n * plane)));

    // Per ic and phase, the live taps of every output channel that
    // land there are flattened into one run, ordered by output
    // channel, then pack order: one fixed addition sequence per dx
    // element (taps outside a dx element's window read padding and
    // add an exact zero), so the result is deterministic for any
    // thread count and SIMD level. Each run is cut into L1-sized
    // output-channel chunks. All runs share one array, each ic in a
    // slot sized by its pack taps (clipped taps leave the slot's tail
    // unused; one array, not a vector per ic, keeps the worker heaps
    // from holding on to freed pieces, which measurably raised peak
    // RSS). Chunk g of phase ph spans runs[cb[g], cb[g + 1]), cb =
    // bound + ic * ic_bounds + ph * nchunks. Tap offsets address one
    // sample's padded dy planes.
    const int64_t ph_rows = (h + stride - 1) / stride;
    const int64_t ph_cols = (width + stride - 1) / stride;
    const int64_t ok_chunk =
        l1ChannelChunk((r_ext + stride - 1) / stride - 1 +
                       kernels::convStripRows(ph_cols));
    const int64_t nchunks = (k + ok_chunk - 1) / ok_chunk;
    const int64_t nph = stride * stride;
    const int64_t ic_bounds = nph * nchunks + 1;
    // Kernel element (r, s) lands on phase a ≡ r - pad, b ≡ s - pad
    // (mod stride), -1 when that phase or the element's clip window is
    // empty (it contributes nothing), and reads dy at a fixed offset
    // from there.
    std::vector<int64_t> elem_phase(static_cast<size_t>(r_ext * s_ext));
    std::vector<int64_t> elem_off(static_cast<size_t>(r_ext * s_ext));
    for (int64_t r = 0; r < r_ext; ++r) {
        const int64_t a = ((r - pad) % stride + stride) % stride;
        for (int64_t s = 0; s < s_ext; ++s) {
            const int64_t b = ((s - pad) % stride + stride) % stride;
            const size_t e = static_cast<size_t>(r * s_ext + s);
            elem_phase[e] = a < h && b < width && !pack->win[e].empty()
                                ? a * stride + b
                                : -1;
            elem_off[e] = ((a + pad) / stride + lo_h - r / stride) * dyrow +
                          (b + pad) / stride + lo_w - s / stride;
        }
    }
    // ic's taps fill runs[ic_base[ic], ic_base[ic + 1]) at most.
    std::vector<int64_t> ic_base(static_cast<size_t>(c) + 1, 0);
    for (int64_t ok = 0; ok < k; ++ok)
        for (int64_t ic = 0; ic < c; ++ic) {
            const size_t blk = static_cast<size_t>(ok * c + ic);
            ic_base[static_cast<size_t>(ic) + 1] +=
                pack->blockOff[blk + 1] - pack->blockOff[blk];
        }
    for (size_t ic = 0; ic < static_cast<size_t>(c); ++ic)
        ic_base[ic + 1] += ic_base[ic];
    std::vector<kernels::ConvRunTap> runs(
        static_cast<size_t>(ic_base[static_cast<size_t>(c)]));
    std::vector<int64_t> bound(static_cast<size_t>(c * ic_bounds));
    ThreadPool::global().parallelFor(0, c, [&](int64_t ic0, int64_t ic1) {
        // One pass per ic buckets its taps by phase; the buckets are
        // then copied into ic's slot in phase order.
        std::vector<std::vector<kernels::ConvRunTap>> bucket(
            static_cast<size_t>(nph));
        for (int64_t ic = ic0; ic < ic1; ++ic) {
            int64_t *icb = bound.data() + ic * ic_bounds;
            for (auto &bk : bucket)
                bk.clear();
            for (int64_t g = 0; g < nchunks; ++g) {
                for (int64_t ph = 0; ph < nph; ++ph)
                    icb[ph * nchunks + g] = static_cast<int64_t>(
                        bucket[static_cast<size_t>(ph)].size());
                const int64_t ok_end = std::min(k, (g + 1) * ok_chunk);
                for (int64_t ok = g * ok_chunk; ok < ok_end; ++ok) {
                    const int64_t blk = ok * c + ic;
                    const int64_t t0 =
                        pack->blockOff[static_cast<size_t>(blk)];
                    const int64_t ntaps =
                        pack->blockOff[static_cast<size_t>(blk) + 1] - t0;
                    const kernels::ConvTap *taps = all_taps + t0;
                    const float *bvals = wvals + w.blockValueOffset(blk);
                    for (int64_t t = 0; t < ntaps; ++t) {
                        const size_t e = static_cast<size_t>(taps[t].elem);
                        if (elem_phase[e] < 0)
                            continue;   // contributes nothing
                        kernels::ConvRunTap rt;
                        rt.xoff = ok * dyplane_sz + elem_off[e];
                        rt.w = bvals[t];
                        bucket[static_cast<size_t>(elem_phase[e])]
                            .push_back(rt);
                    }
                }
            }
            int64_t fill = ic_base[static_cast<size_t>(ic)];
            for (int64_t ph = 0; ph < nph; ++ph) {
                const auto &bk = bucket[static_cast<size_t>(ph)];
                for (int64_t g = 0; g < nchunks; ++g)
                    icb[ph * nchunks + g] += fill;
                std::copy(bk.begin(), bk.end(), runs.begin() + fill);
                fill += static_cast<int64_t>(bk.size());
            }
            icb[nph * nchunks] = fill;
        }
    });

    // Partitioned over (sample, input channel) pairs, sample-major:
    // each task owns its dx[in, ic] planes, so no locks are needed,
    // and pads one sample's k dy planes at a time into a private
    // workspace (8 floats of slack for the kernel's read-past-tail
    // vectors) that every input channel of that sample reuses. At
    // stride 1 the one phase plane is the dx plane itself, zeroed by
    // its task before it accumulates; otherwise each phase accumulates
    // in a zeroed private buffer and is interleaved into dx (a phase no
    // tap lands on interleaves its zeros). Every dx element is written
    // by its own task, so dx starts uninitialized.
    ThreadPool::global().parallelFor(0, n * c, [&](int64_t i0, int64_t i1) {
        std::unique_ptr<float[]> dyb(
            new float[static_cast<size_t>(k * dyplane_sz + 8)]);
        float *dys = dyb.get();
        std::fill(dys + k * dyplane_sz, dys + k * dyplane_sz + 8, 0.0f);
        std::vector<float> phase(
            stride > 1 ? static_cast<size_t>(ph_rows * ph_cols) : 0);
        int64_t padded = -1;
        for (int64_t i = i0; i < i1; ++i) {
            const int64_t in = i / c;
            const int64_t ic = i % c;
            if (in != padded) {
                for (int64_t ok = 0; ok < k; ++ok) {
                    const float *src = pdy + (in * k + ok) * p_ext * q_ext;
                    float *dst = dys + ok * dyplane_sz;
                    std::fill(dst, dst + lo_h * dyrow, 0.0f);
                    for (int64_t p = 0; p < p_ext; ++p) {
                        float *drow = dst + (lo_h + p) * dyrow;
                        std::fill(drow, drow + lo_w, 0.0f);
                        std::memcpy(drow + lo_w, src + p * q_ext,
                                    static_cast<size_t>(q_ext) *
                                        sizeof(float));
                        std::fill(drow + lo_w + q_ext, drow + dyrow, 0.0f);
                    }
                    std::fill(dst + (lo_h + p_ext) * dyrow,
                              dst + dyplane_sz, 0.0f);
                }
                padded = in;
            }
            const kernels::ConvRunTap *run = runs.data();
            float *dxplane = pdx + i * h * width;
            for (int64_t a = 0; a < stride && a < h; ++a) {
                const int64_t rows = (h - a + stride - 1) / stride;
                for (int64_t b = 0; b < stride && b < width; ++b) {
                    const int64_t cols = (width - b + stride - 1) / stride;
                    const int64_t *cb = bound.data() + ic * ic_bounds +
                                        (a * stride + b) * nchunks;
                    float *dst = stride > 1 ? phase.data() : dxplane;
                    std::fill(dst, dst + rows * cols, 0.0f);
                    for (int64_t g = 0; g < nchunks; ++g) {
                        if (cb[g + 1] == cb[g])
                            continue;
                        kernels::sparseConvBwdDataPlaneRun(
                            run + cb[g], cb[g + 1] - cb[g], dys, dst, dyrow,
                            rows, cols);
                    }
                    if (stride == 1)
                        continue;
                    for (int64_t r = 0; r < rows; ++r) {
                        const float *prow = dst + r * cols;
                        float *xrow = dxplane + (a + stride * r) * width + b;
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
                          const kernels::ConvTapPack *pack)
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

    kernels::ConvTapPack local_pack;
    pack = resolvePack(pack, w, h, width, stride, pad, &local_pack);
    const kernels::ConvTap *all_taps = pack->taps.data();
    const int64_t *block_off = pack->blockOff.data();

    // At stride > 1 the taps read a copy of x prepared as in the forward
    // (see PlaneLayout), so every read is a plain unit-stride load. At
    // stride 1 they read x itself: every clip window lies inside the
    // plane and the kernel masks its tail loads, so no halo or slack is
    // needed.
    const PlaneLayout lay(xs, stride, pad);
    const bool raw = stride == 1;
    std::unique_ptr<float[]> prepared(
        raw ? nullptr
            : new float[static_cast<size_t>(n * c * lay.planeSize)]);
    const float *xbase = raw ? px : prepared.get();
    const int64_t plane_sz = raw ? h * width : lay.planeSize;
    const int64_t xrs = raw ? width : stride * lay.rowStride;

    // Elements with equal clip windows (pack->win) read equal dy
    // streaks; cls names the first element with e's window.
    struct ElemClass
    {
        int64_t cls;
        int64_t xoff;   //!< plane offset of the window's first x read
    };
    const int64_t rs = r_ext * s_ext;
    const kernels::ConvWindow *win = pack->win.data();
    std::vector<ElemClass> eclass(static_cast<size_t>(rs));
    for (int64_t e = 0; e < rs; ++e) {
        const kernels::ConvWindow &wd = win[e];
        ElemClass &ec = eclass[static_cast<size_t>(e)];
        const int64_t r = e / s_ext, s = e % s_ext;
        ec.xoff = (raw ? (r - pad) * width + s - pad : lay.tapOffset(r, s)) +
                  wd.pLo * xrs + wd.qLo;
        ec.cls = e;
        for (int64_t f = 0; f < e; ++f) {
            const kernels::ConvWindow &o = win[f];
            if (o.pLo == wd.pLo && o.pHi == wd.pHi && o.qLo == wd.qLo &&
                o.qHi == wd.qHi) {
                ec.cls = f;
                break;
            }
        }
    }

    // One pass over x, partitioned over input channels, prepares the
    // planes and counts the executed MACs: a live tap fires on the
    // non-zero x inside its clip window. Zeros are multiplied (an exact
    // identity, see the microkernel notes) but, as a PE would skip
    // them, not counted. The count of one (input channel, element)
    // window, summed over the batch, does not depend on the output
    // channel, so each is taken once per call from the channel's plane
    // of per-pixel non-zero counts; a live tap then costs one table
    // read.
    std::vector<int64_t> nz_count(static_cast<size_t>(c * rs));
    const int64_t ic_grain = std::max<int64_t>(
        1, kPrepareGrainFloats / std::max<int64_t>(1, n * h * width));
    ThreadPool::global().parallelFor(0, c, [&](int64_t ic0, int64_t ic1) {
        std::vector<int32_t> nz_plane(static_cast<size_t>(h * width));
        int32_t *nz = nz_plane.data();
        for (int64_t ic = ic0; ic < ic1; ++ic) {
            std::fill(nz, nz + h * width, 0);
            for (int64_t in = 0; in < n; ++in) {
                const float *src = px + (in * c + ic) * h * width;
                if (!raw)
                    lay.fillPlane(prepared.get() + (in * c + ic) * plane_sz,
                                  src);
                forEachBlocked8(h * width,
                                [&](int64_t i) { nz[i] += src[i] != 0.0f; });
            }
            for (int64_t e = 0; e < rs; ++e) {
                const kernels::ConvWindow &wd = win[e];
                int64_t total = 0;
                for (int64_t p = wd.pLo; p < wd.pHi; ++p) {
                    const int64_t row =
                        (p * stride + e / s_ext - pad) * width + e % s_ext -
                        pad;
                    for (int64_t q = wd.qLo; q < wd.qHi; ++q)
                        total += nz[row + q * stride];
                }
                nz_count[static_cast<size_t>(ic * rs + e)] = total;
            }
        }
    }, ic_grain);

    // Partitioned over output channels: each task owns the dW[ok, :, :,
    // :] slices of its range. Per output channel the live taps are
    // bucketed by window class across input channels and cut into
    // groups of up to 8; a group loads each dy vector once for all its
    // taps. Every tap accumulates into its own 8 lanes, so its addition
    // sequence — samples, then p, then q — does not depend on the
    // grouping, the partition or the SIMD level. Samples run outermost,
    // so one sample's prepared x stays hot across the task's output
    // channels; the lanes wait in a per-task array between samples.
    // Pruned taps are never touched, so their dW entries stay exactly
    // as given; a live tap with an empty window adds the sum of zero
    // lanes, +0, like every other tap. A task gets at least kGrainMacs
    // of work, counting zeros, so a small fc head runs inline.
    struct TapRef
    {
        int64_t xoff;   //!< x offset within one sample's planes
        int64_t slot;   //!< dW index
    };
    struct Group
    {
        int64_t dyoff, rows, cols;
        int64_t first, count;   //!< taps [first, first + count)
    };
    const int64_t dense_macs =
        static_cast<int64_t>(pack->taps.size()) * n * p_ext * q_ext;
    const int64_t ok_grain =
        std::max<int64_t>(1, kGrainMacs * k / std::max<int64_t>(1, dense_macs));
    std::atomic<int64_t> mac_total{0};
    ThreadPool::global().parallelFor(0, k, [&](int64_t ok0, int64_t ok1) {
        int64_t local_macs = 0;
        std::vector<std::vector<TapRef>> bucket(static_cast<size_t>(rs));
        const size_t task_taps =
            static_cast<size_t>(block_off[ok1 * c] - block_off[ok0 * c]);
        std::vector<int64_t> xoff, slot;   // the task's taps, group order
        xoff.reserve(task_taps);
        slot.reserve(task_taps);
        std::vector<Group> groups;
        for (int64_t ok = ok0; ok < ok1; ++ok) {
            for (auto &bk : bucket)
                bk.clear();
            for (int64_t ic = 0; ic < c; ++ic) {
                const int64_t b = ok * c + ic;
                const int64_t t_end = block_off[b + 1];
                for (int64_t t = block_off[b]; t < t_end; ++t) {
                    const int64_t e = all_taps[t].elem;
                    const ElemClass &ec = eclass[static_cast<size_t>(e)];
                    local_macs += nz_count[static_cast<size_t>(ic * rs + e)];
                    bucket[static_cast<size_t>(ec.cls)].push_back(
                        {ic * plane_sz + ec.xoff, b * rs + e});
                }
            }
            for (int64_t cl = 0; cl < rs; ++cl) {
                const int64_t first = static_cast<int64_t>(xoff.size());
                for (const TapRef &tr : bucket[static_cast<size_t>(cl)]) {
                    xoff.push_back(tr.xoff);
                    slot.push_back(tr.slot);
                }
                const kernels::ConvWindow &wd = win[cl];
                if (wd.empty())
                    continue;   // empty window: the lanes stay zero
                const int64_t end = static_cast<int64_t>(xoff.size());
                for (int64_t g = first; g < end; g += 8)
                    groups.push_back({(ok * p_ext + wd.pLo) * q_ext + wd.qLo,
                                      wd.pHi - wd.pLo, wd.qHi - wd.qLo, g,
                                      std::min<int64_t>(8, end - g)});
            }
        }
        std::vector<float> lanes(8 * xoff.size(), 0.0f);
        for (int64_t in = 0; in < n; ++in) {
            const float *xn = xbase + in * c * plane_sz;
            const float *dyn = pdy + in * k * p_ext * q_ext;
            for (const Group &g : groups)
                kernels::sparseConvBwdWeightGroup(
                    xoff.data() + g.first, g.count, xn, xrs, dyn + g.dyoff,
                    q_ext, g.rows, g.cols, lanes.data() + 8 * g.first);
        }
        for (size_t t = 0; t < slot.size(); ++t)
            pdw[slot[t]] += kernels::sumLanes8(lanes.data() + 8 * t);
        mac_total.fetch_add(local_macs, std::memory_order_relaxed);
    }, ok_grain);
    if (macs)
        *macs = mac_total.load(std::memory_order_relaxed);
}

} // namespace sparse
} // namespace procrustes
