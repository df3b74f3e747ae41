/**
 * @file
 * SIMD microkernels for the CSB sparse executors.
 *
 * The three sparse training executors (conv forward / backward-data /
 * backward-weight in src/sparse/sparse_conv.cc) traverse non-zero
 * weights but still sweep a *dense* axis per tap — the output-pixel q
 * loop. fc layers run on the same executors as a 1x1 conv over the
 * batch plane, where that axis is the sample axis. These microkernels
 * vectorize the dense axis with AVX2 while keeping the per-output
 * nonzero traversal order fixed, so the results are bitwise identical
 * to the scalar reference for every thread count and SIMD level:
 *
 *   - conv forward is output-stationary over a *prepared* input: the
 *     executor copies the input planes into a zero-padded,
 *     stride-phase-split layout with padPhaseSplitPlane (from batch 16
 *     up, each sample into a private block of the task that owns it),
 *     after which every mask-live tap covers the full output plane with
 *     unit column stride — no range masks, no gathers, just contiguous
 *     loads feeding FMAs. The AVX2 kernel holds a register strip of output
 *     pixels and accumulates every tap of an input-channel run into it
 *     in the one fixed tap order, so each output element sees the
 *     exact addition sequence of the scalar reference (pad taps
 *     contribute an exact ±0, an identity — see the zero-skipping
 *     note). Both levels use a fused multiply-add per tap (std::fmaf /
 *     vfmadd), which rounds once, identically.
 *   - conv backward-data runs the same output-stationary kernel in
 *     gather form. The executor copies each sample's dy into a
 *     zero-padded buffer and splits dx into its stride^2 phase planes
 *     (rows ≡ a, columns ≡ b mod stride); every mask-live tap whose
 *     kernel row and column land on that phase reads one unit-stride
 *     dy streak per dx phase row, so one kernel serves every stride.
 *     The only difference from forward is the accumulate step: a
 *     rounded product, then a rounded add, instead of a fused
 *     multiply-add — the dx bits the golden test in
 *     tests/test_sparse_conv.cc pins.
 *   - conv backward-weight reads x prepared the forward's way at
 *     stride > 1 (each tile its own input channels, one sample at a
 *     time) and x itself at stride 1. The tap pack groups the live taps
 *     of one output channel whose kernel elements share a padding-clip
 *     window (up to 8 input channels of a tile at a time); each dy
 *     vector is loaded once per group and every tap keeps its own 8
 *     accumulator lanes, indexed by q mod 8 within its window, so the
 *     tap's add chains are independent of the grouping. The lanes see
 *     (sample, p, q) in order, a rounded product then a rounded add
 *     each, and collapse with one fixed tree (sumLanes8); the scalar
 *     fallback implements the *same* lane schedule, so both levels
 *     agree bit-for-bit.
 *
 * The runs and groups these kernels stream are built once per (mask,
 * geometry) in sparse::ConvTapPack (src/sparse/sparse_conv.h) and name
 * each weight by its index into the CSB packed values, which every
 * kernel reads through a `w` base pointer; nothing is copied per call.
 *
 * Zero-skipping note: a PE skips a zero operand; both kernel levels
 * multiply it (a lane is free). The sums are still bitwise what a
 * skipping path computes, because an accumulator that starts at +0
 * can never become -0 (IEEE 754: exact cancellation rounds to +0, and
 * +0 + (±0) is +0), so adding wt * ±0 is an identity on every partial
 * sum. A strip multiplies every tap against the padding too, so
 * out-of-window reads add wt * (+0). All of this assumes finite
 * weights: an Inf or NaN wt times zero is NaN, which a skipping path
 * never computes. The executed-MAC tallies still count only non-zero
 * operands, outside the kernels: conv backward-weight counts the
 * non-zero x of every (input channel, kernel element) clip window once
 * per call, summed over the batch, and adds that count per live tap;
 * conv backward-data does the same on the dy side: one plane of
 * per-pixel non-zero counts over the batch per output channel, one
 * window sum per kernel element, one lookup per live tap.
 *
 * Both microkernel translation units are compiled with
 * -ffp-contract=off, so the compiler may not fuse (or un-fuse) what
 * the other level rounds differently. Where an FMA is used it is
 * explicit and symmetric (conv forward: std::fmaf / _mm256_fmadd_ps);
 * everywhere else, conv backward-data included, both levels use
 * explicit mul + add.
 *
 * Dispatch: PROCRUSTES_SIMD=avx2|scalar overrides the default (AVX2
 * whenever the binary and the CPU support it); setSimdLevel() lets
 * tests flip levels programmatically. The scalar fallback is compiled
 * unconditionally, so non-AVX2 hosts build and run unchanged.
 */

#ifndef PROCRUSTES_KERNELS_SPARSE_MICROKERNELS_H_
#define PROCRUSTES_KERNELS_SPARSE_MICROKERNELS_H_

#include <cstdint>

namespace procrustes {
namespace kernels {

/** SIMD implementation level of the sparse microkernels. */
enum class SimdLevel
{
    kScalar = 0,   //!< portable reference, always compiled
    kAvx2 = 1,     //!< 8-lane AVX2, bitwise identical to kScalar
};

/** True if this binary AND this CPU can run the AVX2 kernels. */
bool avx2Supported();

/**
 * The level the microkernels dispatch to. Resolved once from the
 * PROCRUSTES_SIMD environment variable (avx2 | scalar; forcing avx2 on
 * a host without it is a fatal error), defaulting to kAvx2 whenever
 * avx2Supported().
 */
SimdLevel activeSimdLevel();

/** Override the dispatch level (tests); kAvx2 requires avx2Supported(). */
void setSimdLevel(SimdLevel level);

/** Human-readable level name ("scalar" / "avx2"). */
const char *simdLevelName(SimdLevel level);

/**
 * One flattened tap of a conv plane run against a prepared source
 * buffer: for forward, the zero-padded, stride-phase-split input (see
 * PlaneLayout in sparse_conv.cc); for backward-data, the zero-padded
 * dy (see sparseConvBackwardData). Channel plane, kernel row, and phase
 * slot are all folded into one offset, and the weight is named by its
 * index into the CSB packed value stream, so the kernels stream one
 * homogeneous array over a channel run. Every tap covers the full
 * destination plane at unit column stride by construction. The runs
 * are built once per (mask, geometry) in sparse::ConvTapPack; holding
 * an index, not a value, keeps them valid for every encode of the mask.
 */
struct ConvRunTap
{
    int32_t xoff;   //!< source offset of destination (0, 0): element
                    //!< (p, q) reads xbase + xoff + p*xrow_stride + q
    int32_t v;      //!< the tap's index into the packed weight values
};

/**
 * Rows of one register strip of the conv plane kernels: 4 on narrow
 * planes (at most two 8-lane vectors per row), 2 on wide ones (3 rows
 * x 4 vectors spills accumulators). The executors size their L1
 * channel chunks from it, so a chunk's footprint estimate matches what
 * one strip visit touches.
 */
inline int64_t
convStripRows(int64_t q_ext)
{
    return q_ext <= 16 ? 4 : 2;
}

/**
 * Forward conv kernel for one whole output plane: accumulate every
 * run tap (an input-channel chunk of one output channel, in pack
 * order), with weight w[tap.v], into yplane. yplane carries partial
 * sums across chunked calls — each forward task zeroes its own y
 * planes before their first chunk. The AVX2 level is output-stationary — register strips of y
 * accumulate all taps before one store — and bitwise identical to the
 * scalar tap-major reference: per output element both visit the taps
 * in the same order with one fused multiply-add each. The AVX2 level
 * may *read* up to 7 floats past a tap's last valid column (the
 * prepared block guarantees the slack); those lanes never reach
 * yplane — masked stores drop them.
 * Dispatches on activeSimdLevel().
 */
void sparseConvFwdPlaneRun(const ConvRunTap *taps, int64_t ntaps,
                           const float *w, const float *xbase,
                           float *yplane, int64_t xrow_stride,
                           int64_t p_ext, int64_t q_ext);

/**
 * Backward-data conv kernel for one dx phase plane: the same strips
 * and tap order as sparseConvFwdPlaneRun over a padded-dy source, but
 * each tap adds the rounded product wt * dy with a separate rounded
 * add, at both levels. Same read slack contract as forward.
 */
void sparseConvBwdDataPlaneRun(const ConvRunTap *taps, int64_t ntaps,
                               const float *w, const float *dybase,
                               float *dxplane, int64_t dyrow_stride,
                               int64_t rows, int64_t cols);

/**
 * Backward-weight conv kernel for one tap group over one sample: up to
 * 8 mask-live taps of one output channel whose kernel elements share a
 * padding-clip window, so every tap reads the same dy streaks. Over the
 * window, p-major, tap j adds the rounded product dy(p, q) * x_j(p, q)
 * with a rounded add into its own lanes[8 * j + q % 8], where dy(p, q)
 * = dybase[p * q_ext + q] and x_j(p, q) = xbase[xoff[j] + p *
 * xrow_stride + q], q in [0, cols). The AVX2 level loads each dy vector
 * once for the whole group and loads tail vectors of x and dy masked,
 * so nothing past the window is read. lanes carry partial sums across
 * calls: the executor runs the samples in order, then collapses each
 * tap's lanes with sumLanes8. Both levels follow the same lane
 * schedule, so they are bitwise identical.
 */
void sparseConvBwdWeightGroup(const int32_t *xoff, int64_t ntaps,
                              const float *xbase, int64_t xrow_stride,
                              const float *dybase, int64_t q_ext,
                              int64_t rows, int64_t cols, float *lanes);

/**
 * Copy one h x width input plane into the prepared layout the conv
 * forward and backward-weight read: zero-padded by `pad` on every side
 * and split into its `stride` column phases, so padded row r, column
 * slot * stride + ph lands at dst[r * slots * stride + ph * slots +
 * slot]. slots, the phase slots per padded row, is at least (width + 2
 * * pad) / stride rounded up. Only the halo is zeroed: the pad rows,
 * and in each row the slots whose column falls outside the source.
 * Every source float is moved, not computed, so -0, NaN payloads and
 * infinities arrive bit for bit. The AVX2 level moves whole vectors at
 * strides 1 and 2 (a stride-2 step splits 16 source floats into two
 * phases); larger strides, and the scalar level, copy with a strided
 * loop.
 */
void padPhaseSplitPlane(const float *src, int64_t h, int64_t width,
                        int64_t stride, int64_t pad, int64_t slots,
                        float *dst);

/** The fixed tree that collapses one tap's 8 backward-weight lanes. */
inline float
sumLanes8(const float *lane)
{
    return ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
           ((lane[1] + lane[5]) + (lane[3] + lane[7]));
}

} // namespace kernels
} // namespace procrustes

#endif // PROCRUSTES_KERNELS_SPARSE_MICROKERNELS_H_
