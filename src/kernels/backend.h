/**
 * @file
 * Compute-backend selector for the NN layers.
 *
 * Every layer that owns a heavy loop nest (Conv2d, Linear) carries the
 * original direct loop nest (`kNaive`), kept as the semantic reference
 * for parity tests, the lowered im2col + tiled-GEMM path (`kGemm`)
 * that the training benchmarks run on, and the CSB sparse executors
 * (`kSparse`): weights are consumed in compressed form and all three
 * training passes — forward, backward-data, and backward-weight —
 * skip pruned positions, the paper's Figure 2 access pattern (conv
 * blocks are read 180°-rotated in backward-data; fc blocks are read
 * transposed). The process-wide default starts from the
 * PROCRUSTES_KERNEL_BACKEND environment variable ("naive", "gemm", or
 * "sparse") and can be overridden per layer.
 */

#ifndef PROCRUSTES_KERNELS_BACKEND_H_
#define PROCRUSTES_KERNELS_BACKEND_H_

#include <string>

namespace procrustes {
namespace kernels {

/** Which implementation a layer's forward/backward dispatches to. */
enum class KernelBackend
{
    kNaive,   //!< direct loop nest (reference semantics)
    kGemm,    //!< im2col lowering + blocked GEMM + thread pool
    kSparse,  //!< CSB zero-skipping executors (conv + fc layers)
};

/** Process-wide default backend newly-constructed layers pick up. */
KernelBackend defaultKernelBackend();

/** "naive" / "gemm" / "sparse". */
const char *kernelBackendName(KernelBackend backend);

/** Parse a backend name; fatal() on anything unrecognized. */
KernelBackend parseKernelBackend(const std::string &name);

} // namespace kernels
} // namespace procrustes

#endif // PROCRUSTES_KERNELS_BACKEND_H_
