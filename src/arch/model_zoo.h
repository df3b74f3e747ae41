/**
 * @file
 * Layer geometries of the five CNNs the paper evaluates (Table II):
 * VGG-S, WRN-28-10, DenseNet (growth 24, 3 blocks x 10 layers) on
 * CIFAR-10, and ResNet18, MobileNet v2 on ImageNet.
 *
 * The zoo provides exact per-layer operation-space dimensions for the
 * performance model, together with the paper's reference numbers
 * (sparsity factors, accuracies, epoch counts) used by the Table II
 * bench. Mask generation at a network's target sparsity introduces
 * mild layer-level density variation plus kernel-level lognormal
 * structure, standing in for masks extracted from PyTorch runs
 * (DESIGN.md §4). syntheticEpoch turns a network and its masks into
 * the EpochTrace a recorded run would give, so the accelerator model
 * has one input type.
 */

#ifndef PROCRUSTES_ARCH_MODEL_ZOO_H_
#define PROCRUSTES_ARCH_MODEL_ZOO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "arch/layer_shape.h"
#include "arch/workload_trace.h"
#include "sparse/mask.h"

namespace procrustes {
namespace arch {

/** A network as seen by the performance model. */
struct NetworkModel
{
    std::string name;
    std::string dataset;
    std::vector<LayerShape> layers;

    /** Mean input-activation density per layer (1.0 for raw images). */
    std::vector<double> iactDensity;

    /** @name Paper reference values (Table II). */
    /**@{*/
    double paperSparsity = 1.0;   //!< weight compression factor
    int paperEpochs = 0;
    double paperDenseAccuracy = 0.0;
    double paperPrunedAccuracy = 0.0;
    /**@}*/

    /** Total weights across all layers. */
    int64_t denseWeights() const;

    /** Total MACs per input sample. */
    int64_t denseMacsPerSample() const;
};

/** VGG-S: the 9.2x-reduced VGG-16 (~15M weights) on CIFAR-10. */
NetworkModel buildVggS();

/** WRN-28-10 (~36M weights) on CIFAR-10. */
NetworkModel buildWrn2810();

/** DenseNet, growth 24, 3 blocks x 10 layers (~2.7M) on CIFAR-10. */
NetworkModel buildDenseNetS();

/** ResNet18 (~11.7M weights) on ImageNet. */
NetworkModel buildResNet18();

/** MobileNet v2 (~3.5M weights) on ImageNet. */
NetworkModel buildMobileNetV2();

/** All five evaluation networks, in the paper's Table II order. */
std::vector<NetworkModel> allModels();

/**
 * Generate per-layer weight masks at the network's overall sparsity
 * factor: layer densities vary lognormally (sigma ~0.4, renormalized
 * so the weighted mean hits 1/sparsity exactly) and kernels inside a
 * layer vary with the given lognormal sigma.
 */
std::vector<sparse::SparsityMask>
generateMasks(const NetworkModel &model, double sparsity, uint64_t seed,
              double kernel_sigma = 0.3);

/**
 * One synthetic traced layer, shaped like a recorded one: `mask` is
 * moved in as the epoch-final mask, and the input-activation
 * statistics are drawn around `iact_density` with deterministic hash
 * jitter of relative spread `iact_sigma` (seeded by `seed`): per
 * sample and per sample half (split along C, each half drawn on its
 * own), per input channel, and per input row and column (rank-4
 * layers only). No executed MACs or byte counts: the cost model
 * estimates them from the mask.
 */
LayerTrace syntheticLayer(const LayerShape &shape, sparse::SparsityMask mask,
                          double iact_density, int64_t batch,
                          double iact_sigma = 0.1, uint64_t seed = 0x5eed);

/**
 * One training iteration of a zoo network at `batch`, as the
 * accelerator model reads a recorded epoch: layer i is the
 * syntheticLayer of its shape, masks[i] and model.iactDensity[i],
 * jittered with seed splitmix64(0xbeef ^ i).
 */
EpochTrace syntheticEpoch(const NetworkModel &model,
                          std::vector<sparse::SparsityMask> masks,
                          int64_t batch, double iact_sigma = 0.1);

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_MODEL_ZOO_H_
