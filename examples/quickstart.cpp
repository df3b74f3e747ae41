/**
 * @file
 * Quickstart: train a small network with the Procrustes sparse
 * training scheme and estimate the accelerator-side savings.
 *
 * This walks the full public API in ~80 lines:
 *   1. build a network with the mini framework (nn/),
 *   2. train it with the hardware-friendly Dropback optimizer
 *      (initial-weight decay + streaming quantile selection),
 *   3. extract the trained sparsity mask,
 *   4. evaluate dense-baseline vs Procrustes cost on the
 *      16x16-PE accelerator model (arch/).
 */

#include <cstdio>
#include <utility>

#include "arch/accelerator.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "nn/activations.h"
#include "nn/data.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "nn/trainer.h"
#include "sparse/dropback.h"
#include "sparse/mask.h"

using namespace procrustes;

int
main()
{
    // Layers pick up the process default (override with
    // PROCRUSTES_KERNEL_BACKEND=naive|gemm, PROCRUSTES_NUM_THREADS=n).
    std::printf("compute backend: %s, %d threads\n",
                kernels::kernelBackendName(
                    kernels::defaultKernelBackend()),
                ThreadPool::global().numThreads());

    // 1. A small over-parameterized MLP on the spiral task.
    nn::Network net;
    net.add<nn::Flatten>("fl");
    net.add<nn::Linear>(2, 128, "fc1");
    net.add<nn::ReLU>("r1");
    net.add<nn::Linear>(128, 128, "fc2");
    net.add<nn::ReLU>("r2");
    net.add<nn::Linear>(128, 3, "fc3");
    Xorshift128Plus rng(42);
    nn::kaimingInit(net, rng);

    nn::SpiralConfig data_cfg;
    data_cfg.samplesPerClass = 100;
    const nn::Dataset train = nn::makeSpirals(data_cfg);
    data_cfg.seed = 91;
    const nn::Dataset val = nn::makeSpirals(data_cfg);

    // 2. Procrustes training: 4x weight budget, decay, streaming QE.
    sparse::DropbackConfig opt_cfg;
    opt_cfg.sparsity = 4.0;
    opt_cfg.lr = 0.15f;
    opt_cfg.initDecay = 0.95f;
    opt_cfg.decayHorizon = 200;
    opt_cfg.selection = sparse::SelectionMode::QuantileEstimate;
    sparse::DropbackOptimizer opt(opt_cfg);

    nn::TrainConfig train_cfg;
    train_cfg.epochs = 50;
    train_cfg.batchSize = 32;
    const auto history =
        nn::trainNetwork(net, opt, train, val, train_cfg);
    std::printf("trained %lld epochs: accuracy %.3f, weight sparsity "
                "%.1f%%\n",
                static_cast<long long>(train_cfg.epochs),
                history.back().valAccuracy,
                100.0 * history.back().weightSparsity);

    // 3. Masks from the trained weights feed the hardware model.
    arch::NetworkModel model;
    model.name = "quickstart-mlp";
    std::vector<sparse::SparsityMask> masks;
    for (nn::Param *p : net.params()) {
        if (!p->prunable)
            continue;
        const Shape &s = p->value.shape();
        model.layers.push_back(arch::fcLayer(p->name, s[1], s[0]));
        model.iactDensity.push_back(0.5);
        masks.push_back(sparse::SparsityMask::fromTensor(p->value));
    }

    // 4. Dense baseline vs Procrustes on the 16x16 array.
    const arch::EpochTrace epoch =
        arch::syntheticEpoch(model, std::move(masks), 16);
    const auto dense_cost =
        arch::Accelerator::denseBaseline().evaluateTrace(epoch);
    const auto sparse_cost =
        arch::Accelerator::procrustes().evaluateTrace(epoch);

    std::printf("accelerator model, one training iteration:\n");
    std::printf("  dense baseline: %.3g cycles, %.3g uJ\n",
                dense_cost.totalCycles(),
                dense_cost.totalEnergyJ() * 1e6);
    std::printf("  Procrustes:     %.3g cycles, %.3g uJ\n",
                sparse_cost.totalCycles(),
                sparse_cost.totalEnergyJ() * 1e6);
    std::printf("  => %.2fx speedup, %.2fx energy savings\n",
                dense_cost.totalCycles() / sparse_cost.totalCycles(),
                dense_cost.totalEnergyJ() /
                    sparse_cost.totalEnergyJ());
    return 0;
}
