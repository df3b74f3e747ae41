/**
 * @file
 * Scenario: co-simulation — train a CNN for real and drive the
 * accelerator model from the measured workload, epoch by epoch.
 *
 * This is the paper's §VI methodology end to end in one process: the
 * functional trainer runs a VGG-style conv/batch-norm/ReLU stack with
 * gradual magnitude pruning on the CSB sparse backend; a WorkloadTrace
 * observer captures every step's executed MACs (weight-mask skipped,
 * plus ReLU-zero skipping in both backward phases), live masks, and
 * measured activation densities; and after training each epoch's
 * measured workload is replayed through the Procrustes cost model and
 * the dense baseline. The output is a per-epoch JSON trajectory of
 * accuracy, sparsity, and trace-driven accelerator cycles + energy —
 * measured densities, not hash-jitter, flowing into the CostModel,
 * measured compressed weight bytes in the GLB/DRAM traffic terms, and
 * per-epoch load-imbalance histograms (balanced vs unbalanced)
 * replayed straight from the epoch-final masks. The cycle-level
 * PE-array simulator (banked GLB, operand FIFOs, explicit
 * interconnects) co-runs every epoch from the same measured facts, so
 * each epoch also reports simulated cycles and the analytic-vs-cycle
 * fidelity ratio.
 */

#include <cstdio>

#include "arch/accelerator.h"
#include "arch/workload_trace.h"
#include "common/rng.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/data.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "nn/trainer.h"
#include "sim/cycle_sim.h"
#include "sparse/gradual_pruning.h"

using namespace procrustes;

namespace {

/** VGG-S-flavoured blob-image CNN (three conv blocks, one fc head). */
void
buildCnn(nn::Network &net, int classes, uint64_t seed)
{
    auto block = [&net](const char *tag, int64_t cin, int64_t cout) {
        nn::Conv2dConfig c;
        c.inChannels = cin;
        c.outChannels = cout;
        c.kernel = 3;
        c.pad = 1;
        c.bias = false;
        nn::Conv2d *conv =
            net.add<nn::Conv2d>(c, std::string("conv") + tag);
        conv->setBackend(kernels::KernelBackend::kSparse);
        net.add<nn::BatchNorm2d>(cout, std::string("bn") + tag);
        net.add<nn::ReLU>(std::string("relu") + tag);
    };
    block("1", 3, 16);
    net.add<nn::MaxPool2d>(2, "pool1");
    block("2", 16, 32);
    net.add<nn::MaxPool2d>(2, "pool2");
    block("3", 32, 32);
    net.add<nn::GlobalAvgPool>("gap");
    nn::Linear *fc = net.add<nn::Linear>(32, classes, "fc");
    // The fc head runs the CSB executors too, so every trainable
    // layer contributes measured (not modelled) MACs to the trace.
    fc->setBackend(kernels::KernelBackend::kSparse);
    Xorshift128Plus rng(seed);
    nn::kaimingInit(net, rng);
}

} // namespace

int
main()
{
    nn::BlobImageConfig data_cfg;
    data_cfg.numClasses = 6;
    data_cfg.samplesPerClass = 40;
    const nn::Dataset train = nn::makeBlobImages(data_cfg);
    data_cfg.sampleSeed = 77;
    const nn::Dataset val = nn::makeBlobImages(data_cfg);

    nn::Network net;
    buildCnn(net, data_cfg.numClasses, 3);

    sparse::GradualPruningConfig pcfg;
    pcfg.targetSparsity = 4.0;
    pcfg.lr = 0.05f;
    pcfg.pruneInterval = 30;
    pcfg.pruneFraction = 0.2;
    pcfg.warmupIterations = 30;
    sparse::GradualMagnitudePruningOptimizer opt(pcfg);

    nn::TrainConfig tc;
    tc.epochs = 10;
    tc.batchSize = 16;

    arch::WorkloadTrace trace;
    const auto history =
        trainNetwork(net, opt, train, val, tc, trace.observer());

    const arch::Accelerator procrustes = arch::Accelerator::procrustes();
    const arch::Accelerator baseline =
        arch::Accelerator::denseBaseline();

    std::printf("{\n  \"workload\": \"blob-cnn gradual-pruning cosim\","
                "\n  \"epochs\": [\n");
    for (size_t e = 0; e < trace.epochCount(); ++e) {
        const arch::EpochTrace &et = trace.epoch(e);
        arch::EpochImbalance imb;
        sim::TraceSimResult csim;
        const arch::NetworkCost sparse_cost =
            procrustes.evaluateTrace(trace, e, &imb, &csim);
        const arch::NetworkCost dense_cost = baseline.evaluateTrace(trace, e);
        std::printf(
            "    {\"epoch\": %zu, \"train_loss\": %.4f, "
            "\"val_accuracy\": %.4f,\n"
            "     \"weight_density\": %.4f, \"iact_density\": %.4f,\n"
            "     \"measured_macs_per_step\": %.0f,\n"
            "     \"procrustes_cycles\": %.4g, "
            "\"procrustes_energy_j\": %.4g,\n"
            "     \"dense_cycles\": %.4g, \"dense_energy_j\": %.4g,\n"
            "     \"imbalance_mean_unbalanced\": %.4f, "
            "\"imbalance_mean_balanced\": %.4f,\n"
            "     \"cycle_sim\": {\"cycles\": %lld, "
            "\"stall_cycles\": %lld, \"drain_cycles\": %lld,\n"
            "      \"glb_conflicts\": %lld, "
            "\"fifo_backpressure_cycles\": %lld,\n"
            "      \"analytic_cycle_ratio\": %.4f},\n"
            "     \"speedup\": %.2f, \"energy_ratio\": %.2f}%s\n",
            e, history[e].trainLoss, history[e].valAccuracy,
            et.meanWeightDensity(), et.meanIactDensity(),
            et.totalMacsPerStep(), sparse_cost.totalCycles(),
            sparse_cost.totalEnergyJ(), dense_cost.totalCycles(),
            dense_cost.totalEnergyJ(), imb.unbalanced.meanOverhead,
            imb.balanced.meanOverhead,
            static_cast<long long>(csim.total.cycles),
            static_cast<long long>(csim.total.stallCycles),
            static_cast<long long>(csim.total.drainCycles),
            static_cast<long long>(csim.total.glbConflicts),
            static_cast<long long>(csim.total.fifoBackpressureCycles),
            csim.analyticCycleRatio,
            dense_cost.totalCycles() / sparse_cost.totalCycles(),
            dense_cost.totalEnergyJ() / sparse_cost.totalEnergyJ(),
            e + 1 < trace.epochCount() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
}
