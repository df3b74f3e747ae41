/**
 * @file
 * Ablations of the design choices DESIGN.md calls out (not a paper
 * figure):
 *
 *  1. Load-balancing policy (none / half-tile / chip-wide) per
 *     mapping — isolates how much of the K,N speedup comes from the
 *     balancer versus the mapping.
 *  2. QE-unit width — the paper's 4-updates/cycle folding versus
 *     narrower/wider variants, measured as threshold deviation from
 *     the exact quantile.
 *  3. CSB storage versus dense storage per network — the compression
 *     the weight format actually delivers including mask and pointer
 *     overheads.
 *  4. Activation-jitter sensitivity — how wu-phase latency responds
 *     to per-sample activation-density spread.
 */

#include "bench_util.h"

#include <cmath>

#include "arch/accelerator.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "sparse/csb.h"
#include "sparse/quantile.h"

using namespace procrustes;
using namespace procrustes::arch;

namespace {

void
balancerAblation()
{
    std::printf("\n[1] balancing policy vs mapping (VGG-S, sparse, "
                "total cycles, batch 64):\n");
    const NetworkModel m = buildVggS();
    const EpochTrace epoch = syntheticEpoch(m, generateMasks(m, 5.2, 7), 64);
    std::printf("%-6s %14s %14s %14s\n", "map", "none", "half-tile",
                "full-chip");
    for (MappingKind mk : kAllMappings) {
        double cyc[3];
        int i = 0;
        for (BalanceMode bm : {BalanceMode::None, BalanceMode::HalfTile,
                               BalanceMode::FullChip}) {
            CostOptions opts;
            opts.sparse = true;
            opts.balance = bm;
            const Accelerator acc(ArrayConfig::baseline16(), opts, mk);
            cyc[i++] = acc.evaluateTrace(epoch).totalCycles();
        }
        std::printf("%-6s %14.4g %14.4g %14.4g   (half-tile closes "
                    "%.0f%% of the gap)\n",
                    mappingName(mk).c_str(), cyc[0], cyc[1], cyc[2],
                    cyc[0] > cyc[2]
                        ? 100.0 * (cyc[0] - cyc[1]) / (cyc[0] - cyc[2])
                        : 0.0);
    }
}

void
qeWidthAblation()
{
    std::printf("\n[2] QE width vs threshold accuracy (half-normal "
                "stream, q = 0.9):\n");
    Xorshift128Plus rng(5);
    std::vector<double> xs(400000);
    for (auto &x : xs)
        x = std::fabs(rng.nextGaussian());
    const double truth =
        exactQuantile(std::vector<double>(xs.begin(), xs.end()), 0.9);
    for (int width : {1, 2, 4, 8, 16}) {
        sparse::ParallelQuantileEstimator qe(0.9, width);
        for (double x : xs)
            qe.update(x);
        qe.flush();
        std::printf("  width %2d: estimate %.4f (true %.4f, error "
                    "%+.1f%%)\n",
                    width, qe.estimate(), truth,
                    100.0 * (qe.estimate() / truth - 1.0));
    }
    std::printf("  (width 4 is the paper's peak-rate design point)\n");
}

void
csbStorageAblation()
{
    std::printf("\n[3] CSB storage vs dense per network (values + "
                "masks + pointers):\n");
    for (const NetworkModel &m : allModels()) {
        const auto masks = generateMasks(m, m.paperSparsity, 7);
        double dense_bytes = 0.0;
        double csb_bytes = 0.0;
        for (size_t i = 0; i < m.layers.size(); ++i) {
            const LayerShape &l = m.layers[i];
            dense_bytes +=
                static_cast<double>(l.weightCount()) * 4.0;
            csb_bytes +=
                static_cast<double>(masks[i].nnz()) * 4.0 +
                static_cast<double>(l.weightCount()) / 8.0 +
                static_cast<double>(l.K * l.effectiveC()) * 4.0;
        }
        std::printf("  %-12s dense %8.1f MB  csb %8.1f MB  => %.2fx "
                    "compression\n",
                    m.name.c_str(), dense_bytes / 1e6, csb_bytes / 1e6,
                    dense_bytes / csb_bytes);
    }
}

void
iactJitterAblation()
{
    std::printf("\n[4] wu-phase latency vs activation-density jitter "
                "(ResNet18, K,N):\n");
    const NetworkModel m = buildResNet18();
    const auto masks = generateMasks(m, 11.7, 7);
    for (double sigma : {0.0, 0.1, 0.25, 0.5}) {
        const double wu = Accelerator::procrustes()
                              .evaluateTrace(syntheticEpoch(m, masks, 64,
                                                            sigma))
                              .wu.cycles;
        std::printf("  iact sigma %.2f: wu cycles %.4g\n", sigma, wu);
    }
}

} // namespace

int
main()
{
    bench::banner("Ablations: balancing, QE width, CSB storage, "
                  "activation jitter",
                  "design-choice ablations (DESIGN.md §3)");
    balancerAblation();
    qeWidthAblation();
    csbStorageAblation();
    iactJitterAblation();
    return 0;
}
