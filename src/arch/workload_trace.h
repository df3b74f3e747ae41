/**
 * @file
 * Measured-workload trace: the seam between the real trainer (src/nn)
 * and the accelerator model (src/arch).
 *
 * The paper's headline numbers (§VI) are produced by feeding *measured*
 * weight masks and ReLU activation densities from PyTorch training runs
 * into the extended Timeloop model — not synthetic distributions. This
 * class is that pipeline for our own trainer: attach observer() to
 * nn::trainNetwork and every step's LayerStepReports (per-phase
 * executed MACs from the zero-skipping executors, live weight masks,
 * compressed weight footprints, measured activation densities) are
 * aggregated per epoch. Accelerator::evaluateTrace evaluates each
 * epoch's LayerTraces as they are — every layer's wave plan read from
 * its epoch-final mask and measured activation vectors
 * (arch/wave_plan.h) — yielding per-epoch latency and energy
 * trajectories of the accelerator running the *actual* training
 * workload, with the GLB/DRAM weight-traffic terms fed by the measured
 * byte counts and load-imbalance histograms replayed from the same
 * plans (arch/trace_imbalance.h), not estimated from mean densities.
 */

#ifndef PROCRUSTES_ARCH_WORKLOAD_TRACE_H_
#define PROCRUSTES_ARCH_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "arch/layer_shape.h"
#include "nn/trainer.h"
#include "sparse/mask.h"

namespace procrustes {
namespace arch {

/**
 * Measured input-activation statistics of one layer, as accumulated by
 * the workload-trace pipeline from real training steps. Vectors may be
 * empty (fall back to `mean`); indices beyond a vector's length wrap,
 * so statistics measured at batch B still answer queries at other
 * batch sizes.
 */
struct MeasuredIactStats
{
    double mean = 1.0;                    //!< layer-mean density
    std::vector<double> perSample;        //!< [batch]
    /** [batch * 2], halves split along C. Recorded halves of sample
        n sum to perSample[n]; synthetic ones (syntheticLayer) are
        drawn independently, so they need not. */
    std::vector<double> perSampleHalf;
    std::vector<double> perChannel;       //!< [C]
    /** Spatial marginals in *input* coordinates, rank-4 layers only
        (empty for fc): density of input row / column across the other
        axes. Output-location queries map through the layer stride
        (min(idx * stride, extent - 1)). */
    std::vector<double> perRow;           //!< [H]
    std::vector<double> perCol;           //!< [W]
};

/** One trainable layer's measured facts, aggregated over one epoch. */
struct LayerTrace
{
    std::string name;
    LayerShape shape;             //!< geometry measured from the run
    sparse::SparsityMask mask;    //!< live mask at the epoch's last step

    /** Measured input-activation statistics (mean over the epoch's
        steps; per-slot vectors averaged elementwise). */
    MeasuredIactStats iacts;
    double oactDensity = 1.0;     //!< mean output density

    /** @name Executed MACs, summed over the epoch's steps. */
    /**@{*/
    /** True when the counts came from the zero-skipping CSB executors
        (see LayerStepReport::sparseExecuted); dense-backend counts are
        the full operation space and must not be mistaken for what a
        sparse accelerator would execute. */
    bool sparseExecuted = false;
    int64_t fwMacs = 0;
    int64_t bwDataMacs = 0;
    int64_t bwWeightMacs = 0;
    /**@}*/

    /** @name Weight storage footprint at the epoch's last step. */
    /**@{*/
    /** CsbTensor::totalBytes of the live weights (packed values +
        mask bits + block pointers) — the compressed image the
        accelerator streams; first input of the storage/traffic
        accounting. */
    int64_t csbWeightBytes = 0;
    int64_t denseWeightBytes = 0;   //!< 4 bytes per dense position
    /**@}*/

    /** @name Cross-shard gradient-exchange wire bytes, summed over the
        epoch's steps (zero unless the scale-out shard engine drove the
        run — see LayerStepReport::hasExchange). */
    /**@{*/
    int64_t exchangeCompressedBytes = 0;
    int64_t exchangeDenseBytes = 0;
    /**@}*/

    int64_t steps = 0;            //!< steps aggregated into this row

    double weightDensity() const { return mask.density(); }

    /** Mean executed MACs per step for one phase. */
    double fwMacsPerStep() const;
    double bwDataMacsPerStep() const;
    double bwWeightMacsPerStep() const;
};

/** One epoch of the measured workload. */
struct EpochTrace
{
    int64_t epoch = 0;
    int64_t steps = 0;
    int64_t batchSize = 0;
    double meanLoss = 0.0;        //!< mean per-step training loss
    std::vector<LayerTrace> layers;

    /** Whole-network executed MACs per step, all phases. */
    double totalMacsPerStep() const;

    /** MAC-weighted mean input-activation density. */
    double meanIactDensity() const;

    /** Weight non-zero fraction over all traced layers. */
    double meanWeightDensity() const;

    /** @name Epoch-final weight storage, summed over traced layers. */
    /**@{*/
    int64_t totalCsbWeightBytes() const;
    int64_t totalDenseWeightBytes() const;
    /**@}*/

    /** @name Epoch gradient-exchange wire traffic, summed over traced
        layers (zero for single-shard / plain-trainer runs). */
    /**@{*/
    int64_t totalExchangeCompressedBytes() const;
    int64_t totalExchangeDenseBytes() const;
    /**@}*/
};

/** Aggregates nn::StepTelemetry into per-epoch measured workloads. */
class WorkloadTrace
{
  public:
    /** Consume one step's telemetry (steps must arrive in order). */
    void observe(const nn::StepTelemetry &t);

    /** Observer functor bound to this trace, for trainNetwork. */
    nn::StepObserver
    observer()
    {
        return [this](const nn::StepTelemetry &t) { observe(t); };
    }

    /** Number of epochs observed so far. */
    size_t epochCount() const { return epochs_.size(); }

    /** Aggregated view of epoch i. */
    const EpochTrace &epoch(size_t i) const;

    /** Most recent epoch. */
    const EpochTrace &lastEpoch() const;

  private:
    /** Running elementwise mean: acc = acc*(n-1)/n + v/n. */
    static void accumulateMean(std::vector<double> *acc,
                               const std::vector<double> &v,
                               int64_t count);

    std::vector<EpochTrace> epochs_;
};

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_WORKLOAD_TRACE_H_
