/**
 * @file
 * Analytic latency / energy model ("Timeloop-lite").
 *
 * The paper evaluates Procrustes with Timeloop extended for sparse
 * weight masks, sparse computation, encoding overheads, and load
 * imbalance, plus Accelergy per-access energies (Section VI-A). This
 * model reimplements that methodology from scratch:
 *
 *  Input.  Every evaluation reads a LayerTrace: a layer recorded from
 *  a training run (arch/workload_trace.h) or drawn by the model zoo
 *  (syntheticEpoch, arch/model_zoo.h). A dense configuration reads
 *  no density from it, so the dense baseline and the sparse machines
 *  evaluate the same epoch.
 *
 *  Latency.  Work is issued in *waves* — full-PE-array sets of work
 *  tiles, one tile per PE, tiles indexed by the mapping's two spatial
 *  dimensions (Figure 4), listed by the wave plan (arch/wave_plan.h).
 *  Per-tile work scales with the local density of the phase's sparse
 *  operand (from the mask's per-kernel structure) and wave latency is
 *  the maximum over its tiles; the half-tile balancer transforms the
 *  tile multiset before the max when the mapping admits it.
 *  Utilization losses from dims that do not divide the array fall out
 *  of the ceil arithmetic. A layer is additionally bounded by DRAM
 *  bandwidth (64-bit interface).
 *
 *  Energy.  E = MACs*e_mac + MACs*k_rf*e_rf + GLB accesses*e_glb +
 *  DRAM words*e_dram. GLB traffic per operand is its (sparse-adjusted)
 *  unique volume times a refetch factor: one refetch per wave-block
 *  along every spatial dim the operand does NOT depend on — multicast
 *  within a wave is counted once, which is exactly the spatial-reuse
 *  advantage the single-dimension flows preserve. Sparse weights add
 *  CSB overheads (1 mask bit per dense element plus a pointer per
 *  block); the ideal mode of Figure 1 drops them. For a recorded run
 *  the density-derived CSB estimate is bypassed entirely: the
 *  workload-trace pipeline supplies the byte count of the weight
 *  image the trainer actually encoded (CsbTensor::totalBytes) and the
 *  GLB/DRAM weight-traffic terms consume it verbatim
 *  (MeasuredLayerStats below).
 */

#ifndef PROCRUSTES_ARCH_COST_MODEL_H_
#define PROCRUSTES_ARCH_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "arch/arch_config.h"
#include "arch/dataflow.h"
#include "arch/load_balancer.h"
#include "arch/wave_plan.h"

namespace procrustes {
namespace arch {

struct LayerTrace;

/** Load-balancing policy applied by the model. */
enum class BalanceMode
{
    None,       //!< tiles run where they land (Figure 4b)
    HalfTile,   //!< Procrustes half-tile pairing along the sparse axis
    FullChip,   //!< perfect chip-wide balancing (complex interconnect)
};

/** Model behaviour switches. */
struct CostOptions
{
    /** Exploit sparsity (Procrustes) or run the dense baseline. */
    bool sparse = true;

    /** Balancing policy (only meaningful when sparse). */
    BalanceMode balance = BalanceMode::HalfTile;

    /**
     * Figure 1 idealization: perfect load balance, zero-overhead
     * compressed format, free retained-weight selection.
     */
    bool ideal = false;

    /**
     * Overlap-aware DRAM->GLB refill: when positive, a phase's
     * latency is bounded below by its DRAM word traffic streamed at
     * this rate (cycles = max(cycles, dram_words / rate)) — refill
     * fully double-buffered against compute, only the excess exposed.
     * At ArrayConfig::dramWordsPerCycle() this bounds latency by the
     * DRAM traffic over the 64-bit interface. Non-positive (default)
     * disables the bound: double buffering is assumed to overlap DRAM
     * with compute (Timeloop's usual reporting); DRAM traffic always
     * counts towards energy.
     */
    double dramRefillWordsPerCycle = -1.0;

    /**
     * Shard-interconnect bandwidth in 32-bit words per cycle: when
     * positive and the trace supplies measured gradient-exchange bytes
     * (MeasuredLayerStats::exchangeBytes, from the scale-out shard
     * engine), the weight-update phase is additionally bounded below
     * by streaming those bytes at this rate — the allreduce is
     * overlapped with weight-update compute and only the excess
     * extends the phase, like the DRAM-refill bound above.
     * Non-positive (default) disables the term.
     */
    double interconnectWordsPerCycle = -1.0;
};

/**
 * Measured per-layer facts that replace modelled estimates — the seam
 * through which the workload-trace pipeline feeds the cost model. Any
 * field left negative keeps the corresponding modelled estimate, so a
 * default-constructed instance reproduces pure modelling.
 */
struct MeasuredLayerStats
{
    /**
     * Executed MACs of the phase as tallied by the zero-skipping CSB
     * executors. Replaces the density-estimated MAC count in the MAC /
     * register-file energy accounting and the reported `macs`;
     * wave-level latency still comes from the wave plan.
     */
    double macs = -1.0;

    /**
     * Compressed weight footprint in bytes (CsbTensor::totalBytes:
     * packed values + mask bits + block pointers) as measured from the
     * trainer's real encode. On a sparsity-exploiting non-ideal
     * configuration this replaces the density-derived CSB size in the
     * GLB/DRAM weight-traffic terms. The ideal mode (Figure 1) keeps
     * its zero-overhead estimate: measured bytes include the format
     * overhead the idealization assumes away.
     */
    double csbWeightBytes = -1.0;

    /**
     * Dense weight footprint in bytes (4 per position) — the image the
     * dense baseline streams; consumed by non-sparse configurations.
     */
    double denseWeightBytes = -1.0;

    /**
     * Measured cross-shard gradient-exchange wire bytes for this
     * layer in one step (mask-live packed values under a sparse
     * configuration, the dense twin for the dense baseline). Priced by
     * CostOptions::interconnectWordsPerCycle in the weight-update
     * phase; negative (default) means no exchange was measured.
     */
    double exchangeBytes = -1.0;
};

/** Latency and energy of one (layer, phase) evaluation. */
struct PhaseCost
{
    double cycles = 0.0;         //!< max(compute, DRAM-bound)
    double computeCycles = 0.0;
    double dramCycles = 0.0;
    /** Cycles to stream measured gradient-exchange bytes over the
        shard interconnect (weight-update phase only; zero unless
        CostOptions::interconnectWordsPerCycle is set and the trace
        measured an exchange). */
    double interconnectCycles = 0.0;
    double macs = 0.0;           //!< effective (sparsity-skipped) MACs
    double macEnergyJ = 0.0;
    double rfEnergyJ = 0.0;
    double glbEnergyJ = 0.0;
    double dramEnergyJ = 0.0;

    double
    totalEnergyJ() const
    {
        return macEnergyJ + rfEnergyJ + glbEnergyJ + dramEnergyJ;
    }

    PhaseCost &operator+=(const PhaseCost &o);
};

/** Per-wave latency statistics. */
struct WaveStats
{
    double maxWork = 0.0;    //!< wave latency (cycles)
    double meanWork = 0.0;   //!< perfectly balanced latency

    /** Execution overhead versus perfect balance (Figures 5/13). */
    double
    overhead() const
    {
        return meanWork > 0.0 ? maxWork / meanWork - 1.0 : 0.0;
    }
};

/**
 * Latency of one wave's work tiles under a balancing policy: the mean
 * tile, and the slowest tile after balancing. `cheap_ok` gates the
 * half-tile pairing (supportsCheapBalancing): a mapping that cannot
 * rebalance on the simple interconnect runs unbalanced.
 */
WaveStats reduceWave(const std::vector<TileHalves> &tiles,
                     BalanceMode balance, bool cheap_ok);

/**
 * Words of the compressed weight image a sparsity-exploiting,
 * non-ideal machine stores in DRAM: the measured CSB image
 * (csb_bytes / 4) when one was measured (csb_bytes >= 0), else values
 * at `density` plus one mask bit per dense position.
 */
double compressedWeightWords(double dense_words, double density,
                             double csb_bytes);

/**
 * DRAM words one (layer, phase) moves, given the stored weight image
 * in words and the density of the input activations. A machine that
 * exploits sparsity keeps a compressed copy of the inputs (one mask
 * bit per dense element unless opts.ideal) for the weight update;
 * everything else moves dense.
 */
double phaseDramWords(const LayerShape &layer, Phase phase, int64_t batch,
                      const CostOptions &opts, double weight_words,
                      double iact_density);

/** Analytic per-phase cost model. */
class CostModel
{
  public:
    CostModel(const ArrayConfig &cfg, const CostOptions &opts)
        : cfg_(cfg), opts_(opts)
    {}

    /**
     * Evaluate one traced layer in one phase under one mapping, from
     * its own wave plan: planWaves of the LayerTrace, the plan the
     * cycle-level simulator clocks. The scalar densities are the
     * mask's (`weight_density`) and the mean input density
     * (layer.iacts.mean). Dense and ideal configurations load every
     * PE alike and plan nothing.
     *
     * @param weight_density layer.weightDensity(). It walks the whole
     *        mask, so the caller computes it once for all phases.
     * @param measured measured quantities from the workload-trace
     *        pipeline (executed MACs, compressed/dense weight bytes).
     *        Each non-negative field replaces its modelled estimate;
     *        the default instance keeps pure modelling.
     */
    PhaseCost evaluatePhase(const LayerTrace &layer, double weight_density,
                            Phase phase, MappingKind mapping,
                            int64_t batch,
                            const MeasuredLayerStats &measured = {}) const;

    const ArrayConfig &config() const { return cfg_; }
    const CostOptions &options() const { return opts_; }

  private:
    /** The two scalar densities a phase cost reads besides its plan. */
    struct Densities
    {
        double weight;   //!< weight non-zero fraction
        double iact;     //!< mean input-activation non-zero fraction
    };

    /** True when tile work comes from a wave plan: a sparse, non-ideal
        configuration. Dense and ideal ones load every PE alike. */
    bool planned() const { return opts_.sparse && !opts_.ideal; }

    /** Density of the phase's sparse operand, or 1 in dense mode. */
    double effectiveDensity(Phase phase, const Densities &d) const;

    /** Per-wave stats of `plan`, or of uniform waves at `density`
        when not planned(). */
    std::vector<WaveStats> reduceWaves(const LayerShape &layer,
                                       Phase phase, MappingKind mapping,
                                       int64_t batch, double density,
                                       const WavePlan &plan) const;

    /** GLB access count for the whole phase. */
    double glbAccesses(const LayerShape &layer, Phase phase,
                       MappingKind mapping, const Densities &d,
                       int64_t batch,
                       const MeasuredLayerStats &measured) const;

    /** DRAM words moved for the whole phase. */
    double dramWords(const LayerShape &layer, Phase phase,
                     const Densities &d, int64_t batch,
                     const MeasuredLayerStats &measured) const;

    /** Stored (GLB/DRAM) word count of an operand in this phase. */
    double storedWords(const LayerShape &layer, Phase phase, Operand op,
                       const Densities &d, int64_t batch,
                       const MeasuredLayerStats &measured) const;

    /**
     * Word count of the weight image this configuration streams:
     * measured bytes when the trace supplies them (compressed for
     * sparse non-ideal configurations, dense for the baseline),
     * negative when no measurement applies and the modelled estimate
     * must stand.
     */
    double measuredWeightWords(const MeasuredLayerStats &measured) const;

    ArrayConfig cfg_;
    CostOptions opts_;
};

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_COST_MODEL_H_
