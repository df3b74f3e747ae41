/**
 * @file
 * The wave plan: the one tile walk behind the analytic cost model, the
 * measured-mask imbalance replay and the cycle-level simulator.
 *
 * Work is issued in *waves* — full-PE-array sets of work tiles, one
 * tile per PE, tiles indexed by the mapping's two spatial dimensions
 * (Figure 4). planWaves lists the waves of one (layer, phase, mapping,
 * batch) in issue order and gives every active PE its work as
 * TileHalves in density units: the fraction of the PE's dense work the
 * phase's sparse operand leaves, so that `perIndex * total()` is MACs.
 * The densities come from one input type, a LayerTrace: recorded from
 * a training run (arch/workload_trace.h) or drawn by the model zoo
 * (syntheticEpoch, arch/model_zoo.h). Three consumers reduce the same
 * plan: CostModel::evaluatePhase to a max and a mean per wave, the
 * imbalance replay (arch/trace_imbalance.h) to an overhead per wave,
 * and the simulator (sim/cycle_sim.h) to per-PE demands it clocks.
 *
 * Which spatial dims the sparse operand depends on fixes the shape of
 * a wave's work:
 *
 *  Line.  Exactly one sparse axis. The wave holds one tile per index
 *  along that axis; every PE across the dense axis repeats the line.
 *  The half-tile balancer pairs halves within the line only (Figure
 *  12), which is why the line is not flattened into the PE grid.
 *
 *  Chunked.  Weights sparse on both axes (C,K). Each PE holds an
 *  RF-bounded chunk of kernels along the second dim (weightTileChunk)
 *  and its tile is the chunk's summed kernel density.
 *
 *  Pair.  Activations sparse on both axes (C,N or P,Q). One tile per
 *  PE, from the pair of indices it owns.
 *
 *  Uniform.  The sparse operand is broadcast, so one tile of the
 *  layer's density serves every PE.
 *
 * Every tile splits into halves along the axis the balancer cuts. Only
 * Line tiles carry a real split; the other shapes split evenly, since
 * half-tile pairing is never admissible there.
 */

#ifndef PROCRUSTES_ARCH_WAVE_PLAN_H_
#define PROCRUSTES_ARCH_WAVE_PLAN_H_

#include <array>
#include <cstdint>
#include <vector>

#include "arch/arch_config.h"
#include "arch/dataflow.h"
#include "arch/layer_shape.h"
#include "arch/load_balancer.h"

namespace procrustes {
namespace arch {

struct LayerTrace;

/**
 * Kernels per work tile along the spatialized weight dimension:
 * bounded by half the register file (weight-stationary residency) and
 * never more than what one pass over the dimension requires. Single
 * kernels only when the dimension is small or kernels are large.
 */
int64_t weightTileChunk(const ArrayConfig &cfg, const LayerShape &layer,
                        int64_t ext, int64_t array_dim);

/** How a wave's per-PE work is laid out (see the file header). */
enum class WaveShape
{
    Uniform,
    Line,
    Chunked,
    Pair,
};

/** One full-array wave. */
struct PlannedWave
{
    int64_t base1 = 0;   //!< first index along the second spatial dim
    int64_t n0 = 0;      //!< active PEs along the array rows
    int64_t n1 = 0;      //!< active PEs along the array columns

    /**
     * Line: one tile per index along the sparse axis. Chunked and
     * Pair: n0 * n1 tiles, row-major. Uniform: one tile.
     */
    std::vector<TileHalves> tiles;
};

/** The waves of one (layer, phase, mapping, batch), in issue order. */
struct WavePlan
{
    WaveShape shape = WaveShape::Uniform;
    std::array<Dim, 2> dims{};   //!< the mapping's spatial dims
    int64_t ext0 = 0;            //!< extent of dims[0]
    int64_t ext1 = 0;            //!< extent of dims[1]
    int lineAxis = 0;            //!< Line: the sparse axis (0 or 1)
    int64_t chunk = 1;           //!< Chunked: kernels per PE, else 1
    double perIndex = 0.0;       //!< dense MACs per (dims[0], dims[1]) index
    std::vector<PlannedWave> waves;

    /** Work (density units) of the PE at (i, j) of wave `w`. */
    double work(const PlannedWave &w, int64_t i, int64_t j) const;

    /** Kernels in the chunk of column `j` of wave `w` (1 unless
        Chunked). */
    int64_t chunkCount(const PlannedWave &w, int64_t j) const;
};

/**
 * Plan a traced layer: exact live-position counts from the epoch-final
 * mask (SparsityMask::tileNnz per slice, blockNnz per kernel) over the
 * dense positions they cover, and the activation vectors as they are
 * (per-sample halves where the trace has them, per-channel and spatial
 * marginals otherwise).
 */
WavePlan planWaves(const LayerTrace &layer, Phase phase,
                   MappingKind mapping, int64_t batch,
                   const ArrayConfig &cfg);

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_WAVE_PLAN_H_
