/**
 * @file
 * Versioned bitwise training-state snapshots.
 *
 * The multi-tenant training service promises that a job checkpointed
 * at any optimizer step and resumed in a fresh engine continues
 * *bitwise identically* to the uninterrupted run. That requires
 * capturing every piece of trajectory state, not just the weights:
 *
 *  - parameter values (gradients are not state — checkpoints are
 *    taken between steps, where grads are about to be zeroed),
 *  - layer state outside params() (batch-norm running statistics,
 *    via Layer::serializeState),
 *  - optimizer state (step counter, momentum velocity, pruning masks
 *    and schedule counters, via Optimizer::serializeState),
 *  - the training cursor: (epoch, step-in-epoch) — sufficient to
 *    resume mid-stream because epochOrder() is a pure function of
 *    (size, seed, epoch) — plus the running epoch accumulators so a
 *    mid-epoch resume reproduces the epoch's EpochStats exactly.
 *
 * The format is a little-endian byte image (common/serialize.h) with
 * a magic + version header; restore validates the target network
 * (layer count/names, parameter names/shapes/prunability) and the
 * optimizer kind, and FATALs — a user-facing corrupt/mismatched
 * snapshot error, not a programming bug — on any disagreement.
 */

#ifndef PROCRUSTES_SERVE_CHECKPOINT_H_
#define PROCRUSTES_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.h"
#include "nn/sgd.h"
#include "nn/trainer.h"

namespace procrustes {
namespace serve {

/** 'PCKP' — Procrustes checkpoint. */
constexpr uint32_t kCheckpointMagic = 0x50434b50u;

/** Bump on any layout change; restore rejects other versions. */
constexpr uint32_t kCheckpointVersion = 1;

/** The cursor a snapshot records (nn/trainer.h). */
using nn::TrainCursor;

/**
 * Serialize the full training state of (net, opt) at `cursor` into a
 * self-describing binary snapshot. WARNs (once per call) when the
 * optimizer has not opted into the checkpoint contract
 * (Optimizer::checkpointComplete() == false) — the snapshot then
 * restores its step counter only.
 */
std::vector<uint8_t> snapshotTrainingState(nn::Network &net,
                                           const nn::Optimizer &opt,
                                           const TrainCursor &cursor);

/**
 * Restore a snapshot into a freshly built (net, opt) of the same
 * architecture and optimizer kind, returning the training cursor.
 * FATALs on corrupt payloads or architecture/optimizer mismatch.
 */
TrainCursor restoreTrainingState(const std::vector<uint8_t> &blob,
                                 nn::Network &net, nn::Optimizer &opt);

} // namespace serve
} // namespace procrustes

#endif // PROCRUSTES_SERVE_CHECKPOINT_H_
