/**
 * @file
 * Activation layers.
 *
 * ReLU is the activation the paper leans on: its zero outputs are the
 * *activation sparsity* Procrustes exploits during the weight-update
 * phase (Section II-B).
 */

#ifndef PROCRUSTES_NN_ACTIVATIONS_H_
#define PROCRUSTES_NN_ACTIVATIONS_H_

#include <string>

#include "nn/layer.h"

namespace procrustes {
namespace nn {

/** Rectified linear unit, elementwise max(0, x). */
class ReLU : public Layer
{
  public:
    explicit ReLU(const std::string &layer_name) : name_(layer_name) {}

    Tensor forward(const Tensor &x, bool training) override;
    Tensor backward(const Tensor &dy) override;
    std::string name() const override { return name_; }

    /** Fraction of zeros produced by the most recent forward pass. */
    double lastOutputSparsity() const { return lastSparsity_; }

    /**
     * Telemetry: an Activation-kind report whose outputDensity is the
     * measured non-zero fraction of the last forward — the activation
     * sparsity the weight-update phase exploits (Section II-B).
     */
    bool stepReport(LayerStepReport *out) const override;

  private:
    std::string name_;
    /** The last forward's output: a copy-on-write alias of the tensor
        forward() returned, so caching it costs no copy. backward()
        reads y > 0, which holds exactly where x > 0. */
    Tensor output_;
    double lastSparsity_ = 0.0;
};

} // namespace nn
} // namespace procrustes

#endif // PROCRUSTES_NN_ACTIVATIONS_H_
