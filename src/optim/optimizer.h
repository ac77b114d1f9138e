#ifndef DDPKIT_OPTIM_OPTIMIZER_H_
#define DDPKIT_OPTIM_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace ddpkit::optim {

/// Base optimizer over an ordered parameter list. Parameter state (momentum
/// buffers etc.) is keyed by position, so all ranks — which hold identical
/// parameter lists — evolve identical optimizer state when fed identical
/// gradients; that is the mathematical-equivalence contract of DDP (paper
/// §3).
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params);
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update using each parameter's current .grad.
  virtual void Step() = 0;

  /// Applies one update, skipping parameters whose mask entry is zero.
  /// Optimizers with per-parameter state (e.g. momentum) must leave that
  /// state untouched for skipped parameters — the paper's §3.2.3 regression
  /// scenario is an optimizer that cannot make this distinction.
  virtual void Step(const std::vector<uint8_t>& used_mask) = 0;

  /// Zeroes all parameter gradients through Tensor::ZeroGrad (an O(1) stale
  /// mark; the gradients stay allocated).
  void ZeroGrad();

  /// Learning-rate access for schedulers (see optim/lr_scheduler.h).
  virtual double learning_rate() const = 0;
  virtual void set_learning_rate(double lr) = 0;

  /// Named persistent state (momentum buffers, Adam moments, step
  /// counters), materialized on first call so it can be checkpointed
  /// before any Step() has run. The returned tensors are the authoritative
  /// state: loading values into them (nn::LoadTensorMap) resumes the
  /// optimizer exactly.
  virtual std::vector<std::pair<std::string, Tensor>> named_state() = 0;

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  std::vector<Tensor> params_;
};

}  // namespace ddpkit::optim

#endif  // DDPKIT_OPTIM_OPTIMIZER_H_
