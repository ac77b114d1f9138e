#include "optim/sgd.h"

#include "autograd/engine.h"
#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace ddpkit::optim {

Sgd::Sgd(std::vector<Tensor> params, const Options& options)
    : Optimizer(std::move(params)), options_(options) {
  momentum_buffers_.resize(params_.size());
}

std::vector<std::pair<std::string, Tensor>> Sgd::named_state() {
  std::vector<std::pair<std::string, Tensor>> state;
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& buf = momentum_buffers_[i];
    if (!buf.defined()) {
      buf = Tensor::Zeros(params_[i].shape(), params_[i].dtype(),
                          params_[i].device_id());
    }
    state.emplace_back("momentum/" + std::to_string(i), buf);
  }
  return state;
}

void Sgd::Step() { StepImpl(nullptr); }

void Sgd::Step(const std::vector<uint8_t>& used_mask) {
  DDPKIT_CHECK_EQ(used_mask.size(), params_.size());
  StepImpl(&used_mask);
}

void Sgd::StepImpl(const std::vector<uint8_t>* used_mask) {
  autograd::NoGradGuard guard;
  vec::SgdCoefficients c{
      .neg_lr = static_cast<float>(-options_.lr),
      .weight_decay = static_cast<float>(options_.weight_decay),
      .momentum = static_cast<float>(options_.momentum)};
  for (size_t i = 0; i < params_.size(); ++i) {
    if (used_mask != nullptr && (*used_mask)[i] == 0) continue;
    Tensor p = params_[i];
    Tensor g = p.grad();
    if (!g.defined()) continue;
    Tensor* buf = nullptr;
    if (options_.momentum != 0.0) {
      buf = &momentum_buffers_[i];
      c.first_step = !buf->defined();
      if (c.first_step) {
        *buf = Tensor::Empty(p.shape(), p.dtype(), p.device_id());
      }
    }
    kernels::SgdStep(&p, g, buf, c);
  }
}

}  // namespace ddpkit::optim
