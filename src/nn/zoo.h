#ifndef DDPKIT_NN_ZOO_H_
#define DDPKIT_NN_ZOO_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace ddpkit::nn {

/// Multi-layer perceptron with ReLU between layers.
/// `sizes` = {in, hidden..., out}.
class Mlp : public Module {
 public:
  Mlp(const std::vector<int64_t>& sizes, Rng* rng);
  Tensor Forward(const Tensor& input) override;

 private:
  std::vector<std::shared_ptr<Linear>> layers_;
};

/// Small CNN for 28x28 single-channel images (the synthetic-MNIST
/// convergence experiments, paper Fig 11): two conv+BN+ReLU+pool stages and
/// a linear classifier head.
class SmallConvNet : public Module {
 public:
  SmallConvNet(Rng* rng, int64_t width = 8, int64_t num_classes = 10);
  Tensor Forward(const Tensor& input) override;

 private:
  std::shared_ptr<Conv2d> conv1_;
  std::shared_ptr<BatchNorm2d> bn1_;
  std::shared_ptr<Conv2d> conv2_;
  std::shared_ptr<BatchNorm2d> bn2_;
  std::shared_ptr<Linear> fc_;
};

/// Pre-activation-free basic residual block: out = relu(f(x) + skip(x)).
class BasicBlock : public Module {
 public:
  BasicBlock(int64_t in_channels, int64_t out_channels, Rng* rng,
             bool downsample = false);
  Tensor Forward(const Tensor& input) override;

 private:
  std::shared_ptr<Conv2d> conv1_;
  std::shared_ptr<BatchNorm2d> bn1_;
  std::shared_ptr<Conv2d> conv2_;
  std::shared_ptr<BatchNorm2d> bn2_;
  std::shared_ptr<Conv2d> shortcut_;       // nullptr if identity
  std::shared_ptr<BatchNorm2d> shortcut_bn_;
};

/// Runnable scaled-down ResNet (vision stand-in for ResNet50 in
/// correctness tests and examples). Expects [N, in_channels, H, W] with
/// H, W divisible by 4.
class ResNetTiny : public Module {
 public:
  ResNetTiny(Rng* rng, int64_t in_channels = 3, int64_t width = 8,
             int64_t num_classes = 10, int64_t blocks_per_stage = 2);
  Tensor Forward(const Tensor& input) override;

 private:
  std::shared_ptr<Conv2d> stem_;
  std::shared_ptr<BatchNorm2d> stem_bn_;
  std::vector<std::shared_ptr<BasicBlock>> stage1_;
  std::vector<std::shared_ptr<BasicBlock>> stage2_;
  std::shared_ptr<Linear> fc_;
};

/// One pre-norm transformer encoder layer with multi-head scaled-dot
/// attention (one ops::Attention node; head h is a column range of the
/// feature dimension).
class TransformerLayer : public Module {
 public:
  TransformerLayer(int64_t dim, int64_t ff_dim, Rng* rng,
                   int64_t num_heads = 1);
  Tensor Forward(const Tensor& input) override;  // [B, S, D] -> [B, S, D]

 private:
  std::shared_ptr<LayerNorm> ln1_;
  std::shared_ptr<Linear> wq_;
  std::shared_ptr<Linear> wk_;
  std::shared_ptr<Linear> wv_;
  std::shared_ptr<Linear> wo_;
  std::shared_ptr<LayerNorm> ln2_;
  std::shared_ptr<Linear> ff1_;
  std::shared_ptr<Linear> ff2_;
  int64_t num_heads_;
};

/// Runnable scaled-down transformer classifier (NLP stand-in for BERT in
/// correctness tests and examples). Input int64 token ids [B, S]; output
/// class logits [B, num_classes].
class TransformerTiny : public Module {
 public:
  struct Config {
    int64_t vocab_size = 64;
    int64_t seq_len = 8;
    int64_t dim = 16;
    int64_t ff_dim = 32;
    int64_t num_layers = 2;
    int64_t num_heads = 1;  // must divide dim
    int64_t num_classes = 4;
  };

  TransformerTiny(const Config& config, Rng* rng);
  Tensor Forward(const Tensor& token_ids) override;

  const Config& config() const { return config_; }

 private:
  Config config_;
  std::shared_ptr<Embedding> embedding_;
  Tensor positional_;
  std::vector<std::shared_ptr<TransformerLayer>> layers_;
  std::shared_ptr<LayerNorm> final_ln_;
  std::shared_ptr<Linear> head_;
};

/// Model with data-dependent control flow: each forward uses exactly one of
/// two expert branches, so the other branch's parameters receive no
/// gradient. This reproduces the paper's Fig 3(b) hazard and exercises
/// find_unused_parameters.
class BranchyNet : public Module {
 public:
  BranchyNet(int64_t dim, Rng* rng);
  Tensor Forward(const Tensor& input) override;

  /// Chooses the branch the next Forward will take.
  void set_use_branch_a(bool value) { use_branch_a_ = value; }
  bool use_branch_a() const { return use_branch_a_; }

  std::vector<Tensor> branch_a_parameters() const {
    return branch_a_->parameters();
  }
  std::vector<Tensor> branch_b_parameters() const {
    return branch_b_->parameters();
  }

 private:
  std::shared_ptr<Linear> trunk_;
  std::shared_ptr<Linear> branch_a_;
  std::shared_ptr<Linear> branch_b_;
  std::shared_ptr<Linear> head_;
  bool use_branch_a_ = true;
};

}  // namespace ddpkit::nn

#endif  // DDPKIT_NN_ZOO_H_
