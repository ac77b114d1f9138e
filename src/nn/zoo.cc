#include "nn/zoo.h"

#include "autograd/ops.h"
#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace ddpkit::nn {

// ---- Mlp ---------------------------------------------------------------------

Mlp::Mlp(const std::vector<int64_t>& sizes, Rng* rng) {
  DDPKIT_CHECK_GE(sizes.size(), 2u);
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    auto layer = std::make_shared<Linear>(sizes[i], sizes[i + 1], rng);
    layers_.push_back(
        RegisterModule("fc" + std::to_string(i), std::move(layer)));
  }
}

Tensor Mlp::Forward(const Tensor& input) {
  Tensor x = input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    x = layers_[i]->Forward(x);
    if (i + 1 < layers_.size()) x = ops::Relu(x);
  }
  return x;
}

// ---- SmallConvNet ---------------------------------------------------------------

SmallConvNet::SmallConvNet(Rng* rng, int64_t width, int64_t num_classes) {
  conv1_ = RegisterModule(
      "conv1", std::make_shared<Conv2d>(1, width, 3, rng, /*stride=*/1,
                                        /*padding=*/1, /*bias=*/false));
  bn1_ = RegisterModule("bn1", std::make_shared<BatchNorm2d>(width));
  conv2_ = RegisterModule(
      "conv2", std::make_shared<Conv2d>(width, width * 2, 3, rng, 1, 1,
                                        /*bias=*/false));
  bn2_ = RegisterModule("bn2", std::make_shared<BatchNorm2d>(width * 2));
  fc_ = RegisterModule(
      "fc", std::make_shared<Linear>(width * 2 * 7 * 7, num_classes, rng));
}

Tensor SmallConvNet::Forward(const Tensor& input) {
  Tensor x = ops::Relu(bn1_->Forward(conv1_->Forward(input)));
  x = ops::AvgPool2x2(x);
  x = ops::Relu(bn2_->Forward(conv2_->Forward(x)));
  x = ops::AvgPool2x2(x);
  x = ops::Reshape(x, {x.size(0), x.numel() / x.size(0)});
  return fc_->Forward(x);
}

// ---- BasicBlock / ResNetTiny -------------------------------------------------------

BasicBlock::BasicBlock(int64_t in_channels, int64_t out_channels, Rng* rng,
                       bool downsample) {
  const int64_t stride = downsample ? 2 : 1;
  conv1_ = RegisterModule(
      "conv1", std::make_shared<Conv2d>(in_channels, out_channels, 3, rng,
                                        stride, 1, /*bias=*/false));
  bn1_ = RegisterModule("bn1", std::make_shared<BatchNorm2d>(out_channels));
  conv2_ = RegisterModule(
      "conv2", std::make_shared<Conv2d>(out_channels, out_channels, 3, rng, 1,
                                        1, /*bias=*/false));
  bn2_ = RegisterModule("bn2", std::make_shared<BatchNorm2d>(out_channels));
  if (downsample || in_channels != out_channels) {
    shortcut_ = RegisterModule(
        "shortcut", std::make_shared<Conv2d>(in_channels, out_channels, 1,
                                             rng, stride, 0, /*bias=*/false));
    shortcut_bn_ = RegisterModule("shortcut_bn",
                                  std::make_shared<BatchNorm2d>(out_channels));
  }
}

Tensor BasicBlock::Forward(const Tensor& input) {
  Tensor x = ops::Relu(bn1_->Forward(conv1_->Forward(input)));
  x = bn2_->Forward(conv2_->Forward(x));
  Tensor skip = input;
  if (shortcut_) skip = shortcut_bn_->Forward(shortcut_->Forward(input));
  return ops::Relu(ops::Add(x, skip));
}

ResNetTiny::ResNetTiny(Rng* rng, int64_t in_channels, int64_t width,
                       int64_t num_classes, int64_t blocks_per_stage) {
  stem_ = RegisterModule(
      "stem", std::make_shared<Conv2d>(in_channels, width, 3, rng, 1, 1,
                                       /*bias=*/false));
  stem_bn_ = RegisterModule("stem_bn", std::make_shared<BatchNorm2d>(width));
  for (int64_t i = 0; i < blocks_per_stage; ++i) {
    stage1_.push_back(RegisterModule(
        "stage1_" + std::to_string(i),
        std::make_shared<BasicBlock>(width, width, rng, /*downsample=*/false)));
  }
  for (int64_t i = 0; i < blocks_per_stage; ++i) {
    const bool down = (i == 0);
    const int64_t in_c = down ? width : width * 2;
    stage2_.push_back(RegisterModule(
        "stage2_" + std::to_string(i),
        std::make_shared<BasicBlock>(in_c, width * 2, rng, down)));
  }
  fc_ = RegisterModule("fc",
                       std::make_shared<Linear>(width * 2, num_classes, rng));
}

Tensor ResNetTiny::Forward(const Tensor& input) {
  Tensor x = ops::Relu(stem_bn_->Forward(stem_->Forward(input)));
  for (auto& block : stage1_) x = block->Forward(x);
  for (auto& block : stage2_) x = block->Forward(x);
  x = ops::GlobalAvgPool(x);
  return fc_->Forward(x);
}

// ---- TransformerLayer / TransformerTiny ----------------------------------------------

TransformerLayer::TransformerLayer(int64_t dim, int64_t ff_dim, Rng* rng,
                                   int64_t num_heads)
    : num_heads_(num_heads) {
  DDPKIT_CHECK_GT(num_heads, 0);
  DDPKIT_CHECK_EQ(dim % num_heads, 0)
      << "num_heads must divide the model dimension";
  ln1_ = RegisterModule("ln1", std::make_shared<LayerNorm>(dim));
  wq_ = RegisterModule("wq", std::make_shared<Linear>(dim, dim, rng));
  wk_ = RegisterModule("wk", std::make_shared<Linear>(dim, dim, rng));
  wv_ = RegisterModule("wv", std::make_shared<Linear>(dim, dim, rng));
  wo_ = RegisterModule("wo", std::make_shared<Linear>(dim, dim, rng));
  ln2_ = RegisterModule("ln2", std::make_shared<LayerNorm>(dim));
  ff1_ = RegisterModule("ff1", std::make_shared<Linear>(dim, ff_dim, rng));
  ff2_ = RegisterModule("ff2", std::make_shared<Linear>(ff_dim, dim, rng));
}

Tensor TransformerLayer::Forward(const Tensor& input) {
  const int64_t batch = input.size(0), seq = input.size(1),
                dim = input.size(2);
  // Attention sub-block (pre-norm).
  Tensor normed = ln1_->Forward(input);
  Tensor flat = ops::Reshape(normed, {batch * seq, dim});
  Tensor q = ops::Reshape(wq_->Forward(flat), {batch, seq, dim});
  Tensor k = ops::Reshape(wk_->Forward(flat), {batch, seq, dim});
  Tensor v = ops::Reshape(wv_->Forward(flat), {batch, seq, dim});
  Tensor attn = ops::Attention(q, k, v, num_heads_);
  Tensor proj = ops::Reshape(
      wo_->Forward(ops::Reshape(attn, {batch * seq, dim})),
      {batch, seq, dim});
  Tensor x = ops::Add(input, proj);

  // Feed-forward sub-block (pre-norm).
  Tensor normed2 = ln2_->Forward(x);
  Tensor flat2 = ops::Reshape(normed2, {batch * seq, dim});
  Tensor ff = ff2_->Forward(ops::Gelu(ff1_->Forward(flat2)));
  return ops::Add(x, ops::Reshape(ff, {batch, seq, dim}));
}

TransformerTiny::TransformerTiny(const Config& config, Rng* rng)
    : config_(config) {
  embedding_ = RegisterModule(
      "embedding",
      std::make_shared<Embedding>(config.vocab_size, config.dim, rng));
  Tensor pos = Tensor::Randn({config.seq_len, config.dim}, rng);
  kernels::ScaleInPlace(&pos, 0.02);
  positional_ = RegisterParameter("positional", pos);
  for (int64_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(RegisterModule(
        "layer" + std::to_string(i),
        std::make_shared<TransformerLayer>(config.dim, config.ff_dim, rng,
                                           config.num_heads)));
  }
  final_ln_ = RegisterModule("final_ln",
                             std::make_shared<LayerNorm>(config.dim));
  head_ = RegisterModule(
      "head", std::make_shared<Linear>(config.seq_len * config.dim,
                                       config.num_classes, rng));
}

Tensor TransformerTiny::Forward(const Tensor& token_ids) {
  DDPKIT_CHECK_EQ(token_ids.dim(), 2);
  const int64_t batch = token_ids.size(0), seq = token_ids.size(1);
  DDPKIT_CHECK_EQ(seq, config_.seq_len);

  Tensor x = embedding_->Forward(token_ids);  // [B*S, D]
  // Add positional embeddings, tiled across the batch.
  x = ops::Add(x, ops::TileRows(positional_, batch));
  x = ops::Reshape(x, {batch, seq, config_.dim});
  for (auto& layer : layers_) x = layer->Forward(x);
  x = final_ln_->Forward(x);
  x = ops::Reshape(x, {batch, seq * config_.dim});
  return head_->Forward(x);
}

// ---- BranchyNet -------------------------------------------------------------------

BranchyNet::BranchyNet(int64_t dim, Rng* rng) {
  trunk_ = RegisterModule("trunk", std::make_shared<Linear>(dim, dim, rng));
  branch_a_ =
      RegisterModule("branch_a", std::make_shared<Linear>(dim, dim, rng));
  branch_b_ =
      RegisterModule("branch_b", std::make_shared<Linear>(dim, dim, rng));
  head_ = RegisterModule("head", std::make_shared<Linear>(dim, dim, rng));
}

Tensor BranchyNet::Forward(const Tensor& input) {
  Tensor x = ops::Relu(trunk_->Forward(input));
  // Dynamic control flow: only one branch joins the autograd graph, so the
  // other branch's parameters never see a gradient this iteration.
  x = use_branch_a_ ? branch_a_->Forward(x) : branch_b_->Forward(x);
  x = ops::Relu(x);
  return head_->Forward(x);
}

}  // namespace ddpkit::nn
