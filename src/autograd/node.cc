#include "autograd/node.h"

#include <atomic>

#include "autograd/grad_accumulator.h"

namespace ddpkit::autograd {

namespace {
std::atomic<uint64_t> g_sequence_counter{0};
}  // namespace

Node::Node() : sequence_nr_(g_sequence_counter.fetch_add(1)) {}

AutogradMeta* GetOrCreateMeta(const Tensor& t) {
  auto meta = t.autograd_meta();
  if (!meta) {
    meta = std::make_shared<AutogradMeta>();
    const_cast<Tensor&>(t).set_autograd_meta(meta);
  }
  return static_cast<AutogradMeta*>(meta.get());
}

AutogradMeta* MaybeMeta(const Tensor& t) {
  auto meta = t.autograd_meta();
  return meta ? static_cast<AutogradMeta*>(meta.get()) : nullptr;
}

bool IsLeaf(const Tensor& t) {
  if (!t.requires_grad()) return false;
  AutogradMeta* meta = MaybeMeta(t);
  return meta == nullptr || meta->grad_fn == nullptr;
}

bool NeedsGrad(const Tensor& t) { return t.defined() && t.requires_grad(); }

Edge GradEdge(const Tensor& t) {
  if (!NeedsGrad(t)) return Edge{};
  AutogradMeta* meta = MaybeMeta(t);
  if (meta != nullptr && meta->grad_fn != nullptr) {
    return Edge{meta->grad_fn, meta->output_nr};
  }
  return Edge{GetGradAccumulator(t), 0};
}

void SetHistory(Tensor* out, std::shared_ptr<Node> node, int output_nr) {
  DDPKIT_CHECK(out != nullptr && out->defined());
  AutogradMeta* meta = GetOrCreateMeta(*out);
  meta->grad_fn = std::move(node);
  meta->output_nr = output_nr;
  out->set_requires_grad(true);
}

}  // namespace ddpkit::autograd
