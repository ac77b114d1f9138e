#ifndef DDPKIT_AUTOGRAD_NODE_H_
#define DDPKIT_AUTOGRAD_NODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace ddpkit::autograd {

class Node;

/// A directed edge in the backward graph: gradient flowing out of a node is
/// routed to `node`, arriving at that node's `input_index`-th input slot
/// (the producing tensor's output number in the forward pass).
struct Edge {
  std::shared_ptr<Node> node;
  int input_index = 0;

  bool valid() const { return node != nullptr; }
};

/// A backward-graph node: the gradient function for one forward operation.
/// PyTorch calls these `Function`s; DDP's whole interception strategy hangs
/// on two properties reproduced here: (1) the graph is rebuilt dynamically
/// on every forward pass, and (2) leaf tensors get a stable GradAccumulator
/// node that accepts post-hooks.
class Node {
 public:
  Node();
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Consumes gradients w.r.t. this op's forward outputs and produces
  /// gradients w.r.t. its forward inputs (parallel to next_edges()).
  /// An undefined tensor in either direction means "no gradient".
  virtual std::vector<Tensor> Apply(std::vector<Tensor> grad_outputs) = 0;

  virtual std::string name() const = 0;

  const std::vector<Edge>& next_edges() const { return next_edges_; }
  void set_next_edges(std::vector<Edge> edges) {
    next_edges_ = std::move(edges);
  }

  /// Number of gradient slots this node receives (one per forward output).
  int num_inputs() const { return num_inputs_; }
  void set_num_inputs(int n) { num_inputs_ = n; }

  /// Gradient accumulators (leaf terminals) report true: the engine pops
  /// them ahead of interior nodes so DDP's hooks fire as soon as each
  /// gradient is available mid-backward (PyTorch gives AccumulateGrad
  /// maximum sequence priority for the same reason).
  virtual bool is_accumulator() const { return false; }

  /// Monotonically increasing creation counter; later forward ops get
  /// higher numbers. The engine pops ready nodes in descending sequence
  /// order so the backward pass mirrors the reverse of the forward pass —
  /// which is what makes the paper's "reverse order of model.parameters()"
  /// bucketing heuristic effective.
  uint64_t sequence_nr() const { return sequence_nr_; }

 private:
  std::vector<Edge> next_edges_;
  int num_inputs_ = 1;
  uint64_t sequence_nr_;
};

/// Concrete autograd metadata attached to tensors that participate in the
/// graph (see AutogradMetaBase in tensor/tensor.h).
struct AutogradMeta : public AutogradMetaBase {
  /// The gradient function that produced this tensor (non-leaf only).
  std::shared_ptr<Node> grad_fn;
  /// Which output of grad_fn this tensor is.
  int output_nr = 0;
  /// Stable per-leaf gradient accumulator (leaf only, created lazily).
  std::shared_ptr<Node> grad_accumulator;
};

/// Returns the tensor's AutogradMeta, creating it if absent.
AutogradMeta* GetOrCreateMeta(const Tensor& t);
/// Returns the meta if present, else nullptr.
AutogradMeta* MaybeMeta(const Tensor& t);

/// True if the tensor is a graph leaf (requires grad but has no grad_fn).
bool IsLeaf(const Tensor& t);

/// PyTorch's needs_input_grad: whether GradEdge gives `t` a valid edge, so
/// a node can skip computing a gradient the engine would drop.
bool NeedsGrad(const Tensor& t);

/// The edge gradient should follow out of tensor `t`: its accumulator edge
/// for leaves, its grad_fn edge for interior tensors, or an invalid edge if
/// `t` does not need a gradient.
Edge GradEdge(const Tensor& t);

/// Marks `out` as produced by `node` (output_nr = index among outputs).
void SetHistory(Tensor* out, std::shared_ptr<Node> node, int output_nr = 0);

}  // namespace ddpkit::autograd

#endif  // DDPKIT_AUTOGRAD_NODE_H_
