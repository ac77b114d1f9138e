#include "autograd/engine.h"

#include <limits>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "autograd/node.h"
#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace ddpkit::autograd {

namespace {

thread_local bool t_grad_mode = true;

struct ReadyEntry {
  Node* node;
  uint64_t sequence_nr;  // UINT64_MAX for accumulators (run first)
  uint64_t push_order;   // FIFO tie-break for deterministic execution
};

struct ReadyOrder {
  // Max-heap on sequence number: later-created (deeper) nodes first,
  // approximating reverse-forward execution order. Gradient accumulators
  // get maximum priority so parameter hooks fire as soon as each gradient
  // is produced. Ties break FIFO so execution is deterministic across
  // ranks.
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    if (a.sequence_nr != b.sequence_nr) {
      return a.sequence_nr < b.sequence_nr;
    }
    return a.push_order > b.push_order;
  }
};

}  // namespace

bool GradModeEnabled() { return t_grad_mode; }
void SetGradModeEnabled(bool enabled) { t_grad_mode = enabled; }

void Backward(const Tensor& root, Tensor grad_output) {
  DDPKIT_CHECK(root.defined());
  DDPKIT_CHECK(root.requires_grad())
      << "Backward called on a tensor that does not require grad";

  Edge root_edge = GradEdge(root);
  DDPKIT_CHECK(root_edge.valid());

  if (!grad_output.defined()) {
    grad_output = Tensor::Ones(root.shape(), DType::kFloat32,
                               root.device_id());
  }
  DDPKIT_CHECK_EQ(grad_output.numel(), root.numel());

  // Keep all reachable nodes alive for the duration of the pass.
  std::vector<std::shared_ptr<Node>> keep_alive;

  // Phase 1: discovery — count, for every node, how many in-graph edges
  // point at it. A node may run only when all its gradient contributions
  // have arrived.
  std::unordered_map<Node*, int> dependencies;
  {
    std::unordered_set<Node*> seen;
    std::vector<Node*> stack;
    seen.insert(root_edge.node.get());
    keep_alive.push_back(root_edge.node);
    stack.push_back(root_edge.node.get());
    while (!stack.empty()) {
      Node* node = stack.back();
      stack.pop_back();
      for (const Edge& edge : node->next_edges()) {
        if (!edge.valid()) continue;
        dependencies[edge.node.get()] += 1;
        if (seen.insert(edge.node.get()).second) {
          keep_alive.push_back(edge.node);
          stack.push_back(edge.node.get());
        }
      }
    }
  }

  // Phase 2: execution.
  std::unordered_map<Node*, std::vector<Tensor>> input_buffers;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, ReadyOrder> ready;
  uint64_t push_counter = 0;

  auto deliver = [&](const Edge& edge, const Tensor& grad) {
    Node* target = edge.node.get();
    auto& buffer = input_buffers[target];
    if (buffer.empty()) {
      buffer.resize(static_cast<size_t>(target->num_inputs()));
    }
    DDPKIT_CHECK_LT(edge.input_index, target->num_inputs());
    Tensor& slot = buffer[static_cast<size_t>(edge.input_index)];
    if (grad.defined()) {
      if (!slot.defined()) {
        slot = grad;
      } else {
        // Fan-in: a forward tensor used by several consumers receives the
        // sum of their gradient contributions, slot first, in one pass.
        slot = kernels::Add(slot.Contiguous(), grad);
      }
    }
    int& deps = dependencies[target];
    DDPKIT_CHECK_GT(deps, 0);
    if (--deps == 0) {
      const uint64_t seq = target->is_accumulator()
                               ? std::numeric_limits<uint64_t>::max()
                               : target->sequence_nr();
      ready.push(ReadyEntry{target, seq, push_counter++});
    }
  };

  // Seed the root. Its dependency count is whatever discovery found from
  // other graph paths (normally zero), plus this initial delivery.
  dependencies[root_edge.node.get()] += 1;
  deliver(root_edge, grad_output);

  while (!ready.empty()) {
    Node* node = ready.top().node;
    ready.pop();

    std::vector<Tensor> grads;
    auto it = input_buffers.find(node);
    if (it != input_buffers.end()) {
      grads = std::move(it->second);
      input_buffers.erase(it);
    } else {
      grads.resize(static_cast<size_t>(node->num_inputs()));
    }

    std::vector<Tensor> grad_inputs = node->Apply(std::move(grads));
    const auto& edges = node->next_edges();
    DDPKIT_CHECK_LE(grad_inputs.size(), edges.size());
    for (size_t i = 0; i < edges.size(); ++i) {
      if (!edges[i].valid()) continue;
      Tensor g = i < grad_inputs.size() ? grad_inputs[i] : Tensor();
      deliver(edges[i], g);
    }
  }
}

}  // namespace ddpkit::autograd
