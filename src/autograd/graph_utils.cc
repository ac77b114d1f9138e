#include "autograd/graph_utils.h"

#include <vector>

#include "autograd/grad_accumulator.h"
#include "autograd/node.h"

namespace ddpkit::autograd {

std::unordered_set<const void*> FindReachableParams(
    const std::vector<Tensor>& outputs) {
  std::unordered_set<const void*> result;
  std::unordered_set<Node*> seen;
  std::vector<Node*> stack;

  for (const Tensor& out : outputs) {
    Edge edge = GradEdge(out);
    if (edge.valid() && seen.insert(edge.node.get()).second) {
      stack.push_back(edge.node.get());
    }
  }

  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    if (auto* acc = dynamic_cast<GradAccumulator*>(node)) {
      result.insert(acc->param().id());
      continue;
    }
    for (const Edge& edge : node->next_edges()) {
      if (edge.valid() && seen.insert(edge.node.get()).second) {
        stack.push_back(edge.node.get());
      }
    }
  }
  return result;
}

}  // namespace ddpkit::autograd
