#include "core/distributed_data_parallel.h"

#include <string>
#include <utility>

#include "autograd/engine.h"
#include "common/check.h"

namespace ddpkit::core {

DistributedDataParallel::DistributedDataParallel(
    std::shared_ptr<nn::Module> module,
    std::shared_ptr<comm::ProcessGroup> process_group,
    const DdpOptions& options)
    : module_(std::move(module)), pg_(std::move(process_group)),
      options_(options) {
  DDPKIT_CHECK(module_ != nullptr);
  DDPKIT_CHECK(pg_ != nullptr);
  RegisterModule("module", module_);

  BroadcastInitialState();

  reducer_ = std::make_unique<Reducer>(module_->parameters(), pg_, options_);
}

void DistributedDataParallel::RecordCommFailure(Status status) {
  DDPKIT_CHECK(!status.ok());
  if (comm_status_.ok()) comm_status_ = std::move(status);
}

void DistributedDataParallel::BroadcastInitialState() {
  // All replicas adopt rank 0's parameters and buffers at construction
  // time (Algorithm 1 lines 2-3), guaranteeing a common starting point. A
  // faulted broadcast disables sync (remaining broadcasts are skipped: the
  // replicas no longer share a collective sequence).
  autograd::NoGradGuard guard;
  for (Tensor& p : module_->parameters()) {
    Status st = pg_->Broadcast(p.Flatten(), /*root=*/0)
                    ->Wait(pg_->clock(), options_.collective_timeout_seconds);
    if (!st.ok()) {
      RecordCommFailure(Status(st.code(), "initial parameter broadcast (rank " +
                                              std::to_string(pg_->rank()) +
                                              "): " + st.message()));
      return;
    }
  }
  for (Tensor& b : module_->buffers()) {
    if (b.dtype() != DType::kFloat32) continue;
    Status st = pg_->Broadcast(b.Flatten(), /*root=*/0)
                    ->Wait(pg_->clock(), options_.collective_timeout_seconds);
    if (!st.ok()) {
      RecordCommFailure(Status(st.code(), "initial buffer broadcast (rank " +
                                              std::to_string(pg_->rank()) +
                                              "): " + st.message()));
      return;
    }
  }
  buffers_dirty_ = false;
}

void DistributedDataParallel::PreForward() {
  autograd::NoGradGuard guard;
  if (options_.broadcast_buffers && sync_enabled_ && buffers_dirty_ &&
      sync_status().ok()) {
    // Rank 0 is the authority for buffer state (paper §4.1): broadcast
    // before the forward pass of a synced iteration.
    for (Tensor& b : module_->buffers()) {
      if (b.dtype() != DType::kFloat32) continue;
      Status st =
          pg_->Broadcast(b.Flatten(), /*root=*/0)
              ->Wait(pg_->clock(), options_.collective_timeout_seconds);
      if (!st.ok()) {
        RecordCommFailure(Status(st.code(), "buffer broadcast (rank " +
                                                std::to_string(pg_->rank()) +
                                                "): " + st.message()));
        break;
      }
    }
    buffers_dirty_ = false;
  }
  if (options_.compute_model != nullptr) {
    // Charge the forward pass to the virtual clock.
    int64_t numel = 0;
    int64_t num_params = 0;
    for (const Tensor& p : module_->parameters()) {
      numel += p.numel();
      ++num_params;
    }
    const double t0 = pg_->clock()->Now();
    pg_->clock()->Advance(
        options_.compute_model->ForwardSeconds(numel, num_params));
    if (options_.trace != nullptr) {
      options_.trace->AddSpan("forward", "forward", pg_->rank(), t0,
                              pg_->clock()->Now());
    }
    // Stamp the forward cost into the next backward's telemetry frame.
    reducer_->RecordForwardSeconds(pg_->clock()->Now() - t0);
  }
}

void DistributedDataParallel::PostForward(const std::vector<Tensor>& outputs) {
  // Inference forwards (grad mode off) build no autograd graph, so there
  // is no backward to prepare for — mirroring PyTorch's
  // torch.is_grad_enabled() gate.
  if (autograd::GradModeEnabled()) {
    reducer_->PrepareForBackward(outputs,
                                 sync_enabled_ && sync_status().ok());
  }
  if (module_->training() && !module_->buffers().empty()) {
    // The local forward advanced running statistics; schedule a broadcast
    // before the next synced forward.
    buffers_dirty_ = true;
  }
}

Tensor DistributedDataParallel::Forward(const Tensor& input) {
  PreForward();
  Tensor out = module_->Forward(input);
  PostForward({out});
  return out;
}

Status DistributedDataParallel::AbortAndRendezvous(
    const RecoveryOptions& options, comm::RendezvousResult* result) {
  if (options.group_factory == nullptr) {
    return Status::InvalidArgument(
        "elastic recovery needs a group_factory to re-form the process "
        "group over the survivors");
  }
  comm::Store* store = pg_->store();
  if (store == nullptr) {
    return Status::FailedPrecondition(
        "elastic recovery needs a Store-backed process group to rendezvous "
        "through");
  }
  const int old_rank = pg_->rank();
  if (options_.metrics != nullptr) {
    options_.metrics->counter("ddp.recovery.attempts").Increment();
  }
  if (options_.trace != nullptr) {
    options_.trace->AddInstant(
        "recovery: rendezvous from generation " +
            std::to_string(pg_->generation()),
        "recovery", old_rank, pg_->clock()->Now());
  }

  comm::RendezvousOptions rendezvous_options;
  rendezvous_options.timeout_seconds = options.rendezvous_timeout_seconds;
  rendezvous_options.min_world = options.min_world;
  auto sealed = comm::AbortAndRendezvous(
      store, options.rendezvous_namespace, old_rank, pg_->world(),
      pg_->generation(), rendezvous_options);
  if (!sealed.ok()) {
    if (options_.metrics != nullptr) {
      options_.metrics->counter("ddp.recovery.failed").Increment();
    }
    Status annotated(sealed.status().code(),
                     "elastic rendezvous (rank " + std::to_string(old_rank) +
                         "): " + sealed.status().message());
    RecordCommFailure(annotated);
    return annotated;
  }
  const comm::RendezvousResult membership = std::move(sealed).value();

  // Retire the old generation before the replacement dispatches anything:
  // in-flight works fail typed (kInvalidGeneration) — which also unblocks
  // peers stranded mid-Wait on a collective this rank will never complete —
  // and any straggler still issuing on the old group fails fast.
  pg_->AbortGroup(membership.generation,
                  "rank " + std::to_string(old_rank) +
                      " completed rendezvous for generation " +
                      std::to_string(membership.generation));

  std::shared_ptr<comm::ProcessGroup> replacement = options.group_factory(
      membership.generation, membership.new_rank, membership.new_world);
  if (replacement == nullptr ||
      replacement->rank() != membership.new_rank ||
      replacement->world() != membership.new_world) {
    if (options_.metrics != nullptr) {
      options_.metrics->counter("ddp.recovery.failed").Increment();
    }
    Status bad = Status::Internal(
        "group_factory returned a group that does not match the sealed "
        "membership (want rank " + std::to_string(membership.new_rank) +
        "/" + std::to_string(membership.new_world) + ")");
    RecordCommFailure(bad);
    return bad;
  }
  pg_ = std::move(replacement);

  // Garbage-collect this generation's rendezvous keys. Safe now, not
  // earlier: group construction barriers on every member, so the factory
  // returning proves all survivors finished reading the membership.
  // Idempotent across survivors.
  comm::CleanupRendezvous(store, options.rendezvous_namespace,
                          membership.generation);

  if (result != nullptr) *result = membership;
  return Status::OK();
}

Status DistributedDataParallel::Recover(const RecoveryOptions& options,
                                        RecoveryReport* report) {
  comm::RendezvousResult membership;
  Status st = AbortAndRendezvous(options, &membership);
  if (!st.ok()) return st;

  // Deterministic resync: the lowest surviving old rank became new rank 0
  // at the rendezvous, so "broadcast from root 0" elects it the source on
  // every survivor with no further agreement round. Order matters and is
  // identical everywhere: parameters, then float32 buffers, then
  // extra_state in list order.
  const auto fail = [&](StatusCode code, const std::string& message) {
    if (options_.metrics != nullptr) {
      options_.metrics->counter("ddp.recovery.failed").Increment();
    }
    Status annotated(code, message);
    RecordCommFailure(annotated);
    return annotated;
  };
  {
    autograd::NoGradGuard guard;
    const double timeout = options_.collective_timeout_seconds;
    for (Tensor& p : module_->parameters()) {
      Status bst =
          pg_->Broadcast(p.Flatten(), /*root=*/0)->Wait(pg_->clock(), timeout);
      if (!bst.ok()) {
        return fail(bst.code(), "recovery parameter resync (rank " +
                                    std::to_string(pg_->rank()) +
                                    "): " + bst.message());
      }
    }
    for (Tensor& b : module_->buffers()) {
      if (b.dtype() != DType::kFloat32) continue;
      Status bst =
          pg_->Broadcast(b.Flatten(), /*root=*/0)->Wait(pg_->clock(), timeout);
      if (!bst.ok()) {
        return fail(bst.code(), "recovery buffer resync (rank " +
                                    std::to_string(pg_->rank()) +
                                    "): " + bst.message());
      }
    }
    for (const auto& [name, tensor] : options.extra_state) {
      Tensor t = tensor;  // handle copy; broadcast writes the shared storage
      Status bst =
          pg_->Broadcast(t.Flatten(), /*root=*/0)->Wait(pg_->clock(), timeout);
      if (!bst.ok()) {
        return fail(bst.code(), "recovery extra-state resync of \"" + name +
                                    "\" (rank " + std::to_string(pg_->rank()) +
                                    "): " + bst.message());
      }
    }
  }

  Status reducer_status = reducer_->ResetAfterRecovery(pg_);
  if (!reducer_status.ok()) {
    return fail(reducer_status.code(),
                "post-recovery reducer re-init: " + reducer_status.message());
  }

  // This replica is healthy again: clear the sync-disabling error and
  // force a buffer broadcast before the next synced forward (the source's
  // buffer state just landed, but a later local forward may dirty them).
  comm_status_ = Status::OK();
  buffers_dirty_ = false;

  if (options_.metrics != nullptr) {
    options_.metrics->counter("ddp.recovery.completed").Increment();
    options_.metrics->gauge("ddp.generation")
        .Set(static_cast<double>(membership.generation));
  }
  if (options_.trace != nullptr) {
    options_.trace->AddInstant(
        "recovery: resynced at generation " +
            std::to_string(membership.generation) + " as rank " +
            std::to_string(membership.new_rank) + "/" +
            std::to_string(membership.new_world),
        "recovery", pg_->rank(), pg_->clock()->Now());
  }
  if (report != nullptr) {
    report->generation = membership.generation;
    report->new_rank = membership.new_rank;
    report->new_world = membership.new_world;
    report->source_old_rank = membership.source_old_rank;
    report->survivors = membership.survivors;
  }
  return Status::OK();
}

}  // namespace ddpkit::core
