#include "comm/process_group_sim.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/check.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ddpkit::comm {

namespace internal {

/// One in-flight collective, matched across ranks by per-rank sequence
/// number (all ranks must issue collectives in the same order — §3.3).
struct CollectiveInstance {
  Collective kind = Collective::kBarrier;
  ReduceOp op = ReduceOp::kSum;
  int root = 0;
  int64_t numel = 0;
  DType dtype = DType::kFloat32;

  // Per-rank program buffers: the in-place tensor or output (kData) and
  // the input of AllGather/ReduceScatter/Gather (kInput).
  std::vector<Tensor> data;
  std::vector<Tensor> inputs;
  std::vector<double> arrivals;
  int arrived = 0;
  WorkHandle work = std::make_shared<Work>();
};

/// State shared by all rank handles of one logical process group.
struct GroupState {
  explicit GroupState(int world_size)
      : world(world_size), ctor_barrier(static_cast<size_t>(world_size)) {}

  const int world;
  ddpkit::Barrier ctor_barrier;

  /// Protects the in-flight collective table and the comm-queue tail — the
  /// state rank threads race on during Contribute.
  Mutex mutex;
  std::unordered_map<uint64_t, std::shared_ptr<CollectiveInstance>> inflight
      GUARDED_BY(mutex);
  /// Virtual time at which the group's serialized comm queue frees up.
  double queue_tail GUARDED_BY(mutex) = 0.0;
  /// Elastic recovery: non-zero once AbortGroup retired this group in
  /// favour of a newer generation. Checked at the top of every Contribute
  /// so stragglers fail fast with kInvalidGeneration.
  uint64_t superseded_by GUARDED_BY(mutex) = 0;
  std::string abort_reason GUARDED_BY(mutex);

  // The configuration below is written only by the first-arriving rank
  // (under `mutex`, inside Create) and becomes immutable once every rank
  // passes ctor_barrier — the barrier's release/acquire pair publishes it,
  // so post-rendezvous readers (collective lambdas, Contribute) take no
  // lock. Deliberately not GUARDED_BY.
  std::unique_ptr<sim::CommCostModel> cost_model;
  Algorithm algorithm = Algorithm::kRing;
  /// Shared deterministic fault schedule (null = fault-free) and the
  /// virtual-time watchdog applied when scheduled faults leave a
  /// collective short of participants.
  std::shared_ptr<const FaultPlan> fault_plan;
  double collective_timeout = 30.0;
  /// Generation the group was formed at (0 = normal startup).
  uint64_t generation = 0;
  /// Optional pg.* metrics sink (first non-null registry offered at Create
  /// wins; typically one registry shared by every rank).
  std::shared_ptr<MetricsRegistry> metrics;
};

namespace {

/// Process-wide registry standing in for network transport setup: all
/// "processes" are threads in one address space, so rank handles find their
/// shared GroupState here after the Store-based membership rendezvous.
class GroupRegistry {
 public:
  static GroupRegistry& Instance() {
    static GroupRegistry* instance = new GroupRegistry;
    return *instance;
  }

  std::shared_ptr<GroupState> GetOrCreate(const std::string& name,
                                          int world) {
    MutexLock lock(&mutex_);
    auto it = groups_.find(name);
    if (it != groups_.end()) {
      if (auto existing = it->second.lock()) {
        // ddplint: allow(check-in-comm) rendezvous misconfiguration at group
        // setup, caught before any collective is in flight.
        DDPKIT_CHECK_EQ(existing->world, world)
            << "group '" << name << "' world-size mismatch";
        return existing;
      }
      groups_.erase(it);  // group fully torn down; drop the dead entry
    }
    auto state = std::make_shared<GroupState>(world);
    groups_[name] = state;
    return state;
  }

 private:
  Mutex mutex_;
  std::unordered_map<std::string, std::weak_ptr<GroupState>> groups_
      GUARDED_BY(mutex_);
};

}  // namespace
}  // namespace internal

using internal::CollectiveInstance;
using internal::GroupState;

std::shared_ptr<ProcessGroupSim> ProcessGroupSim::Create(
    Store* store, const std::string& name, int rank, int world,
    const Options& options, sim::VirtualClock* clock) {
  // ddplint: allow(check-in-comm) rendezvous preconditions at group setup;
  // no collective is in flight yet, so aborting cannot strand a peer.
  DDPKIT_CHECK(store != nullptr);
  // ddplint: allow(check-in-comm) rendezvous precondition (see above).
  DDPKIT_CHECK(clock != nullptr);
  // ddplint: allow(check-in-comm) rendezvous precondition (see above).
  DDPKIT_CHECK(rank >= 0 && rank < world);

  auto state = internal::GroupRegistry::Instance().GetOrCreate(name, world);

  // First arrival configures the shared cost model; everyone then blocks
  // until the last instance joins (paper §3.3 rendezvous semantics).
  {
    MutexLock lock(&state->mutex);
    if (!state->cost_model) {
      state->cost_model = sim::MakeCostModel(options.flavor, options.topology);
      state->algorithm = options.algorithm;
      state->fault_plan = options.fault_plan;
      state->collective_timeout = options.collective_timeout_seconds;
      state->generation = options.generation;
    }
    if (!state->metrics && options.metrics) state->metrics = options.metrics;
  }
  state->ctor_barrier.ArriveAndWait();

  return std::shared_ptr<ProcessGroupSim>(new ProcessGroupSim(
      std::move(state), rank, world, options, clock, store));
}

ProcessGroupSim::ProcessGroupSim(std::shared_ptr<GroupState> state, int rank,
                                 int world, const Options& options,
                                 sim::VirtualClock* clock, Store* store)
    : ProcessGroup(rank, world),
      state_(std::move(state)),
      options_(options),
      clock_(clock),
      store_(store) {}

ProcessGroupSim::~ProcessGroupSim() = default;

const sim::CommCostModel& ProcessGroupSim::cost_model() const {
  return *state_->cost_model;
}

std::string ProcessGroupSim::backend_name() const {
  return sim::BackendName(options_.flavor);
}

uint64_t ProcessGroupSim::superseded_by() const {
  MutexLock lock(&state_->mutex);
  return state_->superseded_by;
}

void ProcessGroupSim::AbortGroup(uint64_t new_generation,
                                 const std::string& reason) {
  std::vector<std::shared_ptr<CollectiveInstance>> pending;
  {
    MutexLock lock(&state_->mutex);
    if (state_->superseded_by != 0) return;  // first abort's verdict stands
    state_->superseded_by = new_generation;
    state_->abort_reason = reason;
    pending.reserve(state_->inflight.size());
    for (auto& [seq, inst] : state_->inflight) pending.push_back(inst);
    state_->inflight.clear();
  }
  // Fail the partially-arrived collectives outside the lock (MarkFailed
  // takes Work::mutex_, strictly after GroupState::mutex in the hierarchy,
  // but there is no need to hold the group lock while notifying waiters).
  const double now = clock_->Now();
  for (auto& inst : pending) {
    inst->work->MarkFailed(
        Status::InvalidGeneration(
            "group generation " + std::to_string(state_->generation) +
            " superseded by generation " + std::to_string(new_generation) +
            " (" + reason + ")"),
        now);
  }
  if (state_->metrics != nullptr) {
    state_->metrics->counter("pg.group_aborts").Increment();
    if (!pending.empty()) {
      state_->metrics->counter("pg.collectives_failed")
          .Increment(pending.size());
    }
  }
}

namespace {

/// Pre-failed handle for a rank the fault plan keeps out of collective
/// `seq`: its own call must surface an error too, not hang.
WorkHandle AbsentRankWork(const FaultPlan& plan, GroupState* state,
                          uint64_t seq, int rank, Collective kind,
                          sim::VirtualClock* clock) {
  std::ostringstream msg;
  if (plan.IsCrashed(rank, seq)) {
    msg << CollectiveName(kind) << " seq " << seq << ": rank " << rank
        << " crashed (fault plan, " << plan.AbsenceReason(rank, seq) << ")";
    return FailedWork(Status::Internal(msg.str()), clock->Now());
  }
  msg << CollectiveName(kind) << " seq " << seq << " timed out after "
      << state->collective_timeout << "s (virtual): rank " << rank << " "
      << plan.AbsenceReason(rank, seq);
  return FailedWork(Status::TimedOut(msg.str()),
                    clock->Now() + state->collective_timeout);
}

/// Modeled duration of one collective of `bytes` (the in-place tensor or
/// the input): every kind is priced by one cost-model formula.
double ModeledSeconds(const GroupState& state, Collective kind, size_t bytes,
                      int concurrent_groups) {
  const sim::CommCostModel& model = *state.cost_model;
  switch (kind) {
    case Collective::kAllReduce:
      return model.AllReduceSeconds(bytes, state.world, concurrent_groups,
                                    state.algorithm);
    case Collective::kBroadcast:
    case Collective::kReduce:  // a tree reduce mirrors a pipelined broadcast
      return model.BroadcastSeconds(bytes, state.world);
    case Collective::kAllGather:
    case Collective::kGather:  // the root receives all-gather's volume
      return model.AllGatherSeconds(bytes, state.world);
    case Collective::kReduceScatter:
      // The first half of a ring all-reduce: same step count structure,
      // half the traffic.
      return 0.5 * model.AllReduceSeconds(bytes, state.world,
                                          concurrent_groups);
    case Collective::kBarrier:
      return model.BarrierSeconds(state.world);
  }
  return 0.0;
}

/// Registers this rank's contribution under `seq`; the last live arrival
/// runs the data-plane operation, computes timing against the group's comm
/// queue (the collective takes `seconds` once it starts), and completes the
/// shared Work. Faults from the group's plan are applied here: stalls delay
/// this rank's arrival, absent peers turn the collective into a typed
/// timeout/rank-failure instead of a deadlock, and cross-rank signature
/// mismatches fail the work instead of aborting.
WorkHandle Contribute(GroupState* state, uint64_t seq, int rank,
                      sim::VirtualClock* clock, Collective kind, ReduceOp op,
                      int root, int64_t numel, DType dtype, const Tensor& data,
                      const Tensor& input, double seconds) {
  if (state->metrics != nullptr) {
    state->metrics->counter(std::string("pg.ops.") + CollectiveName(kind))
        .Increment();
    state->metrics->counter("pg.bytes_contributed")
        .Increment(static_cast<uint64_t>(numel) *
                   static_cast<uint64_t>(ItemSize(dtype)));
  }
  const FaultPlan* plan = state->fault_plan.get();
  int live = state->world;
  if (plan != nullptr) {
    if (plan->IsAbsent(rank, seq)) {
      return AbsentRankWork(*plan, state, seq, rank, kind, clock);
    }
    // A stalled rank shows up late: its clock (and hence this collective's
    // start time) advances by the scheduled stall.
    clock->Advance(plan->StallSeconds(rank, seq));
    live -= static_cast<int>(plan->AbsentRanks(seq, state->world).size());
  }
  const double arrival_clock = clock->Now();

  std::shared_ptr<CollectiveInstance> inst;
  bool last = false;
  {
    MutexLock lock(&state->mutex);
    // Generation gate, checked in the same critical section that registers
    // contributions so an AbortGroup can never interleave between the check
    // and the registration: a retired group rejects every collective
    // outright. A straggler that missed a recovery rendezvous gets a typed
    // fast failure here instead of registering a contribution its peers
    // will never match.
    if (state->superseded_by != 0) {
      std::ostringstream msg;
      msg << CollectiveName(kind) << " seq " << seq << ": rank " << rank
          << " issued a collective on group generation " << state->generation
          << ", which was superseded by generation " << state->superseded_by
          << " (" << state->abort_reason << ")";
      if (state->metrics != nullptr) {
        state->metrics->counter("pg.collectives_failed").Increment();
      }
      return FailedWork(Status::InvalidGeneration(msg.str()), arrival_clock);
    }
    auto it = state->inflight.find(seq);
    if (it == state->inflight.end()) {
      inst = std::make_shared<CollectiveInstance>();
      inst->kind = kind;
      inst->op = op;
      inst->root = root;
      inst->numel = numel;
      inst->dtype = dtype;
      inst->data.resize(static_cast<size_t>(state->world));
      inst->inputs.resize(static_cast<size_t>(state->world));
      inst->arrivals.assign(static_cast<size_t>(state->world), 0.0);
      state->inflight.emplace(seq, inst);
    } else {
      inst = it->second;
      // The paper's "incorrect reduction result or program crash" case:
      // collectives must line up in kind, size and dtype across ranks.
      // Surface the desync as a typed failure instead of aborting, so DDP
      // can report which rank diverged.
      if (inst->kind != kind || inst->op != op || inst->root != root ||
          inst->numel != numel || inst->dtype != dtype) {
        std::ostringstream msg;
        msg << "collective signatures diverged at seq " << seq << ": rank "
            << rank << " issued " << CollectiveName(kind) << " (numel " << numel
            << ", root " << root << ", op " << ReduceOpName(op)
            << ") but an earlier participant issued "
            << CollectiveName(inst->kind) << " (numel " << inst->numel
            << ", root " << inst->root << ", op " << ReduceOpName(inst->op)
            << ")";
        inst->work->MarkFailed(Status::FailedPrecondition(msg.str()),
                               arrival_clock);
        if (state->metrics != nullptr) {
          state->metrics->counter("pg.collectives_failed").Increment();
        }
      }
    }
    inst->data[static_cast<size_t>(rank)] = data;
    inst->inputs[static_cast<size_t>(rank)] = input;
    inst->arrivals[static_cast<size_t>(rank)] = arrival_clock;
    last = (++inst->arrived == live);
    if (last) state->inflight.erase(seq);
  }

  if (last && !inst->work->Poll()) {
    if (live < state->world) {
      // Scheduled faults left the collective short of participants: the op
      // can never complete. Fail it `collective_timeout` virtual seconds
      // after the last live arrival, naming every missing rank — peers see
      // a typed error, never a deadlock.
      const double max_arrival =
          *std::max_element(inst->arrivals.begin(), inst->arrivals.end());
      const std::vector<int> absent = plan->AbsentRanks(seq, state->world);
      bool any_crashed = false;
      std::ostringstream msg;
      msg << CollectiveName(kind) << " seq " << seq << " timed out after "
          << state->collective_timeout << "s (virtual) waiting for";
      for (int r : absent) {
        msg << " rank " << r << " (" << plan->AbsenceReason(r, seq) << ")";
        any_crashed = any_crashed || plan->IsCrashed(r, seq);
      }
      const double fail_time = max_arrival + state->collective_timeout;
      {
        MutexLock lock(&state->mutex);
        state->queue_tail = std::max(state->queue_tail, fail_time);
      }
      inst->work->MarkFailed(any_crashed ? Status::Internal(msg.str())
                                         : Status::TimedOut(msg.str()),
                             fail_time);
      if (state->metrics != nullptr) {
        state->metrics->counter("pg.collectives_failed").Increment();
      }
      return inst->work;
    }

    // Data plane (real reduction), executed once by the last arrival: the
    // in-memory executor runs every rank's step program. kAuto resolves
    // against this group's topology (message size x world x host layout),
    // which also places kHierarchical's node boundaries; the cost model's
    // 4-arg AllReduceSeconds resolves the same way, so modeled time and
    // data movement agree.
    ProgramSpec spec;
    spec.kind = inst->kind;
    spec.dtype = inst->dtype;
    spec.world = state->world;
    spec.root = inst->root;
    spec.numel = inst->kind == Collective::kReduceScatter
                     ? inst->numel / state->world
                     : inst->numel;
    spec.algorithm = state->algorithm;
    spec.ranks_per_node = state->cost_model->topology().gpus_per_host();
    if (inst->kind == Collective::kAllReduce && state->metrics != nullptr) {
      const Algorithm algo = ResolveAlgorithm(
          spec.algorithm,
          static_cast<size_t>(spec.numel) * ItemSize(spec.dtype), spec.world,
          spec.ranks_per_node);
      state->metrics
          ->counter(std::string("pg.allreduce_algo.") + AlgorithmName(algo))
          .Increment();
    }
    if (inst->kind != Collective::kBarrier) {  // a barrier moves no data
      RunInMemory(spec, inst->op, inst->data, inst->inputs);
    }
    // Time plane: start when the last participant arrived AND the comm
    // queue is free; serialize the queue.
    double completion;
    double queue_delay = 0.0;
    double duration = 0.0;
    int slowest = 0;
    {
      MutexLock lock(&state->mutex);
      slowest = static_cast<int>(std::distance(
          inst->arrivals.begin(),
          std::max_element(inst->arrivals.begin(), inst->arrivals.end())));
      const double max_arrival = inst->arrivals[static_cast<size_t>(slowest)];
      const double start = std::max(max_arrival, state->queue_tail);
      queue_delay = start - max_arrival;
      completion = start + seconds;
      if (plan != nullptr) completion += plan->CompletionDelaySeconds(seq);
      duration = completion - start;
      state->queue_tail = completion;
    }
    if (state->metrics != nullptr) {
      // Recorded once per collective (by the last-arriving rank): how long
      // the op sat behind the serialized comm queue, and its modeled
      // on-the-wire duration.
      state->metrics->counter("pg.collectives_completed").Increment();
      state->metrics->histogram("pg.queue_delay_seconds").Record(queue_delay);
      state->metrics->histogram("pg.collective_seconds").Record(duration);
    }
    inst->work->MarkCompleted(
        completion, "slowest participant: rank " + std::to_string(slowest) +
                        " (arrived at t=" +
                        std::to_string(
                            inst->arrivals[static_cast<size_t>(slowest)]) +
                        ")");
  }
  return inst->work;
}

}  // namespace

WorkHandle ProcessGroupSim::Issue(Collective kind, ReduceOp op, int root,
                                  const Tensor& tensor, Tensor output) {
  if (WorkHandle bad = RejectInvalidCollective(kind, op, root, rank(),
                                               world(), tensor, output,
                                               clock_->Now())) {
    return bad;
  }
  // The in-place collectives combine into `tensor`; the others read it and
  // write `output`, which only Gather's root contributes.
  const bool in_place = kind == Collective::kAllReduce ||
                        kind == Collective::kBroadcast ||
                        kind == Collective::kReduce;
  if (kind == Collective::kGather && rank() != root) output = Tensor();
  return Contribute(state_.get(), next_seq_++, rank(), clock_, kind, op, root,
                    tensor.numel(), tensor.dtype(),
                    in_place ? tensor : output,
                    in_place ? Tensor() : tensor,
                    ModeledSeconds(*state_, kind, tensor.nbytes(),
                                   options_.concurrent_groups));
}

WorkHandle ProcessGroupSim::AllReduce(Tensor tensor, ReduceOp op) {
  return Issue(Collective::kAllReduce, op, 0, tensor, Tensor());
}

WorkHandle ProcessGroupSim::Broadcast(Tensor tensor, int root) {
  return Issue(Collective::kBroadcast, ReduceOp::kSum, root, tensor, Tensor());
}

WorkHandle ProcessGroupSim::AllGather(const Tensor& input, Tensor output) {
  return Issue(Collective::kAllGather, ReduceOp::kSum, 0, input, output);
}

WorkHandle ProcessGroupSim::Reduce(Tensor tensor, int root, ReduceOp op) {
  return Issue(Collective::kReduce, op, root, tensor, Tensor());
}

WorkHandle ProcessGroupSim::ReduceScatter(const Tensor& input, Tensor output,
                                          ReduceOp op) {
  return Issue(Collective::kReduceScatter, op, 0, input, output);
}

WorkHandle ProcessGroupSim::Gather(const Tensor& input, Tensor output,
                                   int root) {
  return Issue(Collective::kGather, ReduceOp::kSum, root, input, output);
}

void ProcessGroupSim::Barrier() {
  WorkHandle work = Contribute(
      state_.get(), next_seq_++, rank(), clock_, Collective::kBarrier,
      ReduceOp::kSum, /*root=*/0, 0, DType::kFloat32, Tensor(), Tensor(),
      ModeledSeconds(*state_, Collective::kBarrier, 0,
                     options_.concurrent_groups));
  // Barrier has no error channel; a fault is logged rather than aborted on,
  // as in ProcessGroupTcp::Barrier.
  const Status status = work->Wait(clock_, options_.collective_timeout_seconds);
  if (!status.ok()) {
    DDPKIT_LOG(Error) << "[pg_sim rank " << rank() << "] barrier failed: "
                      << status.message();
  }
}

}  // namespace ddpkit::comm
