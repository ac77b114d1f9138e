#include "core/reducer.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <limits>
#include <sstream>
#include <utility>

#include "autograd/engine.h"
#include "autograd/grad_accumulator.h"
#include "autograd/graph_utils.h"
#include "comm/store.h"
#include "comm/store_keys.h"
#include "common/check.h"
#include "common/logging.h"
#include "tensor/tensor_ops.h"

namespace ddpkit::core {

namespace {

/// Monotonic wall-clock seconds for the copy-cost telemetry (the re-attach
/// copies and the averaging pass are real work in this process, unlike the
/// modeled virtual time).
double WallSeconds() {
  // ddplint: allow(banned-nondeterminism) copy-cost telemetry measures real
  // memory-pass time by design (§4.2); it never feeds simulated results.
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

/// Total length of the union of [start, end) intervals clipped to
/// [clip_lo, clip_hi]. Buckets' launch->completion windows can nest and
/// abut (they share one serialized comm queue), so summing them naively
/// would double-count; the union is what "time with communication in
/// flight" means.
double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double clip_lo, double clip_hi) {
  double total = 0.0;
  std::sort(intervals.begin(), intervals.end());
  double cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (auto [lo, hi] : intervals) {
    lo = std::max(lo, clip_lo);
    hi = std::min(hi, clip_hi);
    if (hi <= lo) continue;
    if (!open) {
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else if (lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
    } else {
      total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// Strict integer parse of one ':'-separated field. Untrusted input (the
/// Store can serve corrupted/truncated values); never throws.
bool ParseField(const std::string& field, int64_t* out) {
  if (field.empty()) return false;
  const char* begin = field.data();
  const char* end = begin + field.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

/// Gradient-ready order serialized for the Store rebuild broadcast:
/// "<nparams>:<idx0>:<idx1>:...".
std::string SerializeOrder(const std::vector<size_t>& order) {
  std::ostringstream out;
  out << order.size();
  for (size_t idx : order) out << ':' << idx;
  return out.str();
}

/// Defensive inverse of SerializeOrder: the result must be a permutation
/// of [0, num_params). Returns false on any structural problem.
bool ParseOrder(const std::string& serialized, size_t num_params,
                std::vector<size_t>* order) {
  order->clear();
  std::istringstream in(serialized);
  std::string field;
  bool first = true;
  int64_t declared = -1;
  std::vector<uint8_t> seen(num_params, 0);
  while (std::getline(in, field, ':')) {
    int64_t value = 0;
    if (!ParseField(field, &value)) return false;
    if (first) {
      first = false;
      declared = value;
      continue;
    }
    if (value < 0 || static_cast<size_t>(value) >= num_params) return false;
    if (seen[static_cast<size_t>(value)]) return false;
    seen[static_cast<size_t>(value)] = 1;
    order->push_back(static_cast<size_t>(value));
  }
  return declared == static_cast<int64_t>(num_params) &&
         order->size() == num_params;
}

/// Bounded excerpt of untrusted Store payloads for diagnostics.
std::string Excerpt(const std::string& s) {
  constexpr size_t kMax = 48;
  if (s.size() <= kMax) return s;
  return s.substr(0, kMax) + "...";
}

}  // namespace

Reducer::Reducer(std::vector<Tensor> params,
                 std::shared_ptr<comm::ProcessGroup> process_group,
                 const ReducerOptions& options)
    : params_(std::move(params)),
      options_(options),
      alive_(std::make_shared<bool>(true)),
      pg_(std::move(process_group)) {
  DDPKIT_CHECK(pg_ != nullptr);
  DDPKIT_CHECK(!params_.empty()) << "Reducer needs at least one parameter";

  metas_.reserve(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    const Tensor& p = params_[i];
    DDPKIT_CHECK(p.defined() && p.requires_grad());
    DDPKIT_CHECK(p.dtype() == DType::kFloat32)
        << "only float32 parameters are supported";
    metas_.push_back(ParamMeta{p.numel(), p.nbytes(), p.device_id()});
    DDPKIT_CHECK(param_index_.emplace(p.id(), i).second)
        << "duplicate parameter handed to Reducer";
  }

  // No concurrent access is possible before the constructor returns, but
  // InitBuckets / AbortSync / ValidateCrossRankLayout carry REQUIRES(mu_)
  // contracts, so take the (uncontended) lock for the setup sequence.
  MutexLock lock(&mu_);
  locally_used_.assign(params_.size(), 0);
  globally_used_.assign(params_.size(), 1);
  used_bitmap_ = Tensor::Zeros({static_cast<int64_t>(params_.size())},
                               DType::kUInt8);

  InitBuckets(AssignBuckets(metas_, options_.bucket_cap_bytes,
                            options_.first_bucket_cap_bytes));
  InstallHooks();

  // Pair up the Nth reducer on every rank: reducers are constructed in
  // program order, so the per-rank instance counter yields matching ids on
  // ranks that are still in sync. The id keys both the layout-validation
  // handshake and the rebuild-order broadcast.
  if (comm::Store* store = pg_->store();
      store != nullptr && pg_->world() > 1) {
    int64_t count = 0;
    // ddplint: allow(blocking-under-lock) constructor-held mu_ is
    // uncontended (no other thread can see this reducer yet) and the
    // retry loop is deadline-bounded, so nothing can wait on the lock.
    Status st = store->AddWithRetry(
        comm::store_keys::ReducerInstanceCounter(pg_->rank()), 1, &count);
    if (st.ok()) {
      store_instance_ = count - 1;
    } else if (options_.validate_bucket_layout) {
      AbortSync(Status(st.code(),
                       "bucket-layout validation could not reach the store: " +
                           st.message()));
    } else {
      DDPKIT_LOG(Warning)
          << "reducer instance-id allocation failed; bucket rebuilds will "
             "stay rank-local: " << st.ToString();
    }
  }
  if (options_.validate_bucket_layout) ValidateCrossRankLayout();
}

Reducer::~Reducer() { *alive_ = false; }

void Reducer::InstallHooks() {
  // One post-hook per gradient accumulator (Algorithm 1 lines 5-7). The
  // accumulator outlives this Reducer, so hooks are guarded by an alive
  // token.
  for (size_t i = 0; i < params_.size(); ++i) {
    auto accumulator = autograd::GetGradAccumulator(params_[i]);
    std::weak_ptr<bool> alive = alive_;
    Reducer* self = this;
    accumulator->AddPostHook([alive, self, i](const Tensor&) {
      if (auto token = alive.lock(); token && *token) {
        self->AutogradHook(i);
      }
    });
  }
}

void Reducer::InitBuckets(const BucketAssignment& assignment) {
  assignment_ = assignment;
  buckets_.clear();
  buckets_.resize(assignment_.buckets.size());
  param_slots_.assign(params_.size(), Slot{});

  for (size_t b = 0; b < assignment_.buckets.size(); ++b) {
    Bucket& bucket = buckets_[b];
    int64_t total = 0;
    for (size_t idx : assignment_.buckets[b]) {
      param_slots_[idx] = Slot{b, total, metas_[idx].numel};
      total += metas_[idx].numel;
    }
    const int device = metas_[assignment_.buckets[b].front()].device_id;
    // Buckets live on the same device as their parameters (§4.2).
    bucket.buffer = Tensor::Zeros({total}, DType::kFloat32, device);
    bucket.bytes = BucketBytes(metas_, assignment_.buckets[b]);
    bucket.pending = assignment_.buckets[b].size();
  }
  // A gradient that views a retired bucket keeps that buffer alive until it
  // is moved here, so accumulated values survive a rebuild or recovery.
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor grad = params_[i].grad();
    if (!grad.defined()) continue;
    Tensor view = SlotView(i);
    view.CopyFrom(grad);
    params_[i].set_grad(view);
  }
}

Tensor Reducer::SlotView(size_t param_index) {
  const Slot& slot = param_slots_[param_index];
  return buckets_[slot.bucket].buffer.Narrow(0, slot.offset, slot.length)
      .Reshape(params_[param_index].shape());
}

bool Reducer::GradIsSlotView(size_t param_index) {
  const Tensor grad = params_[param_index].grad();
  const Slot& slot = param_slots_[param_index];
  return grad.defined() &&
         grad.data<float>() ==
             buckets_[slot.bucket].buffer.data<float>() + slot.offset;
}

void Reducer::ResetIterationState() {
  param_ready_.assign(params_.size(), 0);
  for (size_t i = 0; i < buckets_.size(); ++i) {
    Bucket& b = buckets_[i];
    // Replenish the pending gradient count for every bucket (§4.2).
    b.pending = assignment_.buckets[i].size();
    b.ready = false;
    b.launched = false;
    b.work.reset();
    b.hook_launched = CommHook::Launched{};
  }
  next_bucket_ = 0;
  ready_order_.clear();
  finalized_ = false;
}

void Reducer::PrepareForBackward(const std::vector<Tensor>& outputs,
                                 bool will_sync) {
  MutexLock lock(&mu_);
  DDPKIT_CHECK(!armed_ || finalized_ || !expect_hooks_)
      << "previous synced backward never finalized";
  ResetIterationState();
  // A replica whose communication failed (desync or collective fault)
  // degrades to local-only accumulation: issuing further collectives after
  // a desync would deadlock or corrupt the reduction.
  expect_hooks_ = will_sync && sync_status_.ok();
  armed_ = true;
  will_sync = expect_hooks_;

  // Open this iteration's telemetry frame. Only synced backwards produce a
  // record: no_sync iterations issue no collectives, so there is nothing
  // to break down.
  frame_ = DDPTelemetry{};
  frame_.iteration = iteration_++;
  frame_.rank = pg_->rank();
  frame_.forward_seconds = pending_forward_seconds_;
  pending_forward_seconds_ = 0.0;
  backward_start_clock_ = pg_->clock()->Now();
  frame_active_ = will_sync;

  if (!will_sync) return;

  if (options_.find_unused_parameters) {
    // Traverse the autograd graph from the outputs and proactively mark
    // parameters outside this iteration's sub-graph (Algorithm 1 line 10),
    // so their buckets cannot wait forever (Fig 3(b) hazard).
    auto reachable = autograd::FindReachableParams(outputs);
    for (size_t i = 0; i < params_.size(); ++i) {
      if (reachable.count(params_[i].id()) == 0) {
        MarkParamReady(i, /*via_hook=*/false);
      }
    }
  }
}

void Reducer::AutogradHook(size_t param_index) {
  MutexLock lock(&mu_);
  if (!armed_) return;  // backward outside a DDP forward; nothing to do
  locally_used_[param_index] = 1;
  if (!expect_hooks_) return;  // no_sync: gradients accumulate locally only

  if (options_.compute_model != nullptr) {
    // Charge this parameter's backward compute to the virtual clock before
    // the bucket logic records arrival times.
    const double t0 = pg_->clock()->Now();
    pg_->clock()->Advance(options_.compute_model->options().per_op_overhead +
                          static_cast<double>(metas_[param_index].numel) *
                              options_.compute_model->options()
                                  .backward_ns_per_element *
                              1e-9);
    if (options_.trace != nullptr) {
      options_.trace->AddSpan("grad " + std::to_string(param_index),
                              "backward", pg_->rank(), t0,
                              pg_->clock()->Now());
    }
    if (frame_active_ && options_.telemetry != nullptr) {
      frame_.param_compute_seconds.push_back(pg_->clock()->Now() - t0);
    }
  }

  DDPKIT_CHECK(!param_ready_[param_index])
      << "gradient for parameter " << param_index
      << " marked ready twice in one backward (is the same parameter "
         "shared, or was backward called twice without a DDP forward?)";
  MarkParamReady(param_index, /*via_hook=*/true);
}

void Reducer::MarkParamReady(size_t param_index, bool via_hook) {
  param_ready_[param_index] = 1;
  ready_order_.push_back(param_index);

  const size_t bucket_id = param_slots_[param_index].bucket;
  Bucket& bucket = buckets_[bucket_id];
  Tensor p = params_[param_index];
  Tensor grad = p.grad();
  if (GradIsSlotView(param_index)) {
    // Autograd accumulated straight into the bucket (Algorithm 1 lines
    // 15-16 need no copy). A hook implies local use, so only a parameter
    // marked ready by the unused-parameter traversal can land here unused.
    if (!locally_used_[param_index]) {
      // §3.2.3: if no rank used it, this gradient must stay intact, yet its
      // slot is about to be reduced. Detach it; the slot keeps the values
      // this rank contributes, and the post-wait pass re-attaches the
      // gradient if some peer did use the parameter.
      p.set_grad(grad.Clone());
    }
  } else {
    // One-time re-attach copy: the first gradient, a user set_grad, or a
    // rank that contributes zeros for a gradient it never had (peers that
    // used the parameter still receive a correct average).
    const bool time_copies = frame_active_ && options_.telemetry != nullptr;
    const double copy_start = time_copies ? WallSeconds() : 0.0;
    Tensor view = SlotView(param_index);
    if (grad.defined()) {
      view.CopyFrom(grad);
    } else {
      DDPKIT_CHECK(!via_hook);
      view.Zero();
    }
    if (time_copies) frame_.copy_in_seconds += WallSeconds() - copy_start;
  }

  DDPKIT_CHECK_GT(bucket.pending, 0u);
  if (--bucket.pending == 0) {
    bucket.ready = true;
    if (expect_hooks_ && options_.trace != nullptr) {
      // Flow-arrow origin: the instant the bucket's last gradient landed.
      options_.trace->AddFlowPoint(
          FlowId(bucket_id), TraceRecorder::FlowPhase::kStart,
          "bucket " + std::to_string(bucket_id) + " grads ready", "flow",
          pg_->rank(), pg_->clock()->Now());
    }
    MaybeLaunchBuckets();
  }
}

void Reducer::MaybeLaunchBuckets() {
  // In-order launch rule (§3.2.3): bucket i+1 never launches before bucket
  // i, even if it became ready first, so AllReduce contents line up across
  // ranks.
  while (next_bucket_ < buckets_.size() && buckets_[next_bucket_].ready) {
    LaunchBucket(next_bucket_);
    ++next_bucket_;
  }
  if (next_bucket_ == buckets_.size()) {
    FinalizeBackward();
  }
}

void Reducer::LaunchBucket(size_t bucket_id) {
  Bucket& bucket = buckets_[bucket_id];
  DDPKIT_CHECK(!bucket.launched);
  bucket.launched = true;
  bucket.launch_clock = pg_->clock()->Now();
  if (options_.trace != nullptr) {
    options_.trace->AddFlowPoint(
        FlowId(bucket_id), TraceRecorder::FlowPhase::kStep,
        "bucket " + std::to_string(bucket_id) + " launch", "flow",
        pg_->rank(), bucket.launch_clock);
  }
  if (frame_active_ && options_.telemetry != nullptr) {
    frame_.buckets.push_back(BucketTelemetry{bucket_id, bucket.bytes,
                                             bucket.launch_clock, 0.0, 0.0});
  }
  uint64_t bytes_raw = bucket.bytes;
  uint64_t bytes_compressed = bucket.bytes;
  if (options_.comm_hook != nullptr) {
    bucket.hook_launched =
        options_.comm_hook->Launch(*pg_, bucket.buffer, bucket_id);
    DDPKIT_CHECK(!bucket.hook_launched.works.empty())
        << "comm hook " << options_.comm_hook->name()
        << " returned no collective handles";
    bytes_raw = bucket.hook_launched.bytes_raw;
    bytes_compressed = bucket.hook_launched.bytes_compressed;
  } else {
    bucket.work = pg_->AllReduce(bucket.buffer, comm::ReduceOp::kSum);
  }
  ++stats_.allreduces_launched;
  stats_.bytes_reduced += bucket.bytes;
  stats_.bytes_wire_raw += bytes_raw;
  stats_.bytes_wire_compressed += bytes_compressed;
  if (options_.metrics != nullptr) {
    options_.metrics->counter("ddp.comm.bytes_raw").Increment(bytes_raw);
    options_.metrics->counter("ddp.comm.bytes_compressed")
        .Increment(bytes_compressed);
  }
  if (options_.trace != nullptr) {
    options_.trace->AddInstant(
        "bucket " + std::to_string(bucket_id) + " wire " +
            std::to_string(bytes_compressed) + "/" +
            std::to_string(bytes_raw) + " B",
        "comm", pg_->rank(), bucket.launch_clock);
  }
}

void Reducer::FinalizeBackward() {
  // Virtual time at which backward compute ended: every gradient hook has
  // fired and the last bucket just became launch-eligible. Everything the
  // clock advances past this point is exposed communication (the Fig 6
  // "allreduce wait" slice).
  const double backward_end = pg_->clock()->Now();

  // The additional bitmap AllReduce for globally-unused parameters
  // (§3.2.3). It cannot be coalesced into the gradient buckets because of
  // the dtype mismatch; it launches after all buckets, in the same order on
  // every rank.
  comm::WorkHandle bitmap_work;
  if (options_.find_unused_parameters) {
    uint8_t* bits = used_bitmap_.data<uint8_t>();
    for (size_t i = 0; i < params_.size(); ++i) bits[i] = locally_used_[i];
    bitmap_work = pg_->AllReduce(used_bitmap_, comm::ReduceOp::kBor);
    ++stats_.bitmap_allreduces;
  }

  const bool telem = options_.telemetry != nullptr;

  // Block waiting for all AllReduce ops (Algorithm 1 line 21), advancing
  // the virtual clock to each completion. A fault — a bucket that timed
  // out, a peer that crashed mid-collective — aborts the sync with a
  // diagnostic naming the bucket instead of deadlocking the backward.
  const bool hooked = options_.comm_hook != nullptr;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    Bucket& bucket = buckets_[b];
    const double wait_start = pg_->clock()->Now();
    // A hook may have issued several collectives; wait them in issue order
    // and propagate the FIRST typed error (later handles are drained
    // non-throwingly by AbortSync). The diagnostic names the hook: a
    // timeout inside a compression collective is a different bug hunt than
    // one in the stock bucket all-reduce.
    Status wait_status = Status::OK();
    double completion = 0.0;
    if (hooked) {
      for (const comm::WorkHandle& work : bucket.hook_launched.works) {
        DDPKIT_CHECK(work != nullptr);
        wait_status =
            work->Wait(pg_->clock(), options_.collective_timeout_seconds);
        if (!wait_status.ok()) break;
        completion = std::max(completion, work->completion_time());
      }
    } else {
      DDPKIT_CHECK(bucket.work != nullptr);
      wait_status =
          bucket.work->Wait(pg_->clock(), options_.collective_timeout_seconds);
      if (wait_status.ok()) completion = bucket.work->completion_time();
    }
    const std::string where =
        "gradient bucket " + std::to_string(b) + " (rank " +
        std::to_string(pg_->rank()) +
        (hooked ? ", comm hook " + options_.comm_hook->name() : "") + ")";
    if (!wait_status.ok()) {
      // Skip finalize: a failed collective left the gathered buffers
      // incomplete, and decompressing them would overwrite the bucket with
      // garbage.
      AbortSync(Status(wait_status.code(),
                       where + ": " + wait_status.message()));
      return;
    }
    if (bucket.hook_launched.finalize) {
      const Status finalize_status = bucket.hook_launched.finalize();
      if (!finalize_status.ok()) {
        AbortSync(Status(finalize_status.code(),
                         where + " finalize: " + finalize_status.message()));
        return;
      }
    }
    if (telem && b < frame_.buckets.size()) {
      frame_.buckets[b].completion_seconds = completion;
      frame_.buckets[b].wait_seconds =
          std::max(0.0, pg_->clock()->Now() - wait_start);
    }
    if (options_.trace != nullptr) {
      options_.trace->AddSpan("allreduce bucket " + std::to_string(b),
                              "comm", pg_->rank(), bucket.launch_clock,
                              completion);
      options_.trace->AddFlowPoint(
          FlowId(b), TraceRecorder::FlowPhase::kEnd,
          "bucket " + std::to_string(b) + " complete", "flow", pg_->rank(),
          completion);
    }
  }
  if (bitmap_work != nullptr) {
    const Status wait_status =
        bitmap_work->Wait(pg_->clock(), options_.collective_timeout_seconds);
    if (!wait_status.ok()) {
      AbortSync(Status(wait_status.code(),
                       "unused-parameter bitmap all-reduce (rank " +
                           std::to_string(pg_->rank()) +
                           "): " + wait_status.message()));
      return;
    }
    const uint8_t* bits = used_bitmap_.data<uint8_t>();
    for (size_t i = 0; i < params_.size(); ++i) {
      globally_used_[i] = bits[i] ? 1 : 0;
    }
  } else {
    std::fill(globally_used_.begin(), globally_used_.end(), 1);
  }

  // Close out the Fig 6 breakdown now that every wait has resolved.
  const double waits_end = pg_->clock()->Now();
  frame_.backward_compute_seconds = backward_end - backward_start_clock_;
  frame_.allreduce_wait_seconds = waits_end - backward_end;
  {
    std::vector<std::pair<double, double>> windows;
    windows.reserve(frame_.buckets.size());
    for (const BucketTelemetry& bt : frame_.buckets) {
      windows.emplace_back(bt.launch_seconds, bt.completion_seconds);
    }
    const double inf = std::numeric_limits<double>::infinity();
    frame_.comm_seconds = UnionLength(windows, -inf, inf);
    // Communication hidden behind backward compute: in-flight windows
    // clipped to the compute span. By construction overlap_seconds <=
    // backward_compute_seconds.
    frame_.overlap_seconds =
        UnionLength(std::move(windows), backward_start_clock_, backward_end);
  }

  // Average in place (the finalizing step Algorithm 1 omits). The buckets
  // hold the gradients, so there is nothing to copy back: a globally-used
  // parameter whose .grad is not yet a view of its slot is pointed at it.
  // Globally-unused gradients stay intact (§3.2.3), so optimizers that
  // inspect gradient absence behave exactly as in local training.
  const double average_start = telem ? WallSeconds() : 0.0;
  const double inv_world = 1.0 / static_cast<double>(pg_->world());
  for (Bucket& bucket : buckets_) {
    kernels::ScaleInPlace(&bucket.buffer, inv_world);
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    if (globally_used_[i] && !GradIsSlotView(i)) {
      params_[i].set_grad(SlotView(i));
    }
  }
  if (telem) frame_.copy_out_seconds = WallSeconds() - average_start;

  std::fill(locally_used_.begin(), locally_used_.end(), 0);
  last_ready_order_ = ready_order_;
  armed_ = false;
  expect_hooks_ = false;
  finalized_ = true;
  ++stats_.finalized_backwards;

  if (options_.metrics != nullptr) {
    MetricsRegistry& m = *options_.metrics;
    m.counter("reducer.finalized_backwards").Increment();
    m.counter("reducer.bytes_reduced").Increment(stats_.bytes_reduced);
    m.histogram("ddp.forward_seconds").Record(frame_.forward_seconds);
    m.histogram("ddp.backward_compute_seconds")
        .Record(frame_.backward_compute_seconds);
    m.histogram("ddp.allreduce_wait_seconds")
        .Record(frame_.allreduce_wait_seconds);
    m.histogram("ddp.overlap_seconds").Record(frame_.overlap_seconds);
    for (const BucketTelemetry& bt : frame_.buckets) {
      m.histogram("reducer.bucket_latency_seconds")
          .Record(bt.completion_seconds - bt.launch_seconds);
    }
  }
  if (options_.trace != nullptr) {
    // Per-iteration frame marker: lets trace viewers (and trace_summary)
    // slice the timeline at synced-iteration boundaries.
    options_.trace->AddInstant("iteration " + std::to_string(frame_.iteration),
                               "frame", pg_->rank(), waits_end);
  }
  EmitTelemetryFrame(/*synced=*/true);
}

uint64_t Reducer::FlowId(size_t bucket_id) const {
  // Unique across (rank, iteration, bucket): ranks share one trace file.
  return ((static_cast<uint64_t>(pg_->rank()) + 1) << 48) ^
         (iteration_ << 16) ^ static_cast<uint64_t>(bucket_id);
}

void Reducer::EmitTelemetryFrame(bool synced) {
  if (!frame_active_) return;
  frame_active_ = false;
  if (options_.telemetry == nullptr) return;
  frame_.synced = synced;
  frame_.rebuilds = stats_.rebuilds;
  frame_.sync_failures = stats_.sync_failures;
  options_.telemetry->Append(frame_);
}

void Reducer::AbortSync(Status status) {
  DDPKIT_CHECK(!status.ok());
  if (sync_status_.ok()) {
    // First error wins; later failures are downstream of the original.
    sync_status_ = std::move(status);
    DDPKIT_LOG(Error) << "gradient synchronization disabled: "
                      << sync_status_.ToString();
  }
  ++stats_.sync_failures;
  // Drain in-flight collectives non-throwingly: a handle whose work did
  // complete still advances the clock to its completion (peers saw this
  // rank participate), and every handle is released so an abandoned Work
  // can never be waited on again by a later iteration.
  for (Bucket& bucket : buckets_) DrainBucketWorks(bucket);
  // The aborted iteration never reached the bitmap AllReduce; leaving
  // locally_used_ set would leak this iteration's usage into the next
  // successful sync's globally-used mask.
  std::fill(locally_used_.begin(), locally_used_.end(), 0);
  // Unwind the iteration so the replica survives to read the diagnostic:
  // no hooks are expected, nothing is finalized, and the next
  // PrepareForBackward degrades to local-only accumulation.
  armed_ = false;
  expect_hooks_ = false;
  finalized_ = false;
  EmitTelemetryFrame(/*synced=*/false);
}

void Reducer::DrainBucketWorks(Bucket& bucket) {
  const auto drain = [this](const comm::WorkHandle& work) {
    if (work == nullptr) return;
    if (work->Poll() && work->IsCompleted()) {
      pg_->clock()->AdvanceTo(work->completion_time());
    }
  };
  drain(bucket.work);
  for (const comm::WorkHandle& work : bucket.hook_launched.works) drain(work);
  bucket.work.reset();
  bucket.hook_launched = CommHook::Launched{};
}

namespace {

/// Bucket-layout signature exchanged through the Store:
/// "<nbuckets>:<numel0>:<numel1>:...". Two ranks whose reducers would issue
/// different collective sequences necessarily differ in this string.
std::string LayoutSignature(const std::vector<int64_t>& bucket_numels) {
  std::ostringstream sig;
  sig << bucket_numels.size();
  for (int64_t n : bucket_numels) sig << ':' << n;
  return sig.str();
}

/// Defensive inverse of LayoutSignature. The Store serves untrusted bytes
/// (a corrupted peer, a stale key, an operator poking at the rendezvous
/// service); a malformed signature must surface as a diagnostic, not as a
/// std::stoll throw. Returns false on any structural problem.
bool ParseSignatureNumels(const std::string& sig,
                          std::vector<int64_t>* numels) {
  numels->clear();
  std::istringstream in(sig);
  std::string field;
  bool first = true;
  int64_t declared = -1;
  while (std::getline(in, field, ':')) {
    int64_t value = 0;
    if (!ParseField(field, &value)) return false;
    if (first) {
      first = false;  // leading bucket count
      declared = value;
      continue;
    }
    if (value < 0) return false;
    numels->push_back(value);
  }
  return !first && declared == static_cast<int64_t>(numels->size());
}

}  // namespace

void Reducer::ValidateCrossRankLayout() {
  comm::Store* store = pg_->store();
  if (store == nullptr || pg_->world() <= 1) return;
  if (store_instance_ < 0) return;  // id allocation failed; already reported
  if (!sync_status_.ok()) return;  // not sync_disabled(): mu_ already held

  const int rank = pg_->rank();
  const int world = pg_->world();

  // Epoch-keyed namespace: the handshake re-runs after every coordinated
  // bucket rebuild, and ranks in lockstep consume matching epochs. (The
  // instance id pairing the Nth reducer across ranks was allocated at
  // construction.)
  const int64_t epoch = layout_epoch_++;

  std::vector<int64_t> bucket_numels;
  bucket_numels.reserve(buckets_.size());
  for (const Bucket& bucket : buckets_) {
    bucket_numels.push_back(bucket.buffer.numel());
  }
  const std::string own_sig = LayoutSignature(bucket_numels);
  Status st = store->SetWithRetry(
      comm::store_keys::ReducerLayoutRankKey(store_instance_, epoch, rank),
      own_sig);
  if (!st.ok()) {
    AbortSync(Status(st.code(),
                     "bucket-layout validation could not publish rank " +
                         std::to_string(rank) +
                         "'s signature: " + st.message()));
    return;
  }

  // Compare every rank against rank 0's canonical layout. The bounded Get
  // turns a peer that never constructed its reducer into a typed timeout
  // instead of a rendezvous hang.
  std::vector<std::string> sigs(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    auto got = store->GetWithRetry(
        comm::store_keys::ReducerLayoutRankKey(store_instance_, epoch, r),
        options_.validation_timeout_seconds);
    if (!got.ok()) {
      AbortSync(Status(got.status().code(),
                       "bucket-layout validation: rank " + std::to_string(r) +
                           " never published a signature for reducer instance " +
                           std::to_string(store_instance_) + " (" +
                           got.status().message() + ")"));
      return;
    }
    sigs[static_cast<size_t>(r)] = std::move(got).value();
  }

  // Garbage-collect previous epochs' signature keys. Completing the read
  // loop above proves every rank published epoch e (= layout_epoch_ - 1),
  // and a rank publishes e only after finishing its reads of e-1 — so no
  // rank can still need any epoch below e. Without this sweep a
  // rebuild-heavy job leaks world keys per epoch into the Store.
  for (; layout_swept_ + 1 < layout_epoch_; ++layout_swept_) {
    store->DeletePrefix(comm::store_keys::ReducerLayoutEpochPrefix(
        store_instance_, layout_swept_));
  }

  for (int r = 1; r < world; ++r) {
    if (sigs[static_cast<size_t>(r)] == sigs[0]) continue;
    // Lowest disagreeing rank named; pin down the first divergent bucket.
    // Both signatures are untrusted Store bytes — parse defensively and
    // fold a malformed one into the diagnostic instead of crashing on it.
    std::vector<int64_t> base;
    std::vector<int64_t> theirs;
    const bool base_ok = ParseSignatureNumels(sigs[0], &base);
    const bool theirs_ok =
        ParseSignatureNumels(sigs[static_cast<size_t>(r)], &theirs);
    std::ostringstream msg;
    msg << "bucket layout desynchronized across ranks";
    if (!base_ok || !theirs_ok) {
      const int bad = base_ok ? r : 0;
      const std::string& raw = sigs[static_cast<size_t>(base_ok ? r : 0)];
      msg << ": rank " << bad << " published a malformed signature \""
          << Excerpt(raw) << "\"";
    } else {
      msg << ": rank " << r << " has " << theirs.size()
          << " bucket(s) vs rank 0's " << base.size();
      const size_t common = std::min(base.size(), theirs.size());
      for (size_t b = 0; b < common; ++b) {
        if (base[b] != theirs[b]) {
          msg << "; first mismatch at bucket " << b << " (rank " << r << ": "
              << theirs[b] << " elements, rank 0: " << base[b]
              << " elements)";
          break;
        }
      }
    }
    msg << " — did ranks diverge in bucket_cap_bytes or rebuild order?";
    AbortSync(Status::FailedPrecondition(msg.str()));
    return;
  }
}

bool Reducer::RebuildBucketsFromTrace() {
  MutexLock lock(&mu_);
  DDPKIT_CHECK(!armed_ || finalized_)
      << "RebuildBucketsFromTrace must be called between iterations";
  if (!sync_status_.ok()) return false;

  comm::Store* store = pg_->store();
  const bool coordinated =
      store != nullptr && pg_->world() > 1 && store_instance_ >= 0;

  // The order to rebuild from. Rank-local only in single-process or
  // store-less setups; otherwise rank 0's observed order is broadcast and
  // every rank rebuilds from that ONE trace. Rebuilding from each rank's
  // local order looks symmetric but is the desync bug this guards against:
  // hook orders diverge under jitter or divergent control flow, the
  // resulting layouts differ, and every later in-order AllReduce silently
  // mixes unrelated parameters.
  std::vector<size_t> order;
  if (!coordinated) {
    if (last_ready_order_.size() != params_.size()) return false;
    order = last_ready_order_;
  } else {
    const std::string key = comm::store_keys::ReducerRebuildOrderKey(
        store_instance_, rebuild_epoch_++);
    if (pg_->rank() == 0) {
      // "skip" keeps the epoch consumed on every rank even when rank 0 has
      // no complete trace yet (e.g. rebuild requested before any synced
      // backward); SerializeOrder output always starts with a digit.
      const bool has_trace = last_ready_order_.size() == params_.size();
      // ddplint: allow(blocking-under-lock) mu_ is the OUTERMOST level in
      // the DESIGN.md §8 hierarchy — no other thread blocks on mu_ while
      // holding anything the Store RPC needs — and the retry is
      // deadline-bounded.
      Status st = store->SetWithRetry(
          key, has_trace ? SerializeOrder(last_ready_order_) : "skip");
      if (!st.ok()) {
        AbortSync(Status(st.code(),
                         "bucket rebuild could not broadcast rank 0's ready "
                         "order: " + st.message()));
        return false;
      }
      if (!has_trace) return false;
      order = last_ready_order_;
    } else {
      // Bounded wait: a rank rebuilding alone (mismatched call counts
      // across ranks) surfaces here as a typed timeout instead of a hang
      // or a corrupted reduction.
      // ddplint: allow(blocking-under-lock) mu_ is the outermost §8 level
      // (see the SetWithRetry waiver above) and the wait is bounded by
      // validation_timeout_seconds.
      auto got = store->GetWithRetry(key, options_.validation_timeout_seconds);
      if (!got.ok()) {
        AbortSync(Status(got.status().code(),
                         "bucket rebuild: rank 0 never broadcast a ready "
                         "order for epoch " + std::to_string(rebuild_epoch_ - 1) +
                         " — did every rank call RebuildBucketsFromTrace? (" +
                         got.status().message() + ")"));
        return false;
      }
      const std::string payload = std::move(got).value();
      if (payload == "skip") return false;
      if (!ParseOrder(payload, params_.size(), &order)) {
        AbortSync(Status::FailedPrecondition(
            "bucket rebuild: rank 0 broadcast a malformed ready order \"" +
            Excerpt(payload) + "\""));
        return false;
      }
    }
  }

  BucketAssignment rebuilt = AssignBucketsFromOrder(
      metas_, order, options_.bucket_cap_bytes,
      options_.first_bucket_cap_bytes);
  const bool changed = rebuilt.buckets != assignment_.buckets;
  if (changed) {
    InitBuckets(rebuilt);
    ++stats_.rebuilds;
    if (options_.metrics != nullptr) {
      options_.metrics->counter("reducer.rebuilds").Increment();
    }
  }
  // Re-validate after every coordinated rebuild — even a no-op one keeps
  // the layout epochs aligned, and a rank whose layout diverged for any
  // other reason is caught here rather than at the next AllReduce.
  if (coordinated && options_.validate_bucket_layout) {
    ValidateCrossRankLayout();
    if (sync_status_.ok()) {
      // Garbage-collect the rebuild-order keys through the epoch just
      // consumed: peers read the order key before entering the validation
      // handshake, and this rank completing that handshake proves every
      // peer got past its read. ("skip" epochs that returned early above
      // are swept by the next rebuild that reaches this point.)
      for (; rebuild_swept_ < rebuild_epoch_; ++rebuild_swept_) {
        store->DeletePrefix(comm::store_keys::ReducerRebuildEpochPrefix(
            store_instance_, rebuild_swept_));
      }
    }
  }
  return changed;
}

Status Reducer::ResetAfterRecovery(
    std::shared_ptr<comm::ProcessGroup> new_group) {
  MutexLock lock(&mu_);
  if (new_group == nullptr) {
    return Status::InvalidArgument(
        "ResetAfterRecovery needs the rendezvous-formed replacement group");
  }

  // Drain works left over from the retired generation non-throwingly. A
  // handle that did complete before the abort still advances the clock to
  // its completion; everything else was failed (kInvalidGeneration) by
  // AbortGroup and is simply released.
  for (Bucket& bucket : buckets_) DrainBucketWorks(bucket);

  // Error-feedback residuals and warm-start factors die with the
  // generation: the recovered replica must match a fresh checkpoint-resumed
  // run bit for bit, and a fresh run starts with empty hook state.
  if (options_.comm_hook != nullptr) options_.comm_hook->ResetState();

  pg_ = std::move(new_group);
  sync_status_ = Status::OK();
  armed_ = false;
  expect_hooks_ = false;
  finalized_ = false;
  frame_active_ = false;

  // Usage state restarts clean: the recovery broadcast just overwrote every
  // parameter (and optimizer slot), so nothing accumulated before the fault
  // may leak into the first post-recovery sync.
  std::fill(locally_used_.begin(), locally_used_.end(), 0);
  std::fill(globally_used_.begin(), globally_used_.end(), 1);
  used_bitmap_.Zero();
  last_ready_order_.clear();
  ready_order_.clear();

  // Fresh Store-coordination identity on the new generation: epochs restart
  // at zero and a new instance id is allocated under the rank's NEW id.
  // Every survivor constructed the same reducers pre-fault, so the per-rank
  // instance counters agree across old rank positions and the re-allocation
  // yields matching ids on every survivor.
  layout_epoch_ = 0;
  rebuild_epoch_ = 0;
  layout_swept_ = 0;
  rebuild_swept_ = 0;
  store_instance_ = -1;
  if (comm::Store* store = pg_->store();
      store != nullptr && pg_->world() > 1) {
    int64_t count = 0;
    // ddplint: allow(blocking-under-lock) recovery runs with the backward
    // quiesced: nothing else can contend mu_ (DESIGN.md §8 outermost
    // level), and the retry loop is deadline-bounded.
    Status st = store->AddWithRetry(
        comm::store_keys::ReducerInstanceCounter(pg_->rank()), 1, &count);
    if (st.ok()) {
      store_instance_ = count - 1;
    } else if (options_.validate_bucket_layout) {
      AbortSync(Status(st.code(),
                       "post-recovery instance-id allocation could not reach "
                       "the store: " + st.message()));
      return sync_status_;
    }
  }

  // Rebuild from the DEFAULT assignment — NOT the last trace-driven one.
  // The reference a recovered run must stay bit-exact with is a fresh
  // world' job started from the same checkpoint, and that job's freshly
  // constructed reducer uses the default layout; ring all-reduce chunking
  // (hence float summation order) follows the bucket partition.
  InitBuckets(AssignBuckets(metas_, options_.bucket_cap_bytes,
                            options_.first_bucket_cap_bytes));
  ResetIterationState();

  if (options_.validate_bucket_layout) ValidateCrossRankLayout();
  if (options_.metrics != nullptr) {
    options_.metrics->counter("reducer.recoveries").Increment();
  }
  return sync_status_;
}

}  // namespace ddpkit::core
