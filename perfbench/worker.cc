// perfbench_worker — one rank of the wall-clock training benchmark.
//
// Runs the loop of `ddpkit_trainer --backend=tcp` (zoo model ->
// DistributedDataParallel -> CrossEntropyLoss -> autograd::Backward ->
// optim::Sgd) as a closed loop: step k+1 starts when step k returns. Every
// layer is timed only from outside, at its public calls; the library is
// used as shipped. run.py launches it through ddp_launch and turns the
// per-rank JSON it writes into the benchmark's metrics.
//
// Usage:
//   perfbench_worker --describe
//   ddp_launch --nproc=W -- perfbench_worker --workload=NAME --seed=N
//       --out=DIR [--phase=setup|train] [--warmup=N] [--seconds=S]
//       [--min-steps=N] [--trace=0|1]
//   perfbench_worker --backend=sim --workload=NAME ...   (all ranks as
//       threads of this process over ProcessGroupSim; digest cross-check)
//
// Each rank writes DIR/rank<r>.json when it ends: setup stamps, per-step
// wall times of the timed window, losses, a parameter digest, peak RSS,
// any error and — with --trace=1 — the spans of every layer call and
// every collective, kept in memory until then. All stamps are
// std::chrono::steady_clock (CLOCK_MONOTONIC) nanoseconds, a clock every
// process on the host shares, so run.py can line up ranks' collective
// entries and the driver's own launch stamp.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "autograd/engine.h"
#include "comm/backend_factory.h"
#include "comm/sim_world.h"
#include "comm/store_tcp.h"
#include "core/distributed_data_parallel.h"
#include "core/telemetry.h"
#include "data/distributed_sampler.h"
#include "data/synthetic.h"
#include "nn/losses.h"
#include "nn/zoo.h"
#include "optim/sgd.h"

using namespace ddpkit;  // NOLINT

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- workloads -------------------------------------------------------------

enum class ModelKind { kMlp, kTransformer };

/// Each model's bucket cap is a quarter to a third of its gradient bytes
/// (about the ratio the paper's 25 MB default gives ResNet50), so it gets
/// several buckets.
struct Workload {
  const char* name;
  ModelKind kind;
  int world;
  int batch;
  size_t bucket_cap_bytes;
};

constexpr Workload kWorkloads[] = {
    {"mlp_w2", ModelKind::kMlp, 2, 8, size_t{4} << 20},
    {"transformer_w2", ModelKind::kTransformer, 2, 8, size_t{256} << 10},
};

constexpr int64_t kDatasetSize = 2048;
constexpr int64_t kSeqLen = 16;
constexpr int64_t kVocab = 64;
constexpr int64_t kClasses = 4;
/// Below ddpkit_trainer's 0.02: at 0.02 TransformerTiny fits the token task
/// until its loss and gradients are exactly 0, and the matmul kernels'
/// zero-skip then makes backward nearly free — a step time of a degenerate
/// state, not of training.
constexpr double kLr = 0.005;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::shared_ptr<nn::Module> MakeModel(ModelKind kind, Rng* rng) {
  switch (kind) {
    case ModelKind::kMlp:
      return std::make_shared<nn::Mlp>(
          std::vector<int64_t>{28 * 28, 1024, 1024, 1024, 10}, rng);
    case ModelKind::kTransformer: {
      nn::TransformerTiny::Config config;
      config.vocab_size = kVocab;
      config.seq_len = kSeqLen;
      config.dim = 64;
      config.ff_dim = 256;
      config.num_layers = 4;
      config.num_heads = 4;
      config.num_classes = kClasses;
      return std::make_shared<nn::TransformerTiny>(config, rng);
    }
  }
  return nullptr;
}

// ---- arguments -------------------------------------------------------------

struct Args {
  std::string workload;
  std::string backend = "tcp";
  std::string phase = "train";
  std::string out;
  uint64_t seed = 1;
  int warmup = 10;
  double seconds = 0.0;
  int min_steps = 1;
  bool trace = false;
};

bool Flag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (Flag(a, "--workload", &v)) args->workload = v;
    else if (Flag(a, "--backend", &v)) args->backend = v;
    else if (Flag(a, "--phase", &v)) args->phase = v;
    else if (Flag(a, "--out", &v)) args->out = v;
    else if (Flag(a, "--seed", &v)) args->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (Flag(a, "--warmup", &v)) args->warmup = std::atoi(v.c_str());
    else if (Flag(a, "--seconds", &v)) args->seconds = std::atof(v.c_str());
    else if (Flag(a, "--min-steps", &v)) args->min_steps = std::atoi(v.c_str());
    else if (Flag(a, "--trace", &v)) args->trace = v == "1";
    else {
      std::fprintf(stderr, "perfbench_worker: unknown argument: %s\n", a);
      return false;
    }
  }
  if (args->out.empty() || args->warmup < 1 || args->min_steps < 1 ||
      (args->phase != "setup" && args->phase != "train") ||
      (args->backend != "sim" && args->backend != "tcp")) {
    std::fprintf(stderr, "perfbench_worker: bad or missing arguments\n");
    return false;
  }
  return true;
}

// ---- spans -----------------------------------------------------------------

/// In-memory span log: name, start, end, parent span and step id. Spans
/// nest through an open-span stack; a rank's layers and collectives all run
/// on its one training thread (the TCP backend completes collectives in
/// the calling thread), so no locking is needed. Disabled, it records
/// nothing and reads no clock.
class Tracer {
 public:
  struct Span {
    const char* name;
    int step;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
    int64_t bytes;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_step(int step) { step_ = step; }

  int Begin(const char* name, int64_t bytes = 0) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, step_, parent, NowNs(), 0, bytes});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int step_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t bytes = 0)
      : tracer_(tracer), index_(tracer->Begin(name, bytes)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// One collective as a span carrying its payload bytes: entry, the call,
/// exit.
template <typename Call>
auto TimedCall(Tracer* tracer, const char* name, size_t bytes, Call call) {
  ScopedSpan span(tracer, name, static_cast<int64_t>(bytes));
  return call();
}

/// Timing ProcessGroup decorator (traced runs only): forwards every
/// virtual method to the real group and stamps each collective's entry and
/// exit as a span carrying its payload bytes. The TCP backend runs a
/// collective to completion inside the call, so exit is completion.
class TimedProcessGroup : public comm::ProcessGroup {
 public:
  TimedProcessGroup(std::shared_ptr<comm::ProcessGroup> inner, Tracer* tracer)
      : ProcessGroup(inner->rank(), inner->world()),
        inner_(std::move(inner)),
        tracer_(tracer) {}

  comm::WorkHandle AllReduce(Tensor tensor, comm::ReduceOp op) override {
    return TimedCall(tracer_, "comm.all_reduce", tensor.nbytes(), [&] {
      return inner_->AllReduce(std::move(tensor), op);
    });
  }
  comm::WorkHandle Broadcast(Tensor tensor, int root) override {
    return TimedCall(tracer_, "comm.broadcast", tensor.nbytes(), [&] {
      return inner_->Broadcast(std::move(tensor), root);
    });
  }
  comm::WorkHandle AllGather(const Tensor& input, Tensor output) override {
    return TimedCall(tracer_, "comm.all_gather", input.nbytes(), [&] {
      return inner_->AllGather(input, std::move(output));
    });
  }
  comm::WorkHandle Reduce(Tensor tensor, int root,
                          comm::ReduceOp op) override {
    return TimedCall(tracer_, "comm.reduce", tensor.nbytes(), [&] {
      return inner_->Reduce(std::move(tensor), root, op);
    });
  }
  comm::WorkHandle ReduceScatter(const Tensor& input, Tensor output,
                                 comm::ReduceOp op) override {
    return TimedCall(tracer_, "comm.reduce_scatter", input.nbytes(), [&] {
      return inner_->ReduceScatter(input, std::move(output), op);
    });
  }
  comm::WorkHandle Gather(const Tensor& input, Tensor output,
                          int root) override {
    return TimedCall(tracer_, "comm.gather", input.nbytes(), [&] {
      return inner_->Gather(input, std::move(output), root);
    });
  }
  void Barrier() override {
    TimedCall(tracer_, "comm.barrier", 0, [&] { inner_->Barrier(); });
  }

  sim::VirtualClock* clock() override { return inner_->clock(); }
  comm::Store* store() override { return inner_->store(); }
  std::string backend_name() const override { return inner_->backend_name(); }
  uint64_t generation() const override { return inner_->generation(); }
  uint64_t superseded_by() const override { return inner_->superseded_by(); }
  void AbortGroup(uint64_t new_generation,
                  const std::string& reason) override {
    inner_->AbortGroup(new_generation, reason);
  }

 private:
  std::shared_ptr<comm::ProcessGroup> inner_;
  Tracer* tracer_;
};

// ---- per-rank result -------------------------------------------------------

struct Stamp {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct RankResult {
  int rank = 0;
  int64_t t_main_ns = 0;
  int64_t t_ready_ns = 0;
  Stamp comm_setup, data_init, nn_init, ddp_init;
  int warmup_steps = 0;
  int timed_steps = 0;
  int64_t window_ns = 0;
  std::vector<int64_t> step_begin_ns;  // timed steps only
  std::vector<int64_t> step_ns;
  std::vector<double> losses;       // every step, warm-up included
  std::vector<int64_t> copy_in_ns;  // traced: Reducer telemetry, per step
  std::vector<int64_t> copy_out_ns;
  std::vector<int64_t> buckets;     // traced: Reducer stats delta, per step
  std::string digest;
  int64_t peak_rss_kb = 0;
  std::string error;
};

/// FNV-1a64 over every parameter's float bits, in parameter order.
std::string DigestParams(const nn::Module& model) {
  uint64_t hash = 1469598103934665603ull;
  for (const Tensor& p : model.parameters()) {
    const Tensor c = p.is_contiguous() ? p : p.Contiguous();
    const uint8_t* bytes = c.data<uint8_t>();
    for (size_t i = 0; i < c.nbytes(); ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

template <typename T>
void AppendArray(std::string* out, const char* key, const std::vector<T>& v) {
  *out += "\"";
  *out += key;
  *out += "\":[";
  char buf[48];
  for (size_t i = 0; i < v.size(); ++i) {
    if constexpr (std::is_floating_point_v<T>) {
      // JSON has no NaN/Inf; a huge finite value still fails the loss check.
      const double x = std::isfinite(v[i]) ? v[i] : 1e308;
      std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", x);
    } else {
      std::snprintf(buf, sizeof(buf), "%s%lld", i ? "," : "",
                    static_cast<long long>(v[i]));
    }
    *out += buf;
  }
  *out += "],";
}

bool WriteResult(const std::string& dir, const RankResult& r,
                 const Tracer& tracer) {
  std::string j = "{";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"rank\":%d,\"t_main_ns\":%lld,"
                "\"t_ready_ns\":%lld,\"warmup_steps\":%d,\"timed_steps\":%d,"
                "\"window_ns\":%lld,\"peak_rss_kb\":%lld,",
                r.rank, static_cast<long long>(r.t_main_ns),
                static_cast<long long>(r.t_ready_ns), r.warmup_steps,
                r.timed_steps, static_cast<long long>(r.window_ns),
                static_cast<long long>(r.peak_rss_kb));
  j += buf;
  const std::pair<const char*, Stamp> stamps[] = {{"comm_setup", r.comm_setup},
                                                  {"data_init", r.data_init},
                                                  {"nn_init", r.nn_init},
                                                  {"ddp_init", r.ddp_init}};
  j += "\"setup\":{";
  for (size_t i = 0; i < std::size(stamps); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":[%lld,%lld]", i ? "," : "",
                  stamps[i].first,
                  static_cast<long long>(stamps[i].second.start_ns),
                  static_cast<long long>(stamps[i].second.end_ns));
    j += buf;
  }
  j += "},";
  AppendArray(&j, "step_begin_ns", r.step_begin_ns);
  AppendArray(&j, "step_ns", r.step_ns);
  AppendArray(&j, "losses", r.losses);
  AppendArray(&j, "copy_in_ns", r.copy_in_ns);
  AppendArray(&j, "copy_out_ns", r.copy_out_ns);
  AppendArray(&j, "buckets", r.buckets);
  // Each span is [name, step, parent index, start_ns, end_ns, bytes].
  j += "\"spans\":[";
  const std::vector<Tracer::Span>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::snprintf(buf, sizeof(buf), "%s[\"%s\",%d,%d,%lld,%lld,%lld]",
                  i ? "," : "", s.name, s.step, s.parent,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  static_cast<long long>(s.bytes));
    j += buf;
  }
  j += "],\"digest\":\"" + r.digest + "\",\"error\":\"";
  for (char c : r.error) j += (c == '"' || c == '\\' || c < 0x20) ? '\'' : c;
  j += "\"}\n";

  const std::string path = dir + "/rank" + std::to_string(r.rank) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
  return std::fclose(f) == 0 && ok;
}

// ---- the rank body ---------------------------------------------------------

constexpr const char* kStepsKey = "perfbench/timed_steps";

/// Timed-step count: enough steps to fill `seconds` at the warm-up pace
/// (the first warm-up step is left out: it pays one-off allocations), and
/// never fewer than `min_steps`.
int TimedSteps(const Args& args, std::vector<int64_t> warm_ns) {
  if (args.seconds <= 0.0) return args.min_steps;
  if (warm_ns.size() > 1) warm_ns.erase(warm_ns.begin());
  std::sort(warm_ns.begin(), warm_ns.end());
  const double step_s =
      std::max(1e-6, static_cast<double>(warm_ns[warm_ns.size() / 2]) * 1e-9);
  const double n = std::min(std::ceil(args.seconds / step_s), 1e6);
  return std::max(args.min_steps, static_cast<int>(n));
}

/// The training loop proper: warm-up, then the timed closed loop. A failed
/// gradient sync ends it with `r->error` set.
void Train(const Args& args, const Workload& wl, int rank,
           core::DistributedDataParallel* ddp, nn::Module* model,
           const data::SyntheticMnist* images,
           const data::SyntheticTokens* tokens,
           const data::DistributedSampler& sampler, comm::Store* store,
           core::TelemetryLog* telemetry, Tracer* tracer, RankResult* r) {
  optim::Sgd opt(model->parameters(),
                 optim::Sgd::Options{.lr = kLr, .momentum = 0.9});
  nn::CrossEntropyLoss criterion;
  const size_t per_epoch = static_cast<size_t>(sampler.samples_per_rank());
  std::vector<int64_t> indices;
  size_t cursor = 0;
  std::vector<int64_t> warm_ns;
  int64_t window_start = 0;
  uint64_t launched_before = 0;
  r->warmup_steps = args.warmup;
  r->timed_steps = args.min_steps;  // planned at the end of warm-up

  // Every rank must run the same number of steps, so rank 0 plans the
  // window and publishes the plan through the Store.
  auto agree = [&](int planned) {
    if (rank == 0) {
      store->Set(kStepsKey, std::to_string(planned));
      return planned;
    }
    return std::atoi(store->Get(kStepsKey).c_str());
  };

  for (int k = 0; k < args.warmup + r->timed_steps; ++k) {
    const int step = k - args.warmup;  // negative while warming up
    tracer->set_step(step);
    const int64_t t_begin = NowNs();
    if (step == 0) window_start = t_begin;
    Tensor loss;
    bool synced = true;
    {
      ScopedSpan step_span(tracer, "step");
      data::Batch batch;
      {
        ScopedSpan s(tracer, "data.batch");
        std::vector<int64_t> ids;
        for (int b = 0; b < wl.batch; ++b, ++cursor) {
          if (cursor % per_epoch == 0) {
            indices = sampler.EpochIndices(
                static_cast<int64_t>(cursor / per_epoch));
          }
          ids.push_back(indices[cursor % per_epoch]);
        }
        batch = tokens != nullptr ? tokens->Get(ids) : images->Get(ids);
        if (wl.kind == ModelKind::kMlp) {
          batch.inputs =
              batch.inputs.Reshape({batch.inputs.size(0), 28 * 28});
        }
      }
      {
        ScopedSpan s(tracer, "nn.forward");
        loss = criterion(ddp->Forward(batch.inputs), batch.targets);
      }
      {
        ScopedSpan s(tracer, "autograd.backward");
        autograd::Backward(loss);
      }
      synced = ddp->sync_status().ok();
      if (synced) {
        ScopedSpan s(tracer, "optim.step");
        opt.Step();
        opt.ZeroGrad();
      }
    }
    const int64_t t_end = NowNs();
    r->losses.push_back(loss.Item());
    if (!synced) {
      // Fault-free by design: a failed sync ends the run (every later step
      // would train unsynchronized replicas).
      r->error = "step " + std::to_string(k) + ": " +
                 ddp->sync_status().ToString();
      return;
    }

    if (step < 0) {
      warm_ns.push_back(t_end - t_begin);
      if (step == -1) r->timed_steps = agree(TimedSteps(args, warm_ns));
      launched_before = ddp->reducer().stats().allreduces_launched;
      if (telemetry != nullptr) telemetry->Clear();
      continue;
    }
    r->step_begin_ns.push_back(t_begin);
    r->step_ns.push_back(t_end - t_begin);
    r->window_ns = t_end - window_start;
    if (tracer->enabled()) {
      const uint64_t launched = ddp->reducer().stats().allreduces_launched;
      r->buckets.push_back(static_cast<int64_t>(launched - launched_before));
      launched_before = launched;
      const std::vector<core::DDPTelemetry> frames = telemetry->snapshot();
      telemetry->Clear();
      const core::DDPTelemetry last =
          frames.empty() ? core::DDPTelemetry{} : frames.back();
      r->copy_in_ns.push_back(static_cast<int64_t>(last.copy_in_seconds * 1e9));
      r->copy_out_ns.push_back(
          static_cast<int64_t>(last.copy_out_seconds * 1e9));
    }
  }
}

/// One rank, start to end: process group (timed as comm setup), data,
/// model, DDP, then the training loop for the train phase. Always writes
/// the rank's result file; returns the process exit code.
template <typename MakeGroup>
int RunRank(const Args& args, const Workload& wl, int rank,
            MakeGroup make_group, RankResult* r) {
  r->rank = rank;
  Tracer tracer(args.trace);
  auto finish = [&]() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    r->peak_rss_kb = usage.ru_maxrss;
    if (!WriteResult(args.out, *r, tracer)) {
      std::fprintf(stderr, "perfbench_worker: cannot write to %s\n",
                   args.out.c_str());
      return 1;
    }
    return r->error.empty() ? 0 : 1;
  };

  r->comm_setup.start_ns = NowNs();
  std::shared_ptr<comm::ProcessGroup> group = make_group();
  r->comm_setup.end_ns = NowNs();
  if (group == nullptr) {
    r->error = "process group setup failed";
    return finish();
  }

  r->data_init.start_ns = NowNs();
  std::unique_ptr<data::SyntheticMnist> images;
  std::unique_ptr<data::SyntheticTokens> tokens;
  if (wl.kind == ModelKind::kTransformer) {
    tokens = std::make_unique<data::SyntheticTokens>(
        kDatasetSize, kSeqLen, kVocab, kClasses, args.seed);
  } else {
    images =
        std::make_unique<data::SyntheticMnist>(kDatasetSize, args.seed, 0.6);
  }
  const data::DistributedSampler sampler(kDatasetSize, wl.world, rank,
                                         args.seed + 7);
  r->data_init.end_ns = NowNs();

  r->nn_init.start_ns = NowNs();
  Rng rng(args.seed + 100);
  std::shared_ptr<nn::Module> model = MakeModel(wl.kind, &rng);
  r->nn_init.end_ns = NowNs();

  core::DdpOptions ddp_options;
  ddp_options.bucket_cap_bytes = wl.bucket_cap_bytes;
  std::shared_ptr<core::TelemetryLog> telemetry;
  comm::Store* store = group->store();
  if (tracer.enabled()) {
    telemetry = std::make_shared<core::TelemetryLog>();
    ddp_options.telemetry = telemetry;
    group = std::make_shared<TimedProcessGroup>(group, &tracer);
  }
  r->ddp_init.start_ns = NowNs();
  core::DistributedDataParallel ddp(model, group, ddp_options);
  r->ddp_init.end_ns = NowNs();
  r->t_ready_ns = NowNs();
  if (!ddp.sync_status().ok()) {
    r->error = "DDP construction: " + ddp.sync_status().ToString();
    return finish();
  }
  if (args.phase == "train") {
    Train(args, wl, rank, &ddp, model.get(), images.get(), tokens.get(),
          sampler, store, telemetry.get(), &tracer, r);
    r->digest = DigestParams(*model);
  }
  return finish();
}

int RunTcp(const Args& args, const Workload& wl, int64_t t_main_ns) {
  Result<comm::LaunchEnv> env = comm::ReadLaunchEnv();
  if (!env.ok()) {
    std::fprintf(stderr, "perfbench_worker: %s\n",
                 env.status().message().c_str());
    return 2;
  }
  if (env.value().world != wl.world) {
    std::fprintf(stderr, "perfbench_worker: %s needs %d ranks, launched %d\n",
                 wl.name, wl.world, env.value().world);
    return 2;
  }
  sim::VirtualClock clock;
  std::unique_ptr<comm::StoreClientTcp> store;
  RankResult result;
  result.t_main_ns = t_main_ns;
  return RunRank(args, wl, env.value().rank, [&]() {
    store = std::make_unique<comm::StoreClientTcp>(env.value().store_host,
                                                   env.value().store_port);
    comm::BackendConfig config;
    config.backend = "tcp";
    Result<std::shared_ptr<comm::ProcessGroup>> group =
        comm::CreateProcessGroupBackend(config, store.get(), "perfbench",
                                        env.value().rank, wl.world, &clock);
    if (!group.ok()) {
      std::fprintf(stderr, "perfbench_worker: %s\n",
                   group.status().message().c_str());
      return std::shared_ptr<comm::ProcessGroup>();
    }
    return group.value();
  }, &result);
}

/// Every rank as a thread of this process over ProcessGroupSim (the
/// reference the TCP digests must match bit for bit).
int RunSim(const Args& args, const Workload& wl, int64_t t_main_ns) {
  std::atomic<int> failures{0};
  comm::SimWorldOptions options;
  options.seed = args.seed;
  comm::SimWorld::Run(wl.world, options, [&](comm::SimWorld::RankContext& ctx) {
    RankResult result;
    result.t_main_ns = t_main_ns;
    if (RunRank(args, wl, ctx.rank, [&]() { return ctx.process_group; },
                &result) != 0) {
      failures.fetch_add(1);
    }
  });
  return failures.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t t_main_ns = NowNs();
  if (argc == 2 && std::strcmp(argv[1], "--describe") == 0) {
    std::printf("{");
    for (size_t i = 0; i < std::size(kWorkloads); ++i) {
      std::printf("%s\"%s\":{\"world\":%d,\"batch\":%d}", i ? "," : "",
                  kWorkloads[i].name, kWorkloads[i].world,
                  kWorkloads[i].batch);
    }
    std::printf("}\n");
    return 0;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const Workload* wl = FindWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench_worker: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  return args.backend == "sim" ? RunSim(args, *wl, t_main_ns)
                               : RunTcp(args, *wl, t_main_ns);
}
