// Table 1: taxonomy of distributed training solutions along three axes —
// Synchronous vs Asynchronous update, Cross- vs Intra-iteration
// parallelism, and Data vs Model parallelism — as catalogued in the
// paper's related-work section.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"

namespace {

struct Solution {
  const char* name;
  bool synchronous;
  bool asynchronous;
  bool cross_iteration;
  bool intra_iteration;
  bool data_parallel;
  bool model_parallel;
};

// Rows exactly as marked in the paper's Table 1.
const std::vector<Solution> kSolutions = {
    {"PT DDP [9] (this library)", true, false, false, true, true, false},
    {"PT RPC [6]", true, true, true, true, false, true},
    {"TF MultiWorkerMirrored [10]", true, false, false, true, true, false},
    {"TF ParameterServer [11,27]", false, true, true, false, true, true},
    {"Mesh TensorFlow [36]", true, false, false, true, true, true},
    {"GPipe [21]", true, false, true, false, false, true},
    {"Horovod [35]", true, false, false, true, true, false},
    {"GradientFlow [37]", true, false, false, true, true, false},
    {"SlowMo [40]", false, true, true, false, true, false},
    {"PipeDream [29]", true, true, true, false, true, true},
    {"ZeRO [32]", true, false, false, true, true, true},
    {"Parallax [23]", true, true, false, true, true, true},
    {"ByteScheduler [31]", true, false, true, true, true, false},
    {"TicTac [19]", true, false, true, true, true, false},
    {"PACE [12]", true, false, false, true, true, false},
};

const char* Mark(bool value) { return value ? "x" : " "; }

}  // namespace

int main() {
  ddpkit::bench::Banner(
      "Table 1", "Distributed training solutions: S(ync) A(sync) "
                 "C(ross-iter) I(ntra-iter) D(ata-par) M(odel-par)");
  std::printf("%-30s %2s %2s %2s %2s %2s %2s\n", "scheme", "S", "A", "C",
              "I", "D", "M");
  ddpkit::bench::JsonReport report("table1_taxonomy");
  ddpkit::json::Array rows;
  for (const auto& s : kSolutions) {
    std::printf("%-30s %2s %2s %2s %2s %2s %2s\n", s.name,
                Mark(s.synchronous), Mark(s.asynchronous),
                Mark(s.cross_iteration), Mark(s.intra_iteration),
                Mark(s.data_parallel), Mark(s.model_parallel));
    rows.emplace_back(
        ddpkit::json::Object{{"scheme", s.name},
                             {"synchronous", s.synchronous},
                             {"asynchronous", s.asynchronous},
                             {"cross_iteration", s.cross_iteration},
                             {"intra_iteration", s.intra_iteration},
                             {"data_parallel", s.data_parallel},
                             {"model_parallel", s.model_parallel}});
  }
  report.Add("solutions", std::move(rows));
  report.Write();
  std::printf("\nddpkit implements the PT DDP row: synchronous, "
              "intra-iteration, data-parallel.\n");
  return 0;
}
