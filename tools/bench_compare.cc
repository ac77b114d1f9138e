// bench_compare: the CI regression gate over bench JSON reports.
//
//   bench_compare <baseline.json> <candidate.json>
//                 [--threshold=1.15] [--waivers=<file>]
//   bench_compare --selftest
//
// Compares the per-cell modeled latencies in the candidate's "zoo_sweep"
// section (written by bench_fig2_allreduce) against a committed baseline
// (bench/baselines/BENCH_fig2_allreduce.json). A cell is identified as
// <algorithm>/w<world>/b<bytes> and fails the gate when
//
//   candidate_ns > baseline_ns * threshold     (default threshold 1.15)
//
// or when a baseline cell is missing from the candidate (coverage loss is
// a regression too). New candidate cells are reported but never fail —
// growing the sweep must not require touching the baseline first.
//
// Waivers mirror ddplint's contract — explicit, with a reason, reviewed
// like any code. One per line in the --waivers file:
//
//   allow(<cell-id>) <reason>
//
// Blank lines and lines starting with '#' are ignored. A waiver without a
// reason is itself an error: the gate refuses to run rather than let an
// unexplained regression through. Waived cells are reported as waived so
// the regression stays visible in the CI log.
//
// A malformed report, a world or bytes that is not an exact int64, or
// nesting past json::kMaxDepth is an error (exit 1), never a crash.
//
// The numbers gated here come from the analytical cost models, not wall
// clocks, so they are bit-deterministic across machines: any drift is a
// genuine model change, and the 15% headroom exists only so deliberate
// parameter retunes inside the noise band don't force a baseline refresh.

#include <cctype>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "tool_util.h"

namespace ddpkit::tools {
namespace {

// ---------------------------------------------------------------------------
// Report model: cell-id -> modeled ns, extracted from "zoo_sweep".
// ---------------------------------------------------------------------------

bool ExtractCells(const std::string& json_text, const std::string& label,
                  std::map<std::string, double>* cells, std::string* error) {
  const Result<json::Value> root = json::Parse(json_text);
  if (!root.ok()) {
    *error = label + ": " + root.status().message();
    return false;
  }
  const json::Value& sweep = root.value()["zoo_sweep"];
  if (sweep.kind() != json::Value::Kind::kArray) {
    *error = label + ": no \"zoo_sweep\" array in report";
    return false;
  }
  for (const json::Value& row : sweep.items()) {
    const json::Value& algo = row["algorithm"];
    const Result<int64_t> world = row["world"].AsInt();
    const Result<int64_t> bytes = row["bytes"].AsInt();
    if (algo.kind() != json::Value::Kind::kString || !world.ok() ||
        !bytes.ok() || !row["ns"].is_number()) {
      *error = label + ": zoo_sweep row needs algorithm, integer world and " +
               "bytes, and ns: " + json::Serialize(row);
      return false;
    }
    const std::string id = algo.str() + "/w" + std::to_string(world.value()) +
                           "/b" + std::to_string(bytes.value());
    (*cells)[id] = row["ns"].number();
  }
  if (cells->empty()) {
    *error = label + ": zoo_sweep is empty";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Waivers: allow(<cell-id>) <reason>, one per line, reason mandatory.
// ---------------------------------------------------------------------------

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool ParseWaivers(const std::string& text,
                  std::map<std::string, std::string>* waivers,
                  std::string* error) {
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const std::string marker = "allow(";
    if (line.rfind(marker, 0) != 0) {
      *error = "waivers line " + std::to_string(lineno) +
               ": expected allow(<cell-id>) <reason>";
      return false;
    }
    const size_t close = line.find(')', marker.size());
    if (close == std::string::npos) {
      *error = "waivers line " + std::to_string(lineno) + ": missing ')'";
      return false;
    }
    const std::string id = line.substr(marker.size(), close - marker.size());
    const std::string reason = Trim(line.substr(close + 1));
    if (id.empty() || reason.empty()) {
      *error = "waivers line " + std::to_string(lineno) +
               ": a waiver needs both a cell id and a reason";
      return false;
    }
    (*waivers)[id] = reason;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The comparison proper. Pure over strings so the selftest can drive it
// with embedded documents.
// ---------------------------------------------------------------------------

struct CompareResult {
  bool ok = false;          // gate verdict
  std::string error;        // non-empty => inputs were unusable
  int compared = 0;
  int regressions = 0;      // unwaived, over threshold
  int waived = 0;
  int missing = 0;          // baseline cells absent from candidate
  int added = 0;            // candidate cells absent from baseline
  std::vector<std::string> lines;  // human report
};

CompareResult CompareReports(const std::string& baseline_json,
                             const std::string& candidate_json,
                             double threshold,
                             const std::string& waivers_text) {
  CompareResult result;
  std::map<std::string, double> baseline;
  std::map<std::string, double> candidate;
  std::map<std::string, std::string> waivers;
  if (!ExtractCells(baseline_json, "baseline", &baseline, &result.error) ||
      !ExtractCells(candidate_json, "candidate", &candidate, &result.error) ||
      !ParseWaivers(waivers_text, &waivers, &result.error)) {
    return result;
  }

  for (const auto& [id, base_ns] : baseline) {
    const auto it = candidate.find(id);
    if (it == candidate.end()) {
      ++result.missing;
      result.lines.push_back("MISSING  " + id +
                             " (in baseline, absent from candidate)");
      continue;
    }
    ++result.compared;
    const double cand_ns = it->second;
    const double ratio = base_ns > 0.0 ? cand_ns / base_ns : 1.0;
    if (ratio <= threshold) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3fx (limit %.2fx)", ratio, threshold);
    const auto waiver = waivers.find(id);
    if (waiver != waivers.end()) {
      ++result.waived;
      result.lines.push_back("WAIVED   " + id + " " + buf + " — " +
                             waiver->second);
    } else {
      ++result.regressions;
      result.lines.push_back("REGRESS  " + id + " " + buf);
    }
  }
  for (const auto& [id, ns] : candidate) {
    if (baseline.find(id) == baseline.end()) {
      ++result.added;
      result.lines.push_back("NEW      " + id + " (not gated yet)");
    }
  }
  result.ok = result.regressions == 0 && result.missing == 0;
  return result;
}

int RunCompare(const ToolArgs& args) {
  // Baseline, candidate and the optional waivers file.
  const std::string paths[] = {args.positional[0], args.positional[1],
                               args.FlagValue("waivers")};
  std::string texts[3];
  for (int i = 0; i < 3; ++i) {
    if (paths[i].empty()) continue;
    Result<std::string> text = json::ReadFile(paths[i]);
    if (!text.ok()) {
      std::fprintf(stderr, "bench_compare: %s\n",
                   text.status().message().c_str());
      return 1;
    }
    texts[i] = std::move(text).value();
  }
  const double threshold = std::stod(args.FlagValue("threshold", "1.15"));

  const CompareResult result =
      CompareReports(texts[0], texts[1], threshold, texts[2]);
  if (!result.error.empty()) {
    std::fprintf(stderr, "bench_compare: %s\n", result.error.c_str());
    return 1;
  }
  for (const std::string& line : result.lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf(
      "bench_compare: %d cells compared, %d regressions, %d waived, "
      "%d missing, %d new — %s\n",
      result.compared, result.regressions, result.waived, result.missing,
      result.added, result.ok ? "OK" : "FAIL");
  return result.ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Selftest: embedded documents through the same comparison path.
// ---------------------------------------------------------------------------

std::string Report(json::Array rows) {
  return json::Serialize(json::Object{{"bench", "fig2_allreduce"},
                                      {"zoo_sweep", std::move(rows)}});
}

json::Value Cell(const std::string& algo, int world, long bytes, double ns) {
  return json::Object{{"algorithm", algo}, {"resolved", algo},
                      {"world", world},    {"bytes", bytes},
                      {"ns", ns},          {"gbps", 1.0}};
}

int RunSelftest(const ToolArgs&) {
  const std::string base = Report(
      {Cell("ring", 8, 1048576, 1000.0), Cell("auto", 8, 1048576, 600.0)});
  // The ring cell 30% slower than in `base`.
  const std::string slow = Report(
      {Cell("ring", 8, 1048576, 1300.0), Cell("auto", 8, 1048576, 600.0)});
  int failed = 0;
  const auto check = [&failed](const char* name, bool ok) {
    std::printf("  %-44s %s\n", name, ok ? "ok" : "FAILED");
    if (!ok) ++failed;
  };

  {
    const CompareResult r = CompareReports(base, base, 1.15, "");
    check("identical reports pass", r.ok && r.compared == 2 &&
                                        r.regressions == 0 && r.error.empty());
  }
  {
    const CompareResult r = CompareReports(base, slow, 1.15, "");
    check("30% regression fails", !r.ok && r.regressions == 1);
  }
  {
    const std::string cand = Report(
        {Cell("ring", 8, 1048576, 1100.0), Cell("auto", 8, 1048576, 600.0)});
    const CompareResult r = CompareReports(base, cand, 1.15, "");
    check("10% drift stays inside headroom", r.ok && r.regressions == 0);
    const CompareResult tight = CompareReports(base, cand, 1.05, "");
    check("--threshold tightens the gate", !tight.ok &&
                                               tight.regressions == 1);
  }
  {
    const CompareResult r = CompareReports(
        base, slow, 1.15,
        "# retuned latency constants for the v2 NIC model\n"
        "allow(ring/w8/b1048576) deliberate retune, see DESIGN.md §10\n");
    check("waiver with reason passes", r.ok && r.waived == 1 &&
                                           r.regressions == 0);
  }
  {
    const CompareResult r =
        CompareReports(base, slow, 1.15, "allow(ring/w8/b1048576)\n");
    check("waiver without reason is rejected", !r.ok && !r.error.empty());
  }
  {
    const std::string cand = Report({Cell("auto", 8, 1048576, 600.0)});
    const CompareResult r = CompareReports(base, cand, 1.15, "");
    check("missing baseline cell fails", !r.ok && r.missing == 1);
  }
  {
    const std::string cand = Report({Cell("ring", 8, 1048576, 1000.0),
                                     Cell("auto", 8, 1048576, 600.0),
                                     Cell("hierarchical", 32, 1048576, 400.0)});
    const CompareResult r = CompareReports(base, cand, 1.15, "");
    check("new candidate cells never fail", r.ok && r.added == 1);
  }
  {
    const std::string cand = Report(
        {Cell("ring", 8, 1048576, 500.0), Cell("auto", 8, 1048576, 300.0)});
    const CompareResult r = CompareReports(base, cand, 1.15, "");
    check("improvements pass without a baseline refresh", r.ok);
  }
  {
    const CompareResult r = CompareReports("{not json", base, 1.15, "");
    check("malformed baseline is an error", !r.ok && !r.error.empty());
  }
  {
    const CompareResult r =
        CompareReports("{\"zoo_sweep\":[]}", base, 1.15, "");
    check("empty sweep is an error", !r.ok && !r.error.empty());
  }
  {
    // Hostile candidates: each must be a typed error, never a crash and
    // never a nearby valid number.
    const auto rejected = [&base](const std::string& cand) {
      const CompareResult r = CompareReports(base, cand, 1.15, "");
      return !r.ok && !r.error.empty();
    };
    const std::string row =
        "{\"zoo_sweep\":[{\"algorithm\":\"ring\",\"bytes\":1048576,";
    check("malformed number is an error",
          rejected(row + "\"world\":8,\"ns\":1-2}]}"));
    check("world of 1e300 is an error",
          rejected(row + "\"world\":1e300,\"ns\":1000}]}"));
    check("nesting past the cap is an error",
          rejected("{\"zoo_sweep\":" + std::string(1000000, '[')));
  }

  std::printf("bench_compare selftest: %d failed\n", failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ddpkit::tools

int main(int argc, char** argv) {
  using namespace ddpkit::tools;  // NOLINT
  ToolSpec spec;
  spec.usage = {
      "<baseline.json> <candidate.json> [--threshold=1.15] "
      "[--waivers=<file>]",
      "--selftest",
  };
  spec.min_positional = 2;
  spec.max_positional = 2;
  spec.run = RunCompare;
  spec.selftest = RunSelftest;
  return RunTool(argc, argv, spec);
}
