#ifndef DDPKIT_BENCH_BENCH_JSON_H_
#define DDPKIT_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/json.h"

namespace ddpkit::bench {

/// Machine-readable companion to the human-readable bench output: each
/// bench binary assembles one JSON object, {"bench":<name>} followed by its
/// fields in Add order, and writes it to BENCH_<name>.json, so CI can
/// archive the numbers and plots can be regenerated without scraping
/// stdout.
///
/// Destination, first match wins:
///   1. $DDPKIT_BENCH_JSON_PATH          (exact file path)
///   2. $DDPKIT_BENCH_JSON_DIR/BENCH_<name>.json
///   3. ./BENCH_<name>.json
class JsonReport {
 public:
  explicit JsonReport(std::string name)
      : name_(name), fields_{{"bench", std::move(name)}} {}

  void Add(std::string key, json::Value value) {
    fields_.emplace_back(std::move(key), std::move(value));
  }

  std::string OutputPath() const {
    if (const char* path = std::getenv("DDPKIT_BENCH_JSON_PATH")) return path;
    const std::string file = "BENCH_" + name_ + ".json";
    if (const char* dir = std::getenv("DDPKIT_BENCH_JSON_DIR")) {
      return std::string(dir) + "/" + file;
    }
    return file;
  }

  /// Writes the report; prints the destination (or the failure) to stdout
  /// so bench logs record where the numbers went. Returns false on I/O
  /// failure — benches treat that as a warning, not an abort.
  bool Write() const {
    const std::string path = OutputPath();
    const std::string text = json::Serialize(fields_);
    const Status written = json::WriteFile(path, text);
    if (!written.ok()) {
      std::printf("[bench_json] %s\n", written.message().c_str());
      return false;
    }
    std::printf("[bench_json] wrote %s (%zu bytes)\n", path.c_str(),
                text.size());
    return true;
  }

 private:
  std::string name_;
  json::Object fields_;
};

}  // namespace ddpkit::bench

#endif  // DDPKIT_BENCH_BENCH_JSON_H_
