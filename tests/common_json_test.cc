#include "common/json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>

#include "bench/bench_json.h"
#include "common/metrics.h"
#include "core/telemetry.h"
#include "core/trace.h"

namespace ddpkit {
namespace {

using Kind = json::Value::Kind;

json::Value ParseOk(const std::string& text) {
  Result<json::Value> parsed = json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
  return parsed.ok() ? std::move(parsed).value() : json::Value();
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json::Serialize("a\"b\\c\nd\te\rf"), "\"a\\\"b\\\\c\\nd\\te\\rf\"");
  EXPECT_EQ(json::Serialize(std::string("x\x01y\x1fz", 5)),
            "\"x\\u0001y\\u001fz\"");
}

TEST(JsonNumberTest, NonFiniteValuesFoldToZero) {
  EXPECT_EQ(json::Serialize(std::nan("")), "0");
  EXPECT_EQ(json::Serialize(INFINITY), "0");
  EXPECT_EQ(json::Serialize(-INFINITY), "0");
  EXPECT_EQ(json::Serialize(2.5), "2.5");
}

TEST(JsonSerializeTest, IntegersExactDoublesNineDigitsMembersInOrder) {
  // 2^53 + 1 has no double; an int64 must still print every digit.
  EXPECT_EQ(json::Serialize(int64_t{9007199254740993}), "9007199254740993");
  EXPECT_EQ(json::Serialize(std::numeric_limits<int64_t>::min()),
            "-9223372036854775808");
  EXPECT_EQ(json::Serialize(12345678.26), "12345678.3");
  EXPECT_EQ(json::Serialize(1e10), "1e+10");
  EXPECT_EQ(json::Serialize(json::Object{{"z", json::Value()},
                                         {"a", json::Array{true, 1, "s"}}}),
            "{\"z\":null,\"a\":[true,1,\"s\"]}");
}

TEST(JsonParseTest, KindsAndMemberOrder) {
  const json::Value v = ParseOk(
      " {\"i\":-12,\"d\":0.5,\"e\":1E3,\"s\":\"x\",\"b\":false,\"n\":null,"
      "\"a\":[{}]}\r\n");
  ASSERT_EQ(v.kind(), Kind::kObject);
  const char* keys[] = {"i", "d", "e", "s", "b", "n", "a"};
  const Kind kinds[] = {Kind::kInt,  Kind::kDouble, Kind::kDouble,
                        Kind::kString, Kind::kBool, Kind::kNull, Kind::kArray};
  ASSERT_EQ(v.members().size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(v.members()[i].first, keys[i]);
    EXPECT_EQ(v.members()[i].second.kind(), kinds[i]) << keys[i];
  }
  EXPECT_EQ(v["i"].AsInt().value(), -12);
  EXPECT_EQ(v["e"].number(), 1000.0);
  EXPECT_EQ(v["missing"].kind(), Kind::kNull);
  EXPECT_EQ(v["a"].items()[0].kind(), Kind::kObject);
}

TEST(JsonParseTest, RejectsMalformedNumbers) {
  // No valid prefix (the 1 of 1-2) may be accepted as the number.
  for (const char* text : {"1-2", "[1-2]", "{\"ns\":1-2}", "+1", "01", "1.",
                           ".5", "1e", "1e+", "-", "0x10", "NaN", "Infinity",
                           "1e400"}) {
    EXPECT_FALSE(json::Parse(text).ok()) << text;
  }
}

TEST(JsonParseTest, RejectsMalformedStructure) {
  for (const char* text :
       {"", "{", "[1,]", "[1 2]", "{\"a\"}", "{\"a\":1,}", "{1:2}", "tru", "nul",
        "\"abc", "[1]x", "\"a\nb\""}) {
    EXPECT_FALSE(json::Parse(text).ok()) << text;
  }
}

TEST(JsonParseTest, DecodesEscapesAndSurrogatePairsAsUtf8) {
  EXPECT_EQ(ParseOk("\"\\u0041\\r\\n\\t\\b\\f\\/\\\\\\\"\"").str(),
            "A\r\n\t\b\f/\\\"");
  EXPECT_EQ(ParseOk("\"\\u00e9\\u20AC\\ud83d\\ude00\"").str(),
            "\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
  for (const char* text : {"\"\\ud83d\"", "\"\\ude00\"", "\"\\ud83d\\u0041\"",
                           "\"\\u12g4\"", "\"\\u12\"", "\"\\x\""}) {
    EXPECT_FALSE(json::Parse(text).ok()) << text;
  }
}

TEST(JsonParseTest, NestingCapIsAnErrorNotACrash) {
  const int cap = json::kMaxDepth;
  EXPECT_TRUE(json::Parse(std::string(cap, '[') + std::string(cap, ']')).ok());
  EXPECT_FALSE(
      json::Parse(std::string(cap + 1, '[') + std::string(cap + 1, ']')).ok());
  EXPECT_FALSE(json::Parse("{\"traceEvents\":" + std::string(1000000, '['))
                   .ok());
}

TEST(JsonParseTest, AsIntRejectsFractionsAndOutOfRange) {
  EXPECT_EQ(ParseOk("1e3").AsInt().value(), 1000);
  EXPECT_EQ(ParseOk("-9223372036854775808").AsInt().value(),
            std::numeric_limits<int64_t>::min());
  for (const char* text : {"1e300", "-1e300", "1.5", "9223372036854775808",
                           "\"1\"", "null"}) {
    EXPECT_FALSE(ParseOk(text).AsInt().ok()) << text;
  }
}

TEST(JsonRoundTripTest, CommittedBaselinesReserializeByteForByte) {
  for (const char* name : {"BENCH_fig2_allreduce.json",
                           "BENCH_fig11_compression.json"}) {
    const Result<std::string> text = json::ReadFile(
        std::string(DDPKIT_SOURCE_DIR) + "/bench/baselines/" + name);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_EQ(json::Serialize(ParseOk(text.value())), text.value()) << name;
  }
}

TEST(JsonRoundTripTest, EveryWriterParsesWithExpectedKinds) {
  MetricsRegistry registry;
  registry.counter("c").Increment(3);
  registry.gauge("g").Set(0.25);
  registry.histogram("h").Record(1.5);
  const json::Value metrics = ParseOk(json::Serialize(registry.ToJson()));
  EXPECT_EQ(metrics["counters"]["c"].kind(), Kind::kInt);
  EXPECT_EQ(metrics["gauges"]["g"].kind(), Kind::kDouble);
  EXPECT_EQ(metrics["histograms"]["h"]["count"].kind(), Kind::kInt);

  core::TelemetryLog log;
  core::DDPTelemetry record;
  record.forward_seconds = 0.125;
  record.buckets.push_back(core::BucketTelemetry{0, 4096, 0.5, 0.75, 0.0});
  log.Append(record);
  const json::Value telemetry = ParseOk(json::Serialize(log.ToJson()));
  const json::Value& frame = telemetry["iterations"].items().at(0);
  EXPECT_EQ(frame["iteration"].kind(), Kind::kInt);
  EXPECT_EQ(frame["synced"].kind(), Kind::kBool);
  EXPECT_EQ(frame["forward_seconds"].kind(), Kind::kDouble);
  EXPECT_EQ(frame["buckets"].items().at(0)["bytes"].AsInt().value(), 4096);

  core::TraceRecorder trace;
  trace.AddSpan("grad \"0\"", "backward", 1, 12.345678, 12.345978);
  const json::Value chrome =
      ParseOk(json::Serialize(trace.ToChromeTraceJson()));
  const json::Value& span = chrome["traceEvents"].items().at(0);
  EXPECT_EQ(span["name"].str(), "grad \"0\"");
  EXPECT_EQ(span["tid"].AsInt().value(), 1);
  // Microsecond timestamps 12 s into a run keep every digit.
  EXPECT_EQ(span["ts"].number(), 12345678.0);
  EXPECT_EQ(span["dur"].number(), 300.0);

  const std::string path =
      std::string(::testing::TempDir()) + "/ddpkit_json_report_test.json";
  ASSERT_EQ(setenv("DDPKIT_BENCH_JSON_PATH", path.c_str(), 1), 0);
  bench::JsonReport report("json_test");
  report.Add("rows", json::Array{json::Object{{"world", 8}, {"ns", 1.5}}});
  ASSERT_TRUE(report.Write());
  unsetenv("DDPKIT_BENCH_JSON_PATH");
  const Result<std::string> written = json::ReadFile(path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  const json::Value parsed = ParseOk(written.value());
  EXPECT_EQ(parsed["bench"].str(), "json_test");
  EXPECT_EQ(parsed["rows"].items().at(0)["world"].kind(), Kind::kInt);
  std::remove(path.c_str());
}

TEST(JsonRoundTripTest, ExportWhileRankThreadsRecord) {
  // Exports read the registry and the trace under their locks while rank
  // threads keep recording; every export must still parse.
  MetricsRegistry registry;
  core::TraceRecorder trace;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      registry.counter("c" + std::to_string(i % 7)).Increment();
      registry.gauge("g").Set(i);
      registry.histogram("h").Record(i);
      trace.AddSpan("s", "comm", i % 3, i, i + 1);
    }
    done = true;
  });
  do {
    EXPECT_TRUE(json::Parse(json::Serialize(registry.ToJson())).ok());
    EXPECT_TRUE(json::Parse(json::Serialize(trace.ToChromeTraceJson())).ok());
  } while (!done.load());
  writer.join();
  EXPECT_EQ(ParseOk(json::Serialize(trace.ToChromeTraceJson()))["traceEvents"]
                .items()
                .size(),
            2000u);
}

TEST(JsonFileTest, MissingFileAndUnwritablePathAreErrors) {
  EXPECT_FALSE(json::ReadFile("/nonexistent/ddpkit.json").ok());
  EXPECT_FALSE(json::WriteFile("/nonexistent/dir/ddpkit.json", "{}").ok());
}

}  // namespace
}  // namespace ddpkit
