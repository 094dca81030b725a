// Unit tests for src/common: Status/Result, Rng, stats, flags, tables,
// memory probes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <type_traits>
#include <vector>

#include "common/flags.h"
#include "common/histogram.h"
#include "common/json.h"
#include "common/memory_info.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/timer.h"

namespace tirm {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, EveryCodeHasName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
}

TEST(StatusTest, CodeFromNameRoundTripsAndRejectsUnknown) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kIOError,
        StatusCode::kNotFound, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kInternal,
        StatusCode::kUnavailable, StatusCode::kDeadlineExceeded}) {
    EXPECT_EQ(StatusCodeFromName(StatusCodeName(code)), code);
  }
  // Unknown names must not decode to OK.
  EXPECT_EQ(StatusCodeFromName("NoSuchCode"), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = r.MoveValue();
  EXPECT_EQ(v.size(), 3u);
}

// Status and Result are declared [[nodiscard]] at class level, so EVERY
// function returning them warns on a discarded call — the compile-time
// contract behind TIRM_RETURN_NOT_OK. "Discarding fails the build" is not
// expressible as a static_assert (an attribute is not introspectable);
// the negative-compile harness (tests/thread_safety_compile_cases.cc,
// ctest targets thread_safety_nc_discard_*) asserts exactly that. What IS
// expressible statically is pinned here.
TEST(StatusContractTest, NodiscardContract) {
  static_assert(__has_cpp_attribute(nodiscard) >= 201603L,
                "[[nodiscard]] must be available: Status/Result rely on it");
  // Error information must never be lost by value semantics either: both
  // types stay copyable AND movable, so consuming a Status/Result is
  // always possible without casts.
  static_assert(std::is_copy_constructible_v<Status>);
  static_assert(std::is_move_constructible_v<Status>);
  static_assert(std::is_copy_constructible_v<Result<int>>);
  static_assert(std::is_move_constructible_v<Result<int>>);
  // The sanctioned explicit-discard spelling compiles (and is greppable).
  auto make = [] { return Status::InvalidArgument("discarded on purpose"); };
  (void)make();
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUInt64(), b.NextUInt64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUInt64() == b.NextUInt64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(rng.NextDouble());
  EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, UniformBelowInRangeAndCoversAll) {
  Rng rng(19);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.UniformBelow(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(23);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    std::uint64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(29);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.Add(rng.Exponential(30.0));
  EXPECT_NEAR(stat.mean(), 1.0 / 30.0, 0.0005);
}

TEST(RngTest, ExponentialNonNegative) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.Exponential(2.0), 0.0);
}

TEST(RngTest, NormalMoments) {
  Rng rng(37);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.Add(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(stat.mean(), 5.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(RngTest, ForkStreamsAreDecorrelated) {
  Rng base(41);
  Rng a = base.Fork(1);
  Rng b = base.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUInt64() == b.NextUInt64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng x(43);
  Rng y(43);
  Rng fx = x.Fork(9);
  Rng fy = y.Fork(9);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fx.NextUInt64(), fy.NextUInt64());
}

// ------------------------------------------------------------------ Stats

TEST(RunningStatTest, EmptyStat) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, KnownSequence) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, Ci95ShrinksWithSamples) {
  Rng rng(47);
  RunningStat small;
  RunningStat large;
  for (int i = 0; i < 100; ++i) small.Add(rng.NextDouble());
  for (int i = 0; i < 10000; ++i) large.Add(rng.NextDouble());
  EXPECT_LT(large.ci95_halfwidth(), small.ci95_halfwidth());
}

TEST(QuantileTest, MedianOfOddList) {
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(QuantileTest, Extremes) {
  std::vector<double> v = {5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 9.0);
}

TEST(QuantileTest, Interpolates) {
  EXPECT_DOUBLE_EQ(Quantile({0.0, 10.0}, 0.25), 2.5);
}

TEST(MeanTest, Basic) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

// ------------------------------------------------------------------ Flags

TEST(FlagsTest, ParsesKeyValue) {
  const char* argv[] = {"prog", "--scale=0.5", "--name=abc", "--verbose"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)).ok());
  Result<double> scale = flags.GetDoubleStrict("scale", 1.0);
  ASSERT_TRUE(scale.ok());
  EXPECT_DOUBLE_EQ(*scale, 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  Result<bool> verbose = flags.GetBoolStrict("verbose", false);
  ASSERT_TRUE(verbose.ok());
  EXPECT_TRUE(*verbose);
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags flags;
  Result<std::int64_t> n = flags.GetIntStrict("missing", 17);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 17);
  Result<double> x = flags.GetDoubleStrict("missing", 2.5);
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(*x, 2.5);
  Result<bool> b = flags.GetBoolStrict("missing", false);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(*b);
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
}

TEST(FlagsTest, RejectsMalformed) {
  const char* argv[] = {"prog", "scale=0.5"};
  Flags flags;
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, EnvFallback) {
  ::setenv("TIRM_TEST_FALLBACK_KNOB", "99", 1);
  Flags flags;
  Result<std::int64_t> knob = flags.GetIntStrict("test_fallback_knob", 1);
  ::unsetenv("TIRM_TEST_FALLBACK_KNOB");
  ASSERT_TRUE(knob.ok());
  EXPECT_EQ(*knob, 99);
}

TEST(FlagsTest, CommandLineBeatsEnv) {
  ::setenv("TIRM_PRIO", "1", 1);
  const char* argv[] = {"prog", "--prio=2"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  Result<std::int64_t> prio = flags.GetIntStrict("prio", 0);
  ::unsetenv("TIRM_PRIO");
  ASSERT_TRUE(prio.ok());
  EXPECT_EQ(*prio, 2);
}

TEST(FlagsTest, EnvNameMapping) {
  EXPECT_EQ(Flags::EnvName("eval-sims"), "TIRM_EVAL_SIMS");
  EXPECT_EQ(Flags::EnvName("scale"), "TIRM_SCALE");
}

TEST(FlagsTest, StrictGettersAcceptWellFormedValues) {
  const char* argv[] = {"prog", "--eps=0.25", "--threads=4", "--verbose=on"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)).ok());
  Result<double> eps = flags.GetDoubleStrict("eps", 0.1);
  ASSERT_TRUE(eps.ok());
  EXPECT_DOUBLE_EQ(*eps, 0.25);
  Result<std::int64_t> threads = flags.GetIntStrict("threads", 1);
  ASSERT_TRUE(threads.ok());
  EXPECT_EQ(*threads, 4);
  Result<bool> verbose = flags.GetBoolStrict("verbose", false);
  ASSERT_TRUE(verbose.ok());
  EXPECT_TRUE(*verbose);
}

TEST(FlagsTest, StrictGettersRejectMalformedValues) {
  const char* argv[] = {"prog", "--threads=abc", "--eps=0.1x", "--flag=maybe"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)).ok());
  // The error names the offending flag.
  Result<std::int64_t> threads = flags.GetIntStrict("threads", 3);
  ASSERT_FALSE(threads.ok());
  EXPECT_NE(threads.status().message().find("--threads"), std::string::npos);
  EXPECT_FALSE(flags.GetDoubleStrict("eps", 0.1).ok());
  EXPECT_FALSE(flags.GetBoolStrict("flag", false).ok());
}

TEST(FlagsTest, StrictGettersRejectTrailingJunk) {
  const char* argv[] = {"prog", "--eps=1e-2junk", "--n=12cats"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(3, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(flags.GetDoubleStrict("eps", 0.1).ok());
  EXPECT_FALSE(flags.GetIntStrict("n", 0).ok());
}

TEST(FlagsTest, StrictGettersRejectExplicitlyEmptyValues) {
  // `--eps=` is present-but-empty: strict getters must error, not default.
  const char* argv[] = {"prog", "--eps=", "--n=", "--b="};
  Flags flags;
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(flags.GetDoubleStrict("eps", 0.1).ok());
  EXPECT_FALSE(flags.GetIntStrict("n", 1).ok());
  EXPECT_FALSE(flags.GetBoolStrict("b", false).ok());
  // Same for an env var explicitly set to the empty string.
  ::setenv("TIRM_STRICT_EMPTY_KNOB", "", 1);
  EXPECT_FALSE(flags.GetIntStrict("strict_empty_knob", 1).ok());
  ::unsetenv("TIRM_STRICT_EMPTY_KNOB");
}

TEST(FlagsTest, StrictGettersRejectOverflow) {
  const char* argv[] = {"prog", "--n=99999999999999999999", "--x=1e99999"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(3, const_cast<char**>(argv)).ok());
  // strtoll/strtod clamp with errno=ERANGE; strict getters must error
  // instead of silently running with the clamped value.
  EXPECT_FALSE(flags.GetIntStrict("n", 0).ok());
  EXPECT_FALSE(flags.GetDoubleStrict("x", 0.0).ok());
}

TEST(FlagsTest, StrictDoubleAcceptsSubnormalUnderflow) {
  // strtod also flags underflow with ERANGE; tiny thresholds like 1e-320
  // are representable (subnormal) and must parse fine.
  const char* argv[] = {"prog", "--min_drop=1e-320"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  Result<double> v = flags.GetDoubleStrict("min_drop", 0.0);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_GT(*v, 0.0);
  EXPECT_LT(*v, 1e-300);
}

TEST(FlagsTest, StrictGettersRejectMalformedEnvValues) {
  ::setenv("TIRM_STRICT_ENV_KNOB", "not-a-number", 1);
  Flags flags;
  EXPECT_FALSE(flags.GetIntStrict("strict_env_knob", 1).ok());
  ::unsetenv("TIRM_STRICT_ENV_KNOB");
}

// ----------------------------------------------------------------- Tables

TEST(TablePrinterTest, AlignedTextAndCsv) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", TablePrinter::Num(1.5, 1)});
  t.AddRow({"b", TablePrinter::Int(42)});
  const std::string text = t.ToText();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("b,42"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"x"});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("x,,"), std::string::npos);
}

// ----------------------------------------------------------------- Memory

TEST(MemoryInfoTest, RssIsPositiveOnLinux) {
  EXPECT_GT(CurrentRssBytes(), 0u);
  EXPECT_GE(PeakRssBytes(), CurrentRssBytes() / 2);
}

TEST(MemoryInfoTest, HumanBytesFormatting) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.00 MB");
}

// ------------------------------------------------------------------ Timer

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0;
  // Plain assignment: compound assignment on a volatile lvalue is
  // deprecated in C++20 (-Wvolatile).
  for (int i = 0; i < 2000000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(t.Seconds(), 0.0);
  EXPECT_GT(sink, 0.0);
  const double before = t.Seconds();
  t.Reset();
  EXPECT_LE(t.Seconds(), before + 1.0);
}

// ------------------------------------------------------------------- JSON

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", "tirm");
  w.Field("count", 3);
  w.Key("values");
  w.BeginArray();
  w.Double(0.5);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"tirm\",\"count\":3,"
            "\"values\":[0.5,true,null],\"nested\":{}}");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.String("a\"b\\c\nd\te\x01");
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriterTest, DoublesRoundTripExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 12345.6789, -2.5e17,
                         0.30000000000000004}) {
    const std::string text = JsonNumber(v);
    Result<JsonValue> parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->AsDouble().value(), v) << text;
  }
  EXPECT_EQ(JsonNumber(std::nan("")), "null");  // JSON has no NaN
}

TEST(JsonParserTest, ParsesNestedDocument) {
  Result<JsonValue> v = ParseJson(
      R"( {"a": [1, 2.5, -3e2], "b": {"c": "xéy", "d": false}} )");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ((*a)[0].AsInt().value(), 1);
  EXPECT_EQ((*a)[1].AsDouble().value(), 2.5);
  EXPECT_EQ((*a)[1].raw_number(), "2.5");
  EXPECT_EQ((*a)[2].AsDouble().value(), -300.0);
  const JsonValue* c = v->Find("b")->Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->AsString().value(), "x\xC3\xA9y");  // é -> UTF-8
  EXPECT_FALSE(v->Find("b")->Find("d")->AsBool().value());
}

TEST(JsonParserTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.",
        "\"unterminated", "{\"a\":1} trailing", "nan", "{\"a\":1,\"a\":2}",
        "\"bad \\u12 escape\"", "[1 2]", "{'a':1}"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
}

TEST(JsonParserTest, RejectsTooDeepNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonValueTest, AsIntRejectsOutOfRangeNumbers) {
  // A double -> int64 cast outside the target range is UB; the accessor
  // must reject instead (adversarial wire input like 1e300).
  for (const char* bad : {"1e300", "-1e300", "9223372036854775808",
                          "1.5"}) {
    Result<JsonValue> v = ParseJson(bad);
    ASSERT_TRUE(v.ok()) << bad;
    EXPECT_FALSE(v->AsInt().ok()) << bad;
  }
  EXPECT_EQ(ParseJson("-9223372036854775808")->AsInt().value(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(JsonValueTest, DumpRoundTrips) {
  const char* text =
      R"({"s":"a\nb","n":0.1,"i":-7,"b":true,"z":null,"arr":[1,[2]]})";
  Result<JsonValue> v = ParseJson(text);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Dump(), text);  // raw number tokens survive the round trip
}

TEST(FlagsTest, FromPairsDisablesEnvFallback) {
  setenv("TIRM_JSON_PROBE", "999", 1);
  const Flags no_env = Flags::FromPairs({{"eps", "0.5"}}, /*use_env=*/false);
  EXPECT_EQ(no_env.GetDoubleStrict("eps", 0.1).value(), 0.5);
  // The env var must NOT leak in when disabled...
  EXPECT_EQ(no_env.GetIntStrict("json_probe", 7).value(), 7);
  // ...and must when enabled.
  const Flags with_env = Flags::FromPairs({}, /*use_env=*/true);
  EXPECT_EQ(with_env.GetIntStrict("json_probe", 7).value(), 999);
  unsetenv("TIRM_JSON_PROBE");
}

// -------------------------------------------------------------- Histogram

TEST(LatencyHistogramTest, ExactStatsAndQuantileBounds) {
  LatencyHistogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // empty
  for (int i = 1; i <= 1000; ++i) h.Record(i * 1e-3);  // 1ms .. 1s
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  EXPECT_NEAR(h.mean(), 0.5005, 1e-9);
  // Log-bucketed quantiles carry ~4.4% relative error.
  EXPECT_NEAR(h.Quantile(0.50), 0.5, 0.5 * 0.06);
  EXPECT_NEAR(h.Quantile(0.95), 0.95, 0.95 * 0.06);
  EXPECT_NEAR(h.Quantile(0.99), 0.99, 0.99 * 0.06);
  // Quantiles never leave [min, max].
  EXPECT_GE(h.Quantile(0.0), h.min());
  EXPECT_LE(h.Quantile(1.0), h.max());
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, combined;
  for (int i = 1; i <= 50; ++i) {
    a.Record(i * 1e-4);
    combined.Record(i * 1e-4);
  }
  for (int i = 1; i <= 50; ++i) {
    b.Record(i * 1e-2);
    combined.Record(i * 1e-2);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), combined.Quantile(q));
  }
}

TEST(LatencyHistogramTest, OutOfRangeObservationsClamp) {
  LatencyHistogram h;
  h.Record(-1.0);     // clamps to 0
  h.Record(0.0);      // below resolution floor
  h.Record(1e9);      // beyond the top octave
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 1e9);
  EXPECT_LE(h.Quantile(0.5), 1e9);
}

}  // namespace
}  // namespace tirm
