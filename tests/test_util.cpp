// Unit tests for the util substrate: RNG, CSV, CLI, logging, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace mdo {
namespace {

// ------------------------------------------------------------------ RNG ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DiscardMatchesSkippedDraws) {
  for (const std::uint64_t skip : {0u, 1u, 2u, 63u, 1000u}) {
    Rng drawn(99), skipped(99);
    for (std::uint64_t i = 0; i < skip; ++i) (void)drawn();
    skipped.discard(skip);
    EXPECT_EQ(skipped.state().words, drawn.state().words) << "skip=" << skip;
    EXPECT_EQ(skipped(), drawn()) << "skip=" << skip;
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(1.0, 0.0), InvalidArgument);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  bool seen_lo = false, seen_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen_lo |= (v == 2);
    seen_hi |= (v == 5);
  }
  EXPECT_TRUE(seen_lo);
  EXPECT_TRUE(seen_hi);
}

TEST(Rng, UniformMeanApproximatelyCentered) {
  Rng rng(3);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMeanAndVariance) {
  Rng rng(5);
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(5);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.02);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(5);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(5);
  const int n = 5000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(200.0));
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, CategoricalProportions) {
  Rng rng(9);
  std::vector<double> w{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / double(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / double(n), 0.6, 0.02);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(9);
  EXPECT_THROW(rng.categorical({}), InvalidArgument);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(rng.categorical({1.0, -2.0}), InvalidArgument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.fork();
  // The child should not replay the parent's stream.
  Rng b(21);
  (void)b();  // consume the fork draw
  int same = 0;
  for (int i = 0; i < 32; ++i) same += (child() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// ------------------------------------------------------------------ CSV ----

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("he said \"hi\""), "\"he said \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.header({"x", "y"});
  csv.row({std::int64_t{1}, 2.5});
  csv.row({std::string("a,b"), 3.0});
  EXPECT_EQ(csv.rows_written(), 2u);
  const std::string out = os.str();
  EXPECT_NE(out.find("x,y\n"), std::string::npos);
  EXPECT_NE(out.find("1,2.5"), std::string::npos);
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
}

TEST(Csv, DoublesRoundTripBitExact) {
  // write_cell emits the shortest string that parses back to the exact
  // double (std::to_chars). The old fixed setprecision(12) lost the low
  // bits of most values — 1/3 and 0.1 round-tripped to different doubles.
  const double values[] = {1.0 / 3.0,
                           0.1,
                           2.0 / 7.0,
                           1e-300,
                           6.02214076e23,
                           -123456789.123456789,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min()};
  for (const double value : values) {
    std::ostringstream os;
    CsvWriter csv(os);
    csv.header({"v"});
    csv.row({value});
    const std::string text = os.str();
    std::string cell = text.substr(text.find('\n') + 1);
    ASSERT_FALSE(cell.empty());
    ASSERT_EQ(cell.back(), '\n');
    cell.pop_back();
    char* end = nullptr;
    const double parsed = std::strtod(cell.c_str(), &end);
    EXPECT_EQ(end, cell.c_str() + cell.size()) << "cell: " << cell;
    EXPECT_EQ(parsed, value) << "cell: " << cell;
  }
}

TEST(Csv, LeavesStreamFormattingStateUntouched) {
  // Regression: write_cell used to set setprecision(12) on the caller's
  // stream and never restore it, silently changing how everything written
  // after the CSV block was formatted.
  std::ostringstream os;
  os << std::setprecision(4) << std::fixed;
  const auto flags_before = os.flags();
  const auto precision_before = os.precision();
  CsvWriter csv(os);
  csv.header({"x", "y"});
  csv.row({1.0 / 3.0, std::int64_t{7}});
  EXPECT_EQ(os.flags(), flags_before);
  EXPECT_EQ(os.precision(), precision_before);
  os << 3.14159265358979;
  const std::string out = os.str();
  EXPECT_NE(out.find("3.1416"), std::string::npos);  // still fixed, 4 digits
  EXPECT_EQ(out.find("3.14159265"), std::string::npos);
}

TEST(Csv, RejectsMismatchedRowWidth) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.header({"a", "b"});
  EXPECT_THROW(csv.row({std::int64_t{1}}), InvalidArgument);
}

TEST(Csv, RejectsDuplicateHeader) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.header({"a"});
  EXPECT_THROW(csv.header({"b"}), InvalidArgument);
}

// ------------------------------------------------------------------ CLI ----

TEST(Cli, ParsesSeparateAndEqualsForms) {
  const char* argv[] = {"prog", "--alpha", "2", "--beta=3.5", "--flag"};
  CliFlags flags(5, argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 2);
  EXPECT_DOUBLE_EQ(flags.get_double("beta", 0.0), 3.5);
  EXPECT_TRUE(flags.get_bool("flag", false));
}

TEST(Cli, ReturnsDefaults) {
  const char* argv[] = {"prog"};
  CliFlags flags(1, argv);
  EXPECT_EQ(flags.get_int("missing", 42), 42);
  EXPECT_EQ(flags.get_string("missing", "d"), "d");
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Cli, RejectsNonFlagTokens) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(CliFlags(2, argv), InvalidArgument);
}

TEST(Cli, RejectsBadTypes) {
  const char* argv[] = {"prog", "--n", "abc"};
  CliFlags flags(3, argv);
  EXPECT_THROW(flags.get_int("n", 0), InvalidArgument);
  EXPECT_THROW(flags.get_double("n", 0.0), InvalidArgument);
  EXPECT_THROW(flags.get_bool("n", false), InvalidArgument);
}

TEST(Cli, DetectsUnconsumedFlags) {
  const char* argv[] = {"prog", "--used", "1", "--typo", "2"};
  CliFlags flags(5, argv);
  EXPECT_EQ(flags.get_int("used", 0), 1);
  EXPECT_THROW(flags.require_all_consumed(), InvalidArgument);
  EXPECT_EQ(flags.get_int("typo", 0), 2);
  EXPECT_NO_THROW(flags.require_all_consumed());
}

// -------------------------------------------------------------- logging ----

TEST(Logging, ParsesLevels) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_THROW(parse_log_level("loud"), InvalidArgument);
}

TEST(Logging, LevelRoundTrips) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(saved);
}

// ---------------------------------------------------------------- table ----

TEST(Table, AlignsColumns) {
  TextTable table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"long-name", "2"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, RejectsWrongWidth) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::fmt(std::int64_t{42}), "42");
}

// ---------------------------------------------------------------- error ----

TEST(Error, CheckMacrosThrowTypedExceptions) {
  EXPECT_THROW(MDO_REQUIRE(false, "msg"), InvalidArgument);
  EXPECT_THROW(MDO_CHECK(false, "msg"), LogicError);
  EXPECT_NO_THROW(MDO_REQUIRE(true, "msg"));
  EXPECT_NO_THROW(MDO_CHECK(true, "msg"));
}

TEST(Error, HierarchyRootsAtError) {
  try {
    throw SolverError("numerical trouble");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("numerical"), std::string::npos);
  }
}

// ---- Stream-state serialization (checkpoint/resume support) ---------------

TEST(RngState, MidSequenceSaveRestoreResumesExactly) {
  Rng original(97);
  // Burn through a mix of distributions so the snapshot lands mid-stream.
  for (int i = 0; i < 50; ++i) {
    original.uniform();
    original.normal();
    original.poisson(3.0);
    original.uniform_int(0, 9);
  }
  const Rng::State snapshot = original.state();

  Rng restored(snapshot);       // construct at the saved position
  Rng assigned(1);              // overwrite a differently seeded stream
  assigned.set_state(snapshot);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t expected = original();
    EXPECT_EQ(restored(), expected);
    EXPECT_EQ(assigned(), expected);
  }
}

TEST(RngState, NormalDrawsCacheNoSpare) {
  // The four engine words are the complete stream state (a frozen
  // contract): restoring between two normal() draws must replay the tail
  // exactly, which would fail if Box–Muller cached a spare value.
  Rng original(11);
  original.normal();  // an "odd" number of normal draws
  const Rng::State snapshot = original.state();
  Rng restored(snapshot);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(restored.normal(), original.normal());
  }
}

TEST(RngState, SnapshotIsStable) {
  Rng rng(7);
  rng.uniform();
  const Rng::State a = rng.state();
  const Rng::State b = rng.state();  // state() must not advance the stream
  EXPECT_EQ(a.words, b.words);
}

TEST(RngState, RejectsAllZeroState) {
  Rng rng(3);
  EXPECT_THROW(rng.set_state(Rng::State{}), InvalidArgument);
  EXPECT_THROW(Rng{Rng::State{}}, InvalidArgument);
}

}  // namespace
}  // namespace mdo
