/// \file test_bench_cli.cpp
/// \brief Tests for the shared bench command-line parser.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "experiment/cli.hpp"

namespace feast {
namespace {

/// argv builder (parse_bench_args wants char**).
class Argv {
 public:
  explicit Argv(const std::vector<std::string>& args) {
    storage_.reserve(args.size() + 1);
    storage_.push_back("bench");
    for (const std::string& a : args) storage_.push_back(a);
    for (std::string& s : storage_) pointers_.push_back(s.data());
  }

  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(BenchCli, Defaults) {
  Argv argv({});
  const BenchArgs args = parse_bench_args(argv.argc(), argv.argv(), "bench");
  EXPECT_EQ(args.figure.samples, 128);
  EXPECT_EQ(args.figure.seed, 0xFEA57u);
  EXPECT_EQ(args.figure.sizes, paper_sizes());
  EXPECT_FALSE(args.quick);
  EXPECT_FALSE(args.csv_path.has_value());
}

TEST(BenchCli, SamplesAndSeed) {
  Argv argv({"--samples", "42", "--seed", "0x10"});
  const BenchArgs args = parse_bench_args(argv.argc(), argv.argv(), "bench");
  EXPECT_EQ(args.figure.samples, 42);
  EXPECT_EQ(args.figure.seed, 16u);
}

TEST(BenchCli, SeedSpansFullU64) {
  Argv argv({"--seed", "18446744073709551615"});
  const BenchArgs args = parse_bench_args(argv.argc(), argv.argv(), "bench");
  EXPECT_EQ(args.figure.seed, 18446744073709551615u);
}

TEST(BenchCli, QuickShorthand) {
  Argv argv({"--quick"});
  const BenchArgs args = parse_bench_args(argv.argc(), argv.argv(), "bench");
  EXPECT_TRUE(args.quick);
  EXPECT_EQ(args.figure.samples, 16);
}

TEST(BenchCli, SizesList) {
  Argv argv({"--sizes", "2, 4,16"});
  const BenchArgs args = parse_bench_args(argv.argc(), argv.argv(), "bench");
  EXPECT_EQ(args.figure.sizes, (std::vector<int>{2, 4, 16}));
}

TEST(BenchCli, CsvPathCaptured) {
  Argv argv({"--csv", "/tmp/out.csv"});
  const BenchArgs args = parse_bench_args(argv.argc(), argv.argv(), "bench");
  ASSERT_TRUE(args.csv_path.has_value());
  EXPECT_EQ(*args.csv_path, "/tmp/out.csv");
}

using BenchCliDeathTest = ::testing::Test;

TEST(BenchCliDeathTest, UnknownOptionExits) {
  Argv argv({"--bogus"});
  EXPECT_EXIT(parse_bench_args(argv.argc(), argv.argv(), "bench"),
              ::testing::ExitedWithCode(2), "unknown option");
}

TEST(BenchCliDeathTest, MissingValueExits) {
  Argv argv({"--samples"});
  EXPECT_EXIT(parse_bench_args(argv.argc(), argv.argv(), "bench"),
              ::testing::ExitedWithCode(2), "needs a value");
}

TEST(BenchCliDeathTest, BadNumberExits) {
  Argv argv({"--samples", "lots"});
  EXPECT_EXIT(parse_bench_args(argv.argc(), argv.argv(), "bench"),
              ::testing::ExitedWithCode(2), "bad number");
}

TEST(BenchCliDeathTest, NegativeSeedExits) {
  Argv argv({"--seed", "-1"});
  EXPECT_EXIT(parse_bench_args(argv.argc(), argv.argv(), "bench"),
              ::testing::ExitedWithCode(2), "bad number for --seed");
}

TEST(BenchCliDeathTest, HelpExitsZero) {
  Argv argv({"--help"});
  // Usage goes to stdout (the death-test matcher only sees stderr).
  EXPECT_EXIT(parse_bench_args(argv.argc(), argv.argv(), "bench"),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace feast
