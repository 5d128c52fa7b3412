#include "src/cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace kosr::cli {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kosr_cli_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  int Run(const std::vector<std::string>& argv) {
    out_.str("");
    return RunCli(argv, out_);
  }

  std::filesystem::path dir_;
  std::ostringstream out_;
};

TEST(ParseArgsTest, SubcommandAndFlags) {
  Args args = ParseArgs({"query", "--k", "3", "--sequence", "1,2"});
  EXPECT_EQ(args.command, "query");
  EXPECT_EQ(args.GetOr("k", ""), "3");
  EXPECT_EQ(args.GetInt("k"), 3);
  EXPECT_EQ(args.GetIntOr("missing", 9), 9);
  EXPECT_FALSE(args.Get("missing").has_value());
}

TEST(ParseArgsTest, RejectsDanglingFlag) {
  EXPECT_THROW(ParseArgs({"query", "--k"}), std::invalid_argument);
  EXPECT_THROW(ParseArgs({"query", "positional"}), std::invalid_argument);
}

TEST(ParseArgsTest, GetIntRejectsGarbage) {
  Args args = ParseArgs({"x", "--k", "3abc"});
  EXPECT_THROW(args.GetInt("k"), std::invalid_argument);
}

TEST(ParseSequenceTest, ParsesAndValidates) {
  EXPECT_EQ(ParseSequence("3,1,4"), (std::vector<uint32_t>{3, 1, 4}));
  EXPECT_EQ(ParseSequence("7"), (std::vector<uint32_t>{7}));
  EXPECT_THROW(ParseSequence(""), std::invalid_argument);
  EXPECT_THROW(ParseSequence("1,,2"), std::invalid_argument);
}

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("Usage"), std::string::npos);
  EXPECT_EQ(Run({"frobnicate"}), 1);
  EXPECT_EQ(Run({}), 0);  // no args = help
}

TEST_F(CliTest, GenerateStatsBuildQueryPipeline) {
  // generate
  ASSERT_EQ(Run({"generate", "--type", "grid", "--rows", "12", "--cols", "12",
                 "--seed", "5", "--out", Path("g.gr"), "--categories-out",
                 Path("c.txt"), "--category-size", "16"}),
            0)
      << out_.str();
  EXPECT_NE(out_.str().find("144 vertices"), std::string::npos);

  // stats
  ASSERT_EQ(Run({"stats", "--graph", Path("g.gr"), "--categories",
                 Path("c.txt")}),
            0)
      << out_.str();
  EXPECT_NE(out_.str().find("vertices: 144"), std::string::npos);

  // build-index with dissection order
  ASSERT_EQ(Run({"build-index", "--graph", Path("g.gr"), "--categories",
                 Path("c.txt"), "--order", "dissection", "--rows", "12",
                 "--cols", "12", "--out", Path("store")}),
            0)
      << out_.str();
  EXPECT_TRUE(std::filesystem::exists(Path("store") + "/meta.bin"));

  // query
  ASSERT_EQ(Run({"query", "--graph", Path("g.gr"), "--categories",
                 Path("c.txt"), "--source", "0", "--target", "143",
                 "--sequence", "0,1", "--k", "3", "--algorithm", "sk",
                 "--paths", "1"}),
            0)
      << out_.str();
  EXPECT_NE(out_.str().find("routes:"), std::string::npos);
  EXPECT_NE(out_.str().find("#1 cost"), std::string::npos);
}

TEST_F(CliTest, QueryAlgorithmsAgree) {
  ASSERT_EQ(Run({"generate", "--type", "random", "--vertices", "60",
                 "--edges", "360", "--seed", "9", "--out", Path("g.gr"),
                 "--categories-out", Path("c.txt"), "--category-size", "12"}),
            0);
  std::string first;
  for (const char* algo : {"kpne", "pk", "sk"}) {
    ASSERT_EQ(Run({"query", "--graph", Path("g.gr"), "--categories",
                   Path("c.txt"), "--source", "1", "--target", "50",
                   "--sequence", "0,2", "--k", "2", "--algorithm", algo}),
              0)
        << out_.str();
    std::string body = out_.str();
    std::string costs = body.substr(0, body.find("stats:"));
    if (first.empty()) {
      first = costs;
    } else {
      EXPECT_EQ(costs, first) << algo;
    }
  }
}

TEST_F(CliTest, QueryAppliesDynamicUpdateScript) {
  ASSERT_EQ(Run({"generate", "--type", "grid", "--rows", "8", "--cols", "8",
                 "--seed", "3", "--out", Path("g.gr"), "--categories-out",
                 Path("c.txt"), "--category-size", "8"}),
            0);
  auto query = [&] {
    return Run({"query", "--graph", Path("g.gr"), "--categories",
                Path("c.txt"), "--source", "0", "--target", "63",
                "--sequence", "0", "--k", "1", "--updates",
                Path("updates.txt")});
  };

  // A shortcut straight to the target must lower the best route; removing
  // it and raising a fresh detour must leave the baseline answer intact.
  {
    std::ofstream updates(Path("updates.txt"));
    updates << "# warm the repair path\n"
            << "SET_EDGE 0 63 1\n";
  }
  ASSERT_EQ(query(), 0) << out_.str();
  EXPECT_NE(out_.str().find("applied 1 updates"), std::string::npos)
      << out_.str();
  std::string with_shortcut = out_.str();

  {
    std::ofstream updates(Path("updates.txt"));
    updates << "SET_EDGE 0 63 1\n"
            << "REMOVE_EDGE 0 63\n"
            << "ADD_EDGE 0 63 9000\n"   // off every shortest path
            << "SET_EDGE 0 63 9500\n";  // raise it: repairs nothing
  }
  ASSERT_EQ(query(), 0) << out_.str();
  EXPECT_NE(out_.str().find("applied 4 updates"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str(), with_shortcut);

  // Malformed scripts fail loudly, not silently.
  {
    std::ofstream updates(Path("updates.txt"));
    updates << "FROBNICATE 1 2 3\n";
  }
  EXPECT_NE(query(), 0);
  EXPECT_NE(out_.str().find("unknown update verb"), std::string::npos)
      << out_.str();
}

TEST_F(CliTest, DijkstraModeWorks) {
  ASSERT_EQ(Run({"generate", "--type", "grid", "--rows", "8", "--cols", "8",
                 "--out", Path("g.gr"), "--categories-out", Path("c.txt"),
                 "--category-size", "8"}),
            0);
  EXPECT_EQ(Run({"query", "--graph", Path("g.gr"), "--categories",
                 Path("c.txt"), "--source", "0", "--target", "63",
                 "--sequence", "0", "--k", "1", "--nn", "dijkstra"}),
            0)
      << out_.str();
}

TEST_F(CliTest, ThreadedBuildMatchesSequentialSnapshot) {
  ASSERT_EQ(Run({"generate", "--type", "grid", "--rows", "10", "--cols", "10",
                 "--seed", "4", "--out", Path("g.gr"), "--categories-out",
                 Path("c.txt"), "--category-size", "10"}),
            0);
  // --threads flows through build-index; the written snapshots must be
  // byte-identical regardless of thread count.
  ASSERT_EQ(Run({"build-index", "--graph", Path("g.gr"), "--categories",
                 Path("c.txt"), "--indexes-out", Path("seq.bin")}),
            0)
      << out_.str();
  ASSERT_EQ(Run({"build-index", "--graph", Path("g.gr"), "--categories",
                 Path("c.txt"), "--threads", "4", "--indexes-out",
                 Path("par.bin")}),
            0)
      << out_.str();
  std::ifstream a(Path("seq.bin"), std::ios::binary);
  std::ifstream b(Path("par.bin"), std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());

  // Negative thread counts are rejected, not wrapped to huge unsigned.
  EXPECT_EQ(Run({"build-index", "--graph", Path("g.gr"), "--categories",
                 Path("c.txt"), "--threads", "-2"}),
            1);
  EXPECT_NE(out_.str().find("--threads"), std::string::npos);
}

TEST_F(CliTest, UsageErrorsReturnOne) {
  EXPECT_EQ(Run({"generate", "--type", "tesseract"}), 1);
  EXPECT_EQ(Run({"query", "--graph", Path("missing.gr"), "--source", "0",
                 "--target", "1", "--sequence", "0"}),
            2);  // runtime error: file missing
}

TEST_F(CliTest, ZipfianGeneration) {
  ASSERT_EQ(Run({"generate", "--type", "grid", "--rows", "10", "--cols", "10",
                 "--out", Path("g.gr"), "--categories-out", Path("c.txt"),
                 "--zipf", "1.2", "--num-categories", "10"}),
            0)
      << out_.str();
  EXPECT_NE(out_.str().find("10 categories"), std::string::npos);
}

}  // namespace
}  // namespace kosr::cli
