// Self-test for tools/detlint: every fixture under tests/detlint/ is linted
// in-process and compared against its `// EXPECT-DETLINT: <rule>[, <rule>]`
// annotations. Bad fixtures must fire exactly on the annotated lines with
// the annotated rules; good/ok fixtures carry no annotations and must come
// back clean — including the suppression and bench-exemption fixtures.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "detlint.h"
#include "gtest/gtest.h"

namespace {

namespace fs = std::filesystem;

std::vector<fs::path> fixture_files() {
  std::vector<fs::path> files;
  for (const auto& entry :
       fs::recursive_directory_iterator(DETLINT_FIXTURE_DIR)) {
    if (entry.is_regular_file() &&
        detlint::is_cpp_source(entry.path().string()))
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// (line, rule) pairs from EXPECT-DETLINT annotations in the raw text.
std::set<std::pair<int, std::string>> expected_findings(const fs::path& p) {
  std::set<std::pair<int, std::string>> out;
  std::ifstream in(p);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string tag = "EXPECT-DETLINT:";
    const std::size_t pos = line.find(tag);
    if (pos == std::string::npos) continue;
    std::istringstream rules(line.substr(pos + tag.size()));
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      const std::size_t b = rule.find_first_not_of(" \t");
      const std::size_t e = rule.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      out.insert({lineno, rule.substr(b, e - b + 1)});
    }
  }
  return out;
}

std::set<std::pair<int, std::string>> actual_findings(const fs::path& p) {
  bool io_error = false;
  std::set<std::pair<int, std::string>> out;
  for (const auto& f : detlint::lint_file(p.generic_string(), &io_error)) {
    out.insert({f.line, f.rule});
  }
  EXPECT_FALSE(io_error) << "cannot read " << p;
  return out;
}

TEST(DetlintFixtures, EveryFixtureMatchesItsAnnotations) {
  const auto files = fixture_files();
  ASSERT_FALSE(files.empty()) << "no fixtures under " << DETLINT_FIXTURE_DIR;
  for (const auto& p : files) {
    const auto expected = expected_findings(p);
    const auto actual = actual_findings(p);
    for (const auto& [line, rule] : expected) {
      EXPECT_TRUE(actual.count({line, rule}))
          << p.filename() << ":" << line << " expected rule `" << rule
          << "` did not fire";
    }
    for (const auto& [line, rule] : actual) {
      EXPECT_TRUE(expected.count({line, rule}))
          << p.filename() << ":" << line << " unexpected finding `" << rule
          << "`";
    }
  }
}

TEST(DetlintFixtures, BadFixturesAnnotateAtLeastOneLine) {
  for (const auto& p : fixture_files()) {
    if (p.filename().string().find("_bad") == std::string::npos) continue;
    EXPECT_FALSE(expected_findings(p).empty())
        << p.filename() << " is a bad fixture with no EXPECT-DETLINT lines";
  }
}

TEST(DetlintFixtures, EveryRuleHasBadCoverage) {
  std::set<std::string> covered;
  for (const auto& p : fixture_files()) {
    for (const auto& pr : expected_findings(p)) covered.insert(pr.second);
  }
  for (const auto& rule : detlint::rule_ids()) {
    EXPECT_TRUE(covered.count(rule))
        << "rule `" << rule << "` has no bad fixture exercising it";
  }
}

TEST(DetlintFixtures, SuppressionSilencesSameLineAndNextLine) {
  const std::string src =
      "long a() {\n"
      "  return std::time(nullptr);  // detlint: allow(wall-clock)\n"
      "}\n"
      "long b() {\n"
      "  // detlint: allow(wall-clock)\n"
      "  return std::time(nullptr);\n"
      "}\n"
      "long c() {\n"
      "  return std::time(nullptr);\n"
      "}\n";
  const auto findings = detlint::lint_source("virtual.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 9);
  EXPECT_EQ(findings[0].rule, "wall-clock");
}

TEST(DetlintFixtures, BenchPathsAreExemptFromWallClock) {
  const std::string src = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(detlint::lint_source("bench/timer.cpp", src).empty());
  EXPECT_EQ(detlint::lint_source("src/timer.cpp", src).size(), 1u);
}

TEST(DetlintFixtures, ObsPathsAreExemptFromWallClock) {
  // src/obs/ is the ProfZone wall-clock carve-out; the exemption is scoped
  // to that directory, not to every path containing "obs".
  const std::string src = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(detlint::lint_source("src/obs/prof.cpp", src).empty());
  EXPECT_TRUE(
      detlint::lint_source("/root/repo/src/obs/timer.cpp", src).empty());
  EXPECT_EQ(detlint::lint_source("src/observer.cpp", src).size(), 1u);
  EXPECT_EQ(detlint::lint_source("src/sim/obs_like.cpp", src).size(), 1u);
}

TEST(DetlintFixtures, LibmRngIsScopedToTheSampler) {
  // The rule covers src/dsp/rng* and src/dsp/ziggurat*, nothing else: not
  // other src/dsp/ files and not subdirectories or look-alike paths.
  const std::string src = "double f(double x) { return std::exp(x); }\n";
  EXPECT_EQ(detlint::lint_source("src/dsp/rng.h", src).size(), 1u);
  EXPECT_EQ(detlint::lint_source("src/dsp/rng.cpp", src).size(), 1u);
  EXPECT_EQ(detlint::lint_source("checkout/src/dsp/ziggurat_tables.h", src)
                .size(),
            1u);
  EXPECT_TRUE(detlint::lint_source("src/dsp/fir.cpp", src).empty());
  EXPECT_TRUE(detlint::lint_source("src/dsp/simd/rng.cpp", src).empty());
  EXPECT_TRUE(detlint::lint_source("src/channel/rng.cpp", src).empty());
}

}  // namespace
