// Linter rules exercised one by one on hand-built bad assay sources; every
// test matches on stable codes and spans, never on message text.
#include "analysis/linter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace cohls::analysis {
namespace {

std::vector<std::string> codes_of(const LintReport& report) {
  std::vector<std::string> codes;
  codes.reserve(report.diagnostics.size());
  for (const diag::Diagnostic& d : report.diagnostics) {
    codes.push_back(d.code);
  }
  return codes;
}

bool has_code(const LintReport& report, const char* code) {
  const auto codes = codes_of(report);
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

const diag::Diagnostic& first_with_code(const LintReport& report,
                                        const char* code) {
  for (const diag::Diagnostic& d : report.diagnostics) {
    if (d.code == code) {
      return d;
    }
  }
  ADD_FAILURE() << "no diagnostic with code " << code;
  return report.diagnostics.front();
}

TEST(Linter, CleanAssayHasNoDiagnostics) {
  const LintReport report = lint_assay_text(
      "assay \"ok\"\n"
      "operation 0 \"mix\" duration=5\n"
      "operation 1 \"heat\" duration=3 parents=0\n");
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.clean(/*warnings_as_errors=*/true));
}

TEST(Linter, LexicalFailureBecomesE100WithLine) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5 wobble=3\n");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, diag::codes::kParseError);
  EXPECT_EQ(report.diagnostics[0].span.line, 2);
  EXPECT_TRUE(report.has_errors());
}

// A lexical error's span names the column of the token that broke it: a
// missing word, a malformed number (alone or inside parents=) and an empty
// {...} list item.
TEST(Linter, LexicalFailureNamesItsColumn) {
  const struct {
    const char* line;
    int column;
  } cases[] = {
      {"operation 0 \"a\" duration=", 26},
      {"operation 0 \"a\" duration=12x", 26},
      {"operation 0 \"a\" duration=5 parents=0,1x", 38},
      {"operation 0 \"a\" duration=5 accessories={pump;  ;cell trap}", 46},
      {"operation 0 \"a\" duration=5 accessories={pump; warp core}", 47},
  };
  for (const auto& c : cases) {
    const LintReport report = lint_assay_text(std::string("assay \"x\"\n") + c.line + "\n");
    ASSERT_EQ(report.diagnostics.size(), 1u) << c.line;
    EXPECT_EQ(report.diagnostics[0].code, diag::codes::kParseError) << c.line;
    EXPECT_EQ(report.diagnostics[0].span, (diag::Span{2, c.column})) << c.line;
  }
}

// Values the builder or the scheduler cannot hold are lexical errors, so
// --lint-only stops them instead of the flow failing later: a non-finite
// cost used to end as "infeasible", a duration past int32 as an abort.
TEST(Linter, UnrepresentableNumbersAreE100AtTheirLine) {
  for (const char* line : {"accessory \"laser\" cost=inf", "accessory \"laser\" cost=nan",
                           "accessory \"laser\" cost=1e309",
                           "operation 0 \"a\" duration=9223372036854775807",
                           "operation 0 \"a\" duration=2147483648"}) {
    const LintReport report =
        lint_assay_text(std::string("assay \"x\"\n") + line + "\n");
    ASSERT_EQ(report.diagnostics.size(), 1u) << line;
    EXPECT_EQ(report.diagnostics[0].code, diag::codes::kParseError) << line;
    EXPECT_EQ(report.diagnostics[0].span.line, 2) << line;
    EXPECT_EQ(report.diagnostics[0].message.find("line "), std::string::npos)
        << report.diagnostics[0].message;
  }
}

TEST(Linter, DuplicateIdIsE101WithNoteAtFirstDefinition) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5\n"
      "operation 0 \"b\" duration=5\n");
  const auto& d = first_with_code(report, diag::codes::kDuplicateOperationId);
  EXPECT_EQ(d.span.line, 3);
  ASSERT_FALSE(d.notes.empty());
  EXPECT_EQ(d.notes[0].span.line, 2);
}

TEST(Linter, UndefinedParentIsE102) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5\n"
      "operation 1 \"b\" duration=5 parents=7\n");
  const auto& d = first_with_code(report, diag::codes::kUndefinedReference);
  EXPECT_EQ(d.span.line, 3);
}

TEST(Linter, DependencyCycleIsE103WithPath) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5 parents=1\n"
      "operation 1 \"b\" duration=5 parents=0\n");
  const auto& d = first_with_code(report, diag::codes::kDependencyCycle);
  // The path names both members and notes point at their definitions.
  EXPECT_NE(d.message.find("0"), std::string::npos);
  EXPECT_NE(d.message.find("1"), std::string::npos);
  EXPECT_EQ(d.notes.size(), 2u);
}

TEST(Linter, SelfParentIsE103) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5 parents=0\n");
  EXPECT_TRUE(has_code(report, diag::codes::kDependencyCycle));
}

TEST(Linter, AcyclicForwardReferenceIsE106NotE103) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5 parents=1\n"
      "operation 1 \"b\" duration=5\n");
  EXPECT_TRUE(has_code(report, diag::codes::kNonDenseIds));
  EXPECT_FALSE(has_code(report, diag::codes::kDependencyCycle));
}

TEST(Linter, NonDenseIdsAreE106) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5\n"
      "operation 2 \"b\" duration=5\n");
  const auto& d = first_with_code(report, diag::codes::kNonDenseIds);
  EXPECT_EQ(d.span.line, 3);
}

TEST(Linter, UnbindableOperationIsE104WithNearestDeviceNote) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"big\" duration=5 container=chamber capacity=large\n");
  const auto& d = first_with_code(report, diag::codes::kUnbindableOperation);
  EXPECT_EQ(d.span.line, 2);
  ASSERT_FALSE(d.notes.empty());
  // The note names the nearest admissible configuration (chamber at medium).
  EXPECT_NE(d.notes[0].message.find("medium"), std::string::npos);
  EXPECT_FALSE(d.fixit.empty());
}

TEST(Linter, RingTinyIsAlsoUnbindable) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"small\" duration=5 container=ring capacity=tiny\n");
  EXPECT_TRUE(has_code(report, diag::codes::kUnbindableOperation));
}

TEST(Linter, UnpinnedContainerIsAlwaysBindable) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5 capacity=large\n"
      "operation 1 \"b\" duration=5 capacity=tiny\n"
      "operation 2 \"c\" duration=5 container=ring\n"
      "operation 3 \"d\" duration=5 container=chamber\n");
  EXPECT_FALSE(has_code(report, diag::codes::kUnbindableOperation));
}

TEST(Linter, NonPositiveDurationIsE105) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"a\" duration=0\n"
      "operation 1 \"b\" duration=-3 indeterminate\n");
  int count = 0;
  for (const auto& d : report.diagnostics) {
    count += d.code == diag::codes::kNonPositiveDuration ? 1 : 0;
  }
  EXPECT_EQ(count, 2);
}

TEST(Linter, DeviceDemandBeyondBudgetIsE107) {
  std::string text = "assay \"x\"\n";
  for (int i = 0; i < 5; ++i) {
    text += "operation " + std::to_string(i) + " \"c" + std::to_string(i) +
            "\" duration=5 indeterminate\n";
  }
  AnalysisOptions options;
  options.max_devices = 3;
  options.indeterminate_threshold = 4;  // eviction keeps 4 > 3 devices
  const LintReport report = lint_assay_text(text, options);
  const auto& d = first_with_code(report, diag::codes::kDeviceDemandExceedsBudget);
  EXPECT_EQ(d.severity, diag::Severity::Error);
  ASSERT_FALSE(d.notes.empty());
  // Per-capacity-class breakdown rides along.
  EXPECT_NE(d.notes[0].message.find("any/any x5"), std::string::npos);
  // The same cluster is over-threshold, so the dry-run warning fires too.
  EXPECT_TRUE(has_code(report, diag::codes::kOverThresholdCluster));
}

TEST(Linter, DeviceDemandWithinBudgetAfterEvictionIsOnlyWarned) {
  std::string text = "assay \"x\"\n";
  for (int i = 0; i < 5; ++i) {
    text += "operation " + std::to_string(i) + " \"c" + std::to_string(i) +
            "\" duration=5 indeterminate\n";
  }
  AnalysisOptions options;
  options.max_devices = 3;
  options.indeterminate_threshold = 2;  // eviction trims to 2 <= 3 devices
  const LintReport report = lint_assay_text(text, options);
  EXPECT_FALSE(has_code(report, diag::codes::kDeviceDemandExceedsBudget));
  EXPECT_TRUE(has_code(report, diag::codes::kOverThresholdCluster));
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(report.clean(/*warnings_as_errors=*/true));
}

TEST(Linter, NonPositiveThresholdWithIndeterminatesIsE108) {
  AnalysisOptions options;
  options.indeterminate_threshold = 0;
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"c\" duration=5 indeterminate\n",
      options);
  EXPECT_TRUE(has_code(report, diag::codes::kNonPositiveThreshold));
  // Without indeterminate operations the threshold never matters.
  const LintReport fixed = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"c\" duration=5\n",
      options);
  EXPECT_TRUE(fixed.diagnostics.empty());
}

TEST(Linter, OverThresholdClusterIsW101PerDependencyLayer) {
  // Layer 0: three captures; their children form a second cluster at layer 1.
  std::string text = "assay \"x\"\n";
  for (int i = 0; i < 3; ++i) {
    text += "operation " + std::to_string(i) + " \"c" + std::to_string(i) +
            "\" duration=5 indeterminate\n";
  }
  for (int i = 0; i < 3; ++i) {
    text += "operation " + std::to_string(3 + i) + " \"d" + std::to_string(i) +
            "\" duration=5 indeterminate parents=" + std::to_string(i) + "\n";
  }
  AnalysisOptions options;
  options.indeterminate_threshold = 2;
  const LintReport report = lint_assay_text(text, options);
  int count = 0;
  for (const auto& d : report.diagnostics) {
    count += d.code == diag::codes::kOverThresholdCluster ? 1 : 0;
  }
  EXPECT_EQ(count, 2);
  const auto& d = first_with_code(report, diag::codes::kOverThresholdCluster);
  EXPECT_EQ(d.notes.size(), 3u);
}

TEST(Linter, LayeringWarningStillFiresNextToACycleError) {
  // The cycle disables nothing: the dry-run drops the cyclic edge and the
  // cluster warning still appears alongside E103.
  std::string text =
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5 parents=1\n"
      "operation 1 \"b\" duration=5 parents=0\n";
  for (int i = 2; i < 5; ++i) {
    text += "operation " + std::to_string(i) + " \"c" + std::to_string(i) +
            "\" duration=5 indeterminate\n";
  }
  AnalysisOptions options;
  options.indeterminate_threshold = 2;
  const LintReport report = lint_assay_text(text, options);
  EXPECT_TRUE(has_code(report, diag::codes::kDependencyCycle));
  EXPECT_TRUE(has_code(report, diag::codes::kOverThresholdCluster));
}

TEST(Linter, StoragePressureIsW102) {
  // One indeterminate gate plus four plain producers at layer 0; every
  // consumer depends on both, so five intermediates cross the boundary
  // against |D| = 3 while the indeterminate cluster itself stays tiny.
  std::string text =
      "assay \"x\"\n"
      "operation 0 \"gate\" duration=5 indeterminate\n";
  for (int i = 0; i < 4; ++i) {
    text += "operation " + std::to_string(1 + i) + " \"p" + std::to_string(i) +
            "\" duration=5\n";
  }
  for (int i = 0; i < 4; ++i) {
    text += "operation " + std::to_string(5 + i) + " \"q" + std::to_string(i) +
            "\" duration=5 parents=" + std::to_string(1 + i) + ",0\n";
  }
  AnalysisOptions options;
  options.max_devices = 3;
  options.indeterminate_threshold = 10;
  const LintReport report = lint_assay_text(text, options);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const auto& d = first_with_code(report, diag::codes::kStoragePressure);
  EXPECT_EQ(d.severity, diag::Severity::Warning);
  EXPECT_TRUE(report.clean());
}

TEST(Linter, UnusedAccessoryIsW103) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "accessory \"droplet sorter\" cost=3.5\n"
      "operation 0 \"a\" duration=5\n");
  const auto& d = first_with_code(report, diag::codes::kUnusedAccessory);
  EXPECT_EQ(d.span.line, 2);
  EXPECT_EQ(d.severity, diag::Severity::Warning);
  // Referencing it silences the warning.
  const LintReport used = lint_assay_text(
      "assay \"x\"\n"
      "accessory \"droplet sorter\" cost=3.5\n"
      "operation 0 \"a\" duration=5 accessories={droplet sorter}\n");
  EXPECT_TRUE(used.diagnostics.empty());
}

TEST(Linter, DuplicateParentIsW104) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5\n"
      "operation 1 \"b\" duration=5 parents=0,0\n");
  const auto& d = first_with_code(report, diag::codes::kDuplicateParent);
  EXPECT_EQ(d.span.line, 3);
  EXPECT_EQ(d.severity, diag::Severity::Warning);
}

TEST(Linter, DiagnosticsAreSortedByLine) {
  const LintReport report = lint_assay_text(
      "assay \"x\"\n"
      "operation 0 \"dur\" duration=0\n"
      "operation 1 \"big\" duration=5 container=chamber capacity=large\n");
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].span.line, 2);
  EXPECT_EQ(report.diagnostics[1].span.line, 3);
}

TEST(Linter, CustomPassPipeline) {
  PassManager manager;
  manager.add(Pass{"always-warn", false,
                   [](PassContext& ctx, std::vector<diag::Diagnostic>& out) {
                     diag::Diagnostic d;
                     d.code = "TEST-W001";
                     d.severity = diag::Severity::Warning;
                     d.message = "assay " + ctx.source.name;
                     out.push_back(std::move(d));
                   }});
  const io::AssaySource source = io::parse_assay_source(
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5\n");
  const LintReport report = manager.run(source, AnalysisOptions{});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, "TEST-W001");
}

}  // namespace
}  // namespace cohls::analysis
