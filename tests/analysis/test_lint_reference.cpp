// The flat-array linter against the map-based reference: identical
// diagnostics (code, severity, span, message, notes, fix-it and order) on
// the shipped protocols and on hand-built documents that trip every rule,
// under several device budgets and layer thresholds.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/linter.hpp"
#include "support/lint_reference.hpp"

namespace cohls::analysis {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const AnalysisOptions kOptionSets[] = {{}, {3, 2}, {1, 1}, {25, 0}, {2, 10}};

/// Lints `text` both ways under every option set; returns the number of
/// diagnostics the library reported in total.
std::size_t expect_same_lint(const std::string& text) {
  const io::AssaySource source = io::parse_assay_source(text);
  std::size_t reported = 0;
  for (const AnalysisOptions& options : kOptionSets) {
    const LintReport report = lint_assay(source, options);
    EXPECT_EQ(oracles::lint_difference(report, oracles::lint_assay_reference(source, options)),
              "")
        << "|D| = " << options.max_devices << ", t = " << options.indeterminate_threshold
        << "\n--- document ---\n"
        << text;
    reported += report.diagnostics.size();
  }
  return reported;
}

TEST(LintReference, ProtocolsMatch) {
  std::size_t reported = 0;
  for (const char* name : {"kinase_activity", "gene_expression", "rt_qpcr"}) {
    reported +=
        expect_same_lint(read_file(std::string(COHLS_PROTOCOLS_DIR) + "/" + name + ".assay"));
  }
  // The tight budgets make the graph rules fire on the real protocols.
  EXPECT_GT(reported, 0u);
}

TEST(LintReference, HandBuiltDocumentsMatch) {
  const std::vector<std::string> documents = {
      // duplicate ids, with a repeat of the repeat
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5\n"
      "operation 0 \"b\" duration=5\n"
      "operation 1 \"c\" duration=5 parents=0\n"
      "operation 0 \"d\" duration=5\n",
      // sparse, negative and unordered ids with undefined parents
      "assay \"x\"\n"
      "operation 7 \"a\" duration=5 indeterminate\n"
      "operation -3 \"b\" duration=5 parents=7,9,7\n"
      "operation 2 \"c\" duration=0 parents=-3,4,4\n",
      // sparse ids defined twice
      "assay \"x\"\n"
      "operation 5 \"a\" duration=5\n"
      "operation 9 \"b\" duration=5 parents=5\n"
      "operation 5 \"c\" duration=5 parents=9\n",
      // forward references among indeterminate operations, which the
      // dependency-phase dry run must drop
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5 indeterminate parents=2\n"
      "operation 1 \"b\" duration=5 indeterminate parents=0\n"
      "operation 2 \"c\" duration=5 indeterminate\n"
      "operation 3 \"d\" duration=5 indeterminate parents=1,3\n",
      // a self reference, a three-cycle and a plain forward reference
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5 parents=0\n"
      "operation 1 \"b\" duration=5 parents=3\n"
      "operation 2 \"c\" duration=5 parents=1\n"
      "operation 3 \"d\" duration=5 parents=2\n"
      "operation 4 \"e\" duration=5 parents=5\n"
      "operation 5 \"f\" duration=5\n",
      // two interlocked cycles and repeated parents on a cycle
      "assay \"x\"\n"
      "operation 0 \"a\" duration=5 parents=2,1,1\n"
      "operation 1 \"b\" duration=5 parents=0\n"
      "operation 2 \"c\" duration=5 parents=1,0\n",
      // unbindable ops, an unused and a used custom accessory
      "assay \"x\"\n"
      "accessory \"sorter\" cost=1.5\n"
      "accessory \"laser\" cost=2\n"
      "operation 0 \"a\" duration=5 container=chamber capacity=large\n"
      "operation 1 \"b\" duration=-2 container=ring capacity=tiny accessories={laser} "
      "indeterminate\n",
      // indeterminate clusters over several dependency layers, which
      // stress the threshold, device-demand and storage rules
      "assay \"x\"\n"
      "operation 0 \"p\" duration=5 indeterminate\n"
      "operation 1 \"q\" duration=5 indeterminate container=ring\n"
      "operation 2 \"r\" duration=5 indeterminate capacity=small\n"
      "operation 3 \"s\" duration=5 parents=0,1,2\n"
      "operation 4 \"t\" duration=5 indeterminate parents=0\n"
      "operation 5 \"u\" duration=5 indeterminate parents=1\n"
      "operation 6 \"v\" duration=5 indeterminate parents=2,3\n"
      "operation 7 \"w\" duration=5 parents=4,5,6,0\n"
      "operation 8 \"x\" duration=5 indeterminate parents=7\n"
      "operation 9 \"y\" duration=5 parents=8,3,1\n",
  };
  for (const std::string& document : documents) {
    EXPECT_GT(expect_same_lint(document), 0u) << document;
  }
  EXPECT_EQ(expect_same_lint("assay \"no operations\"\n"), 0u);
}

}  // namespace
}  // namespace cohls::analysis
