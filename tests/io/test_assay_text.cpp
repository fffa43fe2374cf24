#include "io/assay_text.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include <bit>
#include <cstdint>
#include <string>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"
#include "sim/runtime.hpp"

namespace cohls::io {
namespace {

void expect_same(const model::Assay& a, const model::Assay& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_EQ(a.operation_count(), b.operation_count());
  ASSERT_EQ(a.registry().count(), b.registry().count());
  for (model::AccessoryId id = 0; id < a.registry().count(); ++id) {
    EXPECT_EQ(a.registry().name(id), b.registry().name(id));
    EXPECT_DOUBLE_EQ(a.registry().processing_cost(id), b.registry().processing_cost(id));
  }
  for (int i = 0; i < a.operation_count(); ++i) {
    const auto& oa = a.operation(OperationId{i});
    const auto& ob = b.operation(OperationId{i});
    EXPECT_EQ(oa.name(), ob.name());
    EXPECT_EQ(oa.duration(), ob.duration());
    EXPECT_EQ(oa.container(), ob.container());
    EXPECT_EQ(oa.capacity(), ob.capacity());
    EXPECT_EQ(oa.accessories(), ob.accessories());
    EXPECT_EQ(oa.indeterminate(), ob.indeterminate());
    EXPECT_TRUE(std::ranges::equal(oa.parents(), ob.parents()));
  }
}

TEST(AssayText, ParsesAMinimalDocument) {
  const model::Assay assay = assay_from_text(R"(
assay "tiny"
operation 0 "mix" duration=10
)");
  EXPECT_EQ(assay.name(), "tiny");
  EXPECT_EQ(assay.operation_count(), 1);
  EXPECT_EQ(assay.operation(OperationId{0}).duration(), 10_min);
}

TEST(AssayText, ParsesEveryField) {
  const model::Assay assay = assay_from_text(R"(
assay "full"  # a comment
accessory "droplet sorter" cost=3.5
operation 0 "capture" duration=8 container=ring capacity=medium accessories={pump; cell trap} indeterminate
operation 1 "sort" duration=12 accessories={droplet sorter} parents=0
)");
  const auto& capture = assay.operation(OperationId{0});
  EXPECT_EQ(capture.container(), model::ContainerKind::Ring);
  EXPECT_EQ(capture.capacity(), model::Capacity::Medium);
  EXPECT_TRUE(capture.indeterminate());
  EXPECT_TRUE(capture.accessories().contains(model::BuiltinAccessory::kPump));
  EXPECT_TRUE(capture.accessories().contains(model::BuiltinAccessory::kCellTrap));
  const auto& sort = assay.operation(OperationId{1});
  EXPECT_TRUE(std::ranges::equal(sort.parents(), std::vector<OperationId>{OperationId{0}}));
  const auto sorter = assay.registry().find("droplet sorter");
  ASSERT_GE(sorter, 0);
  EXPECT_TRUE(sort.accessories().contains(sorter));
}

TEST(AssayText, RoundTripsTheBenchmarkAssays) {
  for (const model::Assay& original :
       {assays::kinase_activity_assay(), assays::gene_expression_assay(3),
        assays::rt_qpcr_assay(2)}) {
    const model::Assay parsed = assay_from_text(to_text(original));
    expect_same(original, parsed);
  }
}

TEST(AssayText, SerializedFormIsStable) {
  const model::Assay assay = assay_from_text(R"(
assay "stable"
operation 0 "a" duration=5
operation 1 "b" duration=6 parents=0
)");
  EXPECT_EQ(to_text(assay), to_text(assay_from_text(to_text(assay))));
}

TEST(AssayText, RejectsMissingHeader) {
  EXPECT_THROW((void)assay_from_text("operation 0 \"a\" duration=5\n"), ParseError);
}

TEST(AssayText, RejectsDuplicateHeader) {
  EXPECT_THROW((void)assay_from_text("assay \"a\"\nassay \"b\"\n"), ParseError);
}

TEST(AssayText, RejectsUnknownDirectiveWithLineNumber) {
  try {
    (void)assay_from_text("assay \"a\"\nfrobnicate 1\n");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(AssayText, RejectsUnknownAccessory) {
  EXPECT_THROW((void)assay_from_text(R"(
assay "a"
operation 0 "x" duration=5 accessories={tractor beam}
)"),
               ParseError);
}

TEST(AssayText, RejectsNonDenseIds) {
  EXPECT_THROW((void)assay_from_text(R"(
assay "a"
operation 1 "x" duration=5
)"),
               ParseError);
}

TEST(AssayText, RejectsForwardParents) {
  EXPECT_THROW((void)assay_from_text(R"(
assay "a"
operation 0 "x" duration=5 parents=1
operation 1 "y" duration=5
)"),
               ParseError);
}

// Parent ids are stored in 32 bits: 4294967296 must be rejected at its
// line, not narrowed to operation 0 (the linter reports E102 for it).
TEST(AssayText, RejectsParentIdsOutsideInt32) {
  for (const char* parent : {"4294967296", "-4294967296", "2147483648"}) {
    try {
      (void)assay_from_text(std::string("assay \"a\"\noperation 0 \"x\" duration=5\n"
                                        "operation 1 \"y\" duration=5 parents=") +
                            parent + "\n");
      FAIL() << parent;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 3) << parent;
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
    }
  }
}

TEST(AssayText, RejectsMalformedNumbers) {
  EXPECT_THROW((void)assay_from_text(R"(
assay "a"
operation 0 "x" duration=abc
)"),
               ParseError);
}

TEST(AssayText, RejectsUnterminatedString) {
  EXPECT_THROW((void)assay_from_text("assay \"oops\n"), ParseError);
}

/// The line of the ParseError `text` raises, or -1 when it loads.
int error_line(const std::string& text) {
  try {
    (void)assay_from_text(text);
  } catch (const ParseError& e) {
    return e.line();
  }
  return -1;
}

// A non-finite cost used to lint clean and then fail synthesis as
// "infeasible"; '+' and hex were read by one number rule and not another.
TEST(AssayText, RejectsCostsOutsideTheFiniteDecimalGrammar) {
  for (const char* cost : {"inf", "-inf", "nan", "1e309", "+2.5", "0x1p3", "2.5x"}) {
    EXPECT_EQ(error_line(std::string("assay \"a\"\naccessory \"laser\" cost=") + cost +
                         "\noperation 0 \"x\" duration=5 accessories={laser}\n"),
              2)
        << cost;
  }
}

// A duration past int32 used to overflow the scheduler's time windows.
TEST(AssayText, RejectsDurationsOutsideInt32) {
  for (const char* duration : {"9223372036854775807", "2147483648", "-2147483649"}) {
    try {
      (void)assay_from_text(std::string("assay \"a\"\noperation 0 \"x\" duration=") +
                            duration + "\noperation 1 \"y\" duration=5 parents=0\n");
      FAIL() << duration;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 2) << duration;
      EXPECT_NE(e.message().find("out of range"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(error_line("assay \"a\"\noperation 0 \"x\" duration=+5\n"), 2);
}

// The largest durations the format admits still run through the flow.
TEST(AssayText, Int32MaxDurationsSynthesizeValidateAndSimulate) {
  std::string text = "assay \"long\"\n";
  for (int op = 0; op < 4; ++op) {
    text += "operation " + std::to_string(op) + " \"s" + std::to_string(op) +
            "\" duration=2147483647" +
            (op > 0 ? " parents=" + std::to_string(op - 1) : std::string()) + "\n";
  }
  const model::Assay assay = assay_from_text(text);
  const core::SynthesisReport report = core::synthesize(assay, core::SynthesisOptions{});
  EXPECT_TRUE(schedule::certify_result(report.result, assay, report.transport).empty());
  const sim::RunTrace trace = sim::simulate_run(report.result, assay, sim::RuntimeOptions{});
  EXPECT_TRUE(trace.ok());
}

TEST(AssayText, RejectsEmptyNames) {
  EXPECT_EQ(error_line("assay \"\"\n"), 1);
  EXPECT_EQ(error_line("assay \"a\"\noperation 0 \"\" duration=5\n"), 2);
  EXPECT_EQ(error_line("assay \"a\"\naccessory \"\" cost=1\n"), 2);
}

// Accessory names are written back inside {a; b} lists.
TEST(AssayText, RejectsAccessoryNamesAListCannotHold) {
  for (const char* name : {" laser", "laser ", "a;b", "a}b"}) {
    EXPECT_EQ(error_line(std::string("assay \"a\"\naccessory \"") + name + "\" cost=1\n"), 2)
        << name;
  }
}

TEST(AssayText, AcceptsCrlfLineEnds) {
  const model::Assay assay = assay_from_text(
      "assay \"crlf\"\r\n"
      "accessory \"laser\" cost=2\r\n"
      "operation 0 \"a\" duration=5 accessories={laser}\r\n"
      "operation 1 \"b\" duration=6 parents=0 indeterminate\r\n");
  ASSERT_EQ(assay.operation_count(), 2);
  EXPECT_EQ(assay.operation(OperationId{1}).duration(), 6_min);
  EXPECT_TRUE(assay.operation(OperationId{1}).indeterminate());
}

TEST(AssayText, CostsRoundTripBitForBit) {
  model::AccessoryRegistry registry;
  const double costs[] = {0.1234567, 1.0 / 3.0, 1e-7, 123456789.125};
  for (const double cost : costs) {
    (void)registry.register_accessory("kind " + std::to_string(registry.count()), cost);
  }
  model::Assay original("costs", registry);
  model::OperationSpec spec;
  spec.name = "a";
  spec.duration = 5_min;
  (void)original.add_operation(spec);
  const model::Assay parsed = assay_from_text(to_text(original));
  for (model::AccessoryId id = 0; id < registry.count(); ++id) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.registry().processing_cost(id)),
              std::bit_cast<std::uint64_t>(registry.processing_cost(id)))
        << registry.name(id);
  }
}

class AssayTextRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(AssayTextRoundTrip, RandomAssaysRoundTrip) {
  assays::RandomAssayOptions gen;
  gen.operations = 20;
  gen.indeterminate_probability = 0.3;
  const model::Assay original =
      assays::random_assay(static_cast<std::uint64_t>(GetParam()) * 17 + 1, gen);
  const model::Assay parsed = assay_from_text(to_text(original));
  expect_same(original, parsed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssayTextRoundTrip, ::testing::Range(0, 15));

}  // namespace
}  // namespace cohls::io
