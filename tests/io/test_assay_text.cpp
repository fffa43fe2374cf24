#include "io/assay_text.hpp"

#include <gtest/gtest.h>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"

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
    EXPECT_EQ(oa.parents(), ob.parents());
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
  EXPECT_EQ(sort.parents(), std::vector<OperationId>{OperationId{0}});
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
