#include "io/result_text.hpp"

#include <gtest/gtest.h>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"

namespace cohls::io {
namespace {

struct Fixture {
  model::Assay assay = assays::gene_expression_assay(3);
  core::SynthesisReport report;

  Fixture() {
    core::SynthesisOptions options;
    options.max_devices = 12;
    options.layering.indeterminate_threshold = 3;
    report = core::synthesize(assay, options);
  }
};

void expect_same(const schedule::SynthesisResult& a, const schedule::SynthesisResult& b) {
  ASSERT_EQ(a.devices.size(), b.devices.size());
  ASSERT_EQ(a.devices.max_devices(), b.devices.max_devices());
  for (int d = 0; d < a.devices.size(); ++d) {
    const auto& da = a.devices.device(DeviceId{d});
    const auto& db = b.devices.device(DeviceId{d});
    EXPECT_EQ(da.config, db.config);
    EXPECT_EQ(da.created_in, db.created_in);
  }
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    ASSERT_EQ(a.layers[l].items.size(), b.layers[l].items.size());
    for (std::size_t i = 0; i < a.layers[l].items.size(); ++i) {
      const auto& ia = a.layers[l].items[i];
      const auto& ib = b.layers[l].items[i];
      EXPECT_EQ(ia.op, ib.op);
      EXPECT_EQ(ia.device, ib.device);
      EXPECT_EQ(ia.start, ib.start);
      EXPECT_EQ(ia.duration, ib.duration);
      EXPECT_EQ(ia.transport, ib.transport);
    }
  }
}

TEST(ResultText, RoundTripsASynthesizedResult) {
  const Fixture f;
  const std::string text = to_text(f.report.result, f.assay);
  const schedule::SynthesisResult parsed = result_from_text(text, f.assay);
  expect_same(f.report.result, parsed);
  // The reloaded result still satisfies every constraint.
  const auto violations =
      schedule::certify_result(parsed, f.assay, f.report.transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
}

TEST(ResultText, SerializedFormIsStable) {
  const Fixture f;
  const std::string text = to_text(f.report.result, f.assay);
  EXPECT_EQ(text, to_text(result_from_text(text, f.assay), f.assay));
}

TEST(ResultText, ParsesAMinimalDocument) {
  model::Assay assay{"t"};
  model::OperationSpec spec;
  spec.name = "a";
  spec.duration = 10_min;
  (void)assay.add_operation(spec);
  const auto result = result_from_text(R"(
result max_devices=3
device 0 container=chamber capacity=tiny created_in=0
layer 0
schedule op=0 device=0 start=0 duration=10 transport=0
)",
                                       assay);
  EXPECT_EQ(result.devices.size(), 1);
  ASSERT_EQ(result.layers.size(), 1u);
  EXPECT_EQ(result.layers[0].items[0].duration, 10_min);
}

TEST(ResultText, RejectsMissingHeader) {
  const model::Assay assay = assays::kinase_activity_assay(1);
  EXPECT_THROW((void)result_from_text("layer 0\n", assay), ParseError);
}

TEST(ResultText, RejectsUndeclaredDevice) {
  model::Assay assay{"t"};
  model::OperationSpec spec;
  spec.name = "a";
  spec.duration = 10_min;
  (void)assay.add_operation(spec);
  EXPECT_THROW((void)result_from_text(R"(
result max_devices=3
layer 0
schedule op=0 device=0 start=0 duration=10 transport=0
)",
                                      assay),
               ParseError);
}

TEST(ResultText, RejectsUnknownOperation) {
  model::Assay assay{"t"};
  model::OperationSpec spec;
  spec.name = "a";
  spec.duration = 10_min;
  (void)assay.add_operation(spec);
  EXPECT_THROW((void)result_from_text(R"(
result max_devices=3
device 0 container=chamber capacity=tiny created_in=0
layer 0
schedule op=7 device=0 start=0 duration=10 transport=0
)",
                                      assay),
               ParseError);
}

TEST(ResultText, RejectsInvalidDeviceConfig) {
  const model::Assay assay = assays::kinase_activity_assay(1);
  EXPECT_THROW((void)result_from_text(R"(
result max_devices=3
device 0 container=ring capacity=tiny created_in=0
)",
                                      assay),
               ParseError);
}

TEST(ResultText, RejectsNonDenseLayers) {
  const model::Assay assay = assays::kinase_activity_assay(1);
  EXPECT_THROW((void)result_from_text(R"(
result max_devices=3
layer 1
)",
                                      assay),
               ParseError);
}

TEST(ResultText, ErrorsCarryLineNumbers) {
  const model::Assay assay = assays::kinase_activity_assay(1);
  try {
    (void)result_from_text("result max_devices=3\nbogus 1\n", assay);
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

/// The ParseError message of `text`, or "" when it loads.
std::string parse_error(const std::string& text, const model::Assay& assay) {
  try {
    (void)result_from_text(text, assay);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

model::Assay one_operation_assay() {
  model::Assay assay{"t"};
  model::OperationSpec spec;
  spec.name = "a";
  spec.duration = 10_min;
  (void)assay.add_operation(spec);
  return assay;
}

// 32-bit fields must be rejected when their value does not fit, not
// narrowed: 4294967299 would wrap to 3 and 4294967296 to 0.
TEST(ResultText, RejectsMaxDevicesOutsideInt32) {
  const model::Assay assay = one_operation_assay();
  const std::string error = parse_error("\nresult max_devices=4294967299\n", assay);
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(ResultText, RejectsScheduleIdsOutsideInt32) {
  const model::Assay assay = one_operation_assay();
  const std::string header =
      "result max_devices=3\n"
      "device 0 container=chamber capacity=tiny created_in=0\n"
      "layer 0\n";
  for (const char* line :
       {"schedule op=4294967296 device=4294967296 start=0 duration=10 transport=0\n",
        "schedule op=4294967296 device=0 start=0 duration=10 transport=0\n",
        "schedule op=0 device=4294967296 start=0 duration=10 transport=0\n",
        "schedule op=0 device=-4294967296 start=0 duration=10 transport=0\n"}) {
    const std::string error = parse_error(header + line, assay);
    EXPECT_NE(error.find("line 4"), std::string::npos) << line << error;
    EXPECT_NE(error.find("out of range"), std::string::npos) << line << error;
  }
}

TEST(ResultText, RejectsCreatedInOutsideInt32) {
  const model::Assay assay = one_operation_assay();
  const std::string error = parse_error(
      "result max_devices=3\n"
      "device 0 container=chamber capacity=tiny created_in=4294967296\n",
      assay);
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(ResultText, AcceptsCrlfLineEnds) {
  const model::Assay assay = one_operation_assay();
  const std::string text =
      "result max_devices=3\n"
      "device 0 container=chamber capacity=tiny accessories={pump} created_in=0\n"
      "layer 0\n"
      "schedule op=0 device=0 start=0 duration=10 transport=0\n";
  std::string crlf;
  for (const char c : text) {
    crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  }
  EXPECT_EQ(to_text(result_from_text(crlf, assay), assay), text);
}

TEST(ResultText, AcceptsInt32Extremes) {
  const model::Assay assay = one_operation_assay();
  const auto result = result_from_text(
      "result max_devices=2147483647\n"
      "device 0 container=chamber capacity=tiny created_in=-2147483648\n",
      assay);
  EXPECT_EQ(result.devices.max_devices(), 2147483647);
  EXPECT_EQ(result.devices.device(DeviceId{0}).created_in.value(), -2147483647 - 1);
}

}  // namespace
}  // namespace cohls::io
