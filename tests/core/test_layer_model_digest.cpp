// Pins the exact layer MILPs IlpLayerModel builds and lp::presolve reduces.
// The instances are the milp-closure layer models: cases 2 and 3 at
// t = 10, 5, 3 and 2, captured with the gate opened to the benchmark
// capture box (12 ops / 10 devices). For each one the test hashes (FNV-1a)
// the bit patterns of
//   - the built model: bounds, objective, integrality kinds, row terms,
//     senses and right-hand sides, in column and row order;
//   - the presolve output: the reduced model in the same form, plus each
//     original column's origin (fixed value, or reduced column index);
// and compares them with recorded constants.
//
// A mismatch means the model or its reduction changed, down to the last
// bit of one coefficient: a change meant to keep the search's input must
// leave every constant untouched. The failure message prints the values.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/ilp_layer_model.hpp"
#include "lp/presolve.hpp"
#include "support/layer_capture.hpp"

namespace cohls::core {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(int value) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(value))); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

void add_lp(Fnv1a& hash, const lp::LpModel& model) {
  hash.add(model.variable_count());
  for (lp::Col c = 0; c < model.variable_count(); ++c) {
    hash.add(model.lower_bound(c));
    hash.add(model.upper_bound(c));
    hash.add(model.objective_coefficient(c));
  }
  hash.add(model.constraint_count());
  for (lp::Row r = 0; r < model.constraint_count(); ++r) {
    hash.add(static_cast<int>(model.row_sense(r)));
    hash.add(model.row_rhs(r));
    hash.add(static_cast<int>(model.row_terms(r).size()));
    for (const auto& [col, coef] : model.row_terms(r)) {
      hash.add(col);
      hash.add(coef);
    }
  }
}

std::uint64_t model_digest(const milp::MilpModel& model) {
  Fnv1a hash;
  add_lp(hash, model.lp());
  for (lp::Col c = 0; c < model.variable_count(); ++c) {
    hash.add(static_cast<int>(model.kind(c)));
  }
  return hash.value();
}

std::uint64_t presolve_digest(const lp::Presolved& pre) {
  Fnv1a hash;
  hash.add(pre.infeasible() ? 1 : 0);
  if (pre.infeasible()) {
    return hash.value();
  }
  add_lp(hash, pre.model());
  hash.add(pre.original_column_count());
  for (lp::Col c = 0; c < pre.original_column_count(); ++c) {
    if (pre.column_fixed(c)) {
      hash.add(1);
      hash.add(pre.fixed_value(c));
    } else {
      hash.add(0);
      hash.add(pre.reduced_column(c));
    }
  }
  return hash.value();
}

struct Recorded {
  const char* instance;
  int variables;
  int constraints;
  std::uint64_t model;
  std::uint64_t presolved;
};

constexpr Recorded kRecorded[] = {
    {"case2-t10-L0#1", 386, 1335, 0x9a5c7184269adc02ULL, 0x710972ef6e682cc8ULL},
    {"case3-t10-L0#1", 386, 1335, 0xf1ff030324cd94c3ULL, 0xe714ac8c1ee3d39dULL},
    {"case2-t5-L0#1", 131, 305, 0xaefcde377d98630cULL, 0xb73c7506e84b6e6dULL},
    {"case3-t5-L0#1", 131, 305, 0x813fcba42b8f1959ULL, 0xa2bd285e6369d238ULL},
    {"case2-t3-L0#1", 64, 117, 0xf864d226d7e33638ULL, 0x7d7afa1b49f350bbULL},
    {"case2-t3-L0#2", 82, 147, 0xdd599f5fb96ef49ULL, 0xa1ffae155eb2ba9ULL},
    {"case3-t3-L0#1", 64, 117, 0xf10c71f9fb9e195eULL, 0x803c1efe673ae99dULL},
    {"case3-t3-L0#2", 82, 147, 0x6e3804bb280f8e7ULL, 0x2cd57b0d06e2120fULL},
    {"case2-t2-L0#1", 54, 84, 0x19412f97fe2eacecULL, 0xd0427db5bb1ffabbULL},
    {"case2-t2-L0#2", 60, 93, 0x67063caec0d47ff5ULL, 0xbcf8e61a78dab1f1ULL},
    {"case3-t2-L0#1", 54, 84, 0xfebcf9f680fdb458ULL, 0xb53057c1044f354fULL},
    {"case3-t2-L0#2", 64, 99, 0xb8f0c448aa5015dfULL, 0x91f88520c9c95039ULL},
};

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value << "ULL";
  return out.str();
}

TEST(LayerModelDigest, ClosureInstancesBuildAndPresolveBitIdentically) {
  const std::vector<oracles::LayerCapture> captures = oracles::capture_closure_layers();
  std::ostringstream seen;
  for (const oracles::LayerCapture& capture : captures) {
    const IlpLayerModel ilp(*capture.assay, capture.inputs, capture.transport, capture.costs);
    const milp::MilpModel& model = ilp.model();
    const lp::Presolved pre = lp::presolve(model.lp());
    seen << "    {\"" << capture.name << "\", " << model.variable_count() << ", "
         << model.constraint_count() << ", " << hex(model_digest(model)) << ", "
         << hex(presolve_digest(pre)) << "},\n";
  }
  std::ostringstream expected;
  for (const Recorded& r : kRecorded) {
    expected << "    {\"" << r.instance << "\", " << r.variables << ", " << r.constraints
             << ", " << hex(r.model) << ", " << hex(r.presolved) << "},\n";
  }
  EXPECT_EQ(expected.str(), seen.str()) << "built:\n" << seen.str();
}

}  // namespace
}  // namespace cohls::core
