// Test-only replay reference: the original three-pass implementation of
// sim::simulate_run (full-window materialization and O(windows x faults)
// break scans). The event-wheel replay must produce bit-identical RunTraces
// for every input; the parity tests and bench_sim's baseline loop hold it
// to that.
#pragma once

#include "model/assay.hpp"
#include "schedule/types.hpp"
#include "sim/runtime.hpp"

namespace cohls::oracles {

[[nodiscard]] sim::RunTrace simulate_run_reference(const schedule::SynthesisResult& result,
                                                   const model::Assay& assay,
                                                   const sim::RuntimeOptions& options = {});

}  // namespace cohls::oracles
