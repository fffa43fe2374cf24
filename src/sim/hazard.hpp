// Probabilistic hazard models for fleet simulation: per-accessory failure-
// time distributions sampled into deterministic FaultPlans. Where a
// FaultPlan scripts one specific what-if ("the heater dies at minute 90"),
// a HazardModel describes how hardware fails statistically — pumps wear out
// Weibull-shaped, optical systems die exponentially — and each fleet run
// draws concrete failure times from it.
//
// Determinism contract: draws come from counter-based streams derived from
// (master seed, run index, device id), never from a shared generator, so
// run r of a 10 000-run sweep samples the same failure times whether it is
// simulated first, last, alone, or on any of eight workers.
//
// Spec grammar (the `--hazard` CLI flag):
//
//   spec     := clause (';' clause)*
//   clause   := [target '='] dist
//   target   := 'default' | accessory name with '-' for spaces
//               (e.g. 'heating-pad', 'optical-system')
//   dist     := ('exp' | 'exponential') ':' scale
//             | 'weibull' ':' scale ',' shape
//
// `scale` and `shape` are positive finite reals (util/lexer.hpp grammar).
// `scale` is the characteristic life in minutes (the mean for exponential);
// `shape` is the Weibull shape k (k > 1 models wear-out). A clause without
// a target applies to every device; an accessory-targeted clause applies to
// devices carrying that accessory. A device's failure time is the minimum
// over all applicable distributions (competing risks).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "model/components.hpp"
#include "model/device.hpp"
#include "sim/faults.hpp"

namespace cohls::sim {

enum class HazardFamily {
  Exponential,
  Weibull,
};

[[nodiscard]] std::string_view to_string(HazardFamily family);

struct HazardDistribution {
  HazardFamily family = HazardFamily::Exponential;
  /// Characteristic life in minutes (> 0).
  double scale = 0.0;
  /// Weibull shape k (> 0); ignored for exponential.
  double shape = 1.0;

  /// Inverse-CDF sample at `u` in [0, 1), in whole minutes (rounded up, so
  /// a failure never lands before its continuous draw).
  [[nodiscard]] Minutes sample(double u) const;
};

/// One clause of a hazard spec.
struct HazardRule {
  /// Accessory gate: the rule applies to devices carrying this accessory;
  /// -1 applies to every device (the `default` target).
  model::AccessoryId accessory = -1;
  HazardDistribution dist;
};

/// Raised by parse_hazard_spec on a malformed or unknown clause.
class HazardSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class HazardModel {
 public:
  [[nodiscard]] bool empty() const { return rules_.empty(); }
  [[nodiscard]] const std::vector<HazardRule>& rules() const { return rules_; }

  void add_rule(HazardRule rule);

  /// Appends a `device-fail` event per device whose sampled failure time is
  /// below `horizon` (competing-risk minimum over the applicable rules, in
  /// rule order). Each device draws from its own counter-derived stream, so
  /// results depend only on (master_seed, run, device id).
  void sample_into(FaultPlan& plan, const model::DeviceInventory& devices,
                   std::uint64_t master_seed, std::uint64_t run, Minutes horizon) const;

 private:
  std::vector<HazardRule> rules_;
};

/// Parses the spec grammar documented above; accessory names resolve
/// against `registry`. Throws HazardSpecError on malformed clauses or
/// unknown accessories.
[[nodiscard]] HazardModel parse_hazard_spec(const std::string& spec,
                                            const model::AccessoryRegistry& registry);

}  // namespace cohls::sim
