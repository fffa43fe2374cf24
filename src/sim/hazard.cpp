#include "sim/hazard.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/lexer.hpp"
#include "util/rng.hpp"

namespace cohls::sim {

namespace {

/// Hazard draws mix the master seed with these tags so hazard streams can
/// never collide with other per-run streams derived from the same seed.
constexpr std::uint64_t kHazardStreamTag = 0x48415A41524421ULL;  // "HAZARD!"

/// Ceiling on sampled failure times: far enough out that no replay reaches
/// it, small enough that the conversion to integer minutes can never
/// overflow.
constexpr double kMaxFailureMinutes = 1e15;

Minutes clamp_minutes(double t) {
  if (!(t >= 0.0)) {
    return Minutes{0};
  }
  return Minutes{static_cast<std::int64_t>(std::ceil(std::min(t, kMaxFailureMinutes)))};
}

}  // namespace

std::string_view to_string(HazardFamily family) {
  switch (family) {
    case HazardFamily::Exponential:
      return "exponential";
    case HazardFamily::Weibull:
      return "weibull";
  }
  return "unknown";
}

Minutes HazardDistribution::sample(double u) const {
  COHLS_EXPECT(u >= 0.0 && u < 1.0, "hazard draw must be in [0, 1)");
  // Inverse CDF. log1p(-u) = ln(1 - u) is exact near u = 0, where most
  // draws land for long-lived hardware.
  const double exponent = -std::log1p(-u);
  switch (family) {
    case HazardFamily::Exponential:
      return clamp_minutes(scale * exponent);
    case HazardFamily::Weibull:
      return clamp_minutes(scale * std::pow(exponent, 1.0 / shape));
  }
  return Minutes{0};
}

void HazardModel::add_rule(HazardRule rule) {
  COHLS_EXPECT(rule.dist.scale > 0.0, "hazard scale must be positive");
  COHLS_EXPECT(rule.dist.shape > 0.0, "hazard shape must be positive");
  rules_.push_back(rule);
}

void HazardModel::sample_into(FaultPlan& plan, const model::DeviceInventory& devices,
                              std::uint64_t master_seed, std::uint64_t run,
                              Minutes horizon) const {
  if (rules_.empty()) {
    return;
  }
  const std::uint64_t run_seed = derive_stream_seed(master_seed, kHazardStreamTag, run);
  for (const model::Device& device : devices.devices()) {
    // One stream per (run, device): draws consume nothing from other
    // devices' streams, so the sampled plan is independent of device count
    // changes elsewhere and of worker scheduling.
    Rng rng{derive_stream_seed(run_seed, static_cast<std::uint64_t>(device.id.value()), 0)};
    bool failed = false;
    Minutes failure_at{0};
    for (const HazardRule& rule : rules_) {
      // Every applicable rule consumes exactly one draw, in rule order.
      if (rule.accessory >= 0 && !device.config.accessories.contains(rule.accessory)) {
        continue;
      }
      const Minutes t = rule.dist.sample(rng.uniform_double());
      if (!failed || t < failure_at) {
        failed = true;
        failure_at = t;
      }
    }
    if (failed && failure_at < horizon) {
      FaultEvent event;
      event.kind = FaultKind::DeviceFailure;
      event.device = device.id;
      event.at = failure_at;
      plan.events.push_back(event);
    }
  }
}

namespace {

double parse_positive(std::string_view token, const char* what) {
  double value = 0.0;
  try {
    value = lex::to_double(token);
  } catch (const lex::Error& e) {
    throw HazardSpecError(std::string(what) + ": " + e.what());
  }
  if (!(value > 0.0)) {
    throw HazardSpecError(std::string(what) + " must be positive, got '" +
                          std::string(token) + "'");
  }
  return value;
}

}  // namespace

HazardModel parse_hazard_spec(const std::string& spec,
                              const model::AccessoryRegistry& registry) {
  HazardModel model;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t next = rest.find(';');
    const std::string_view clause = lex::trim(rest.substr(0, next));
    rest = next == std::string_view::npos ? std::string_view{} : rest.substr(next + 1);
    if (clause.empty()) {
      continue;
    }

    HazardRule rule;
    std::string_view dist = clause;
    if (const std::size_t eq = clause.find('='); eq != std::string_view::npos) {
      std::string target(lex::trim(clause.substr(0, eq)));
      dist = lex::trim(clause.substr(eq + 1));
      if (target != "default") {
        // CLI-friendly accessory names use '-' where registry names have
        // spaces: heating-pad -> "heating pad".
        std::replace(target.begin(), target.end(), '-', ' ');
        rule.accessory = registry.find(target);
        if (rule.accessory < 0) {
          throw HazardSpecError("unknown accessory '" + target + "' in hazard spec");
        }
      }
    }

    const std::size_t colon = dist.find(':');
    if (colon == std::string_view::npos) {
      throw HazardSpecError("expected <dist>:<params> in hazard clause '" +
                            std::string(clause) + "'");
    }
    const std::string_view family = lex::trim(dist.substr(0, colon));
    const std::string_view params = lex::trim(dist.substr(colon + 1));
    if (family == "exp" || family == "exponential") {
      rule.dist.family = HazardFamily::Exponential;
      rule.dist.scale = parse_positive(params, "exponential scale");
    } else if (family == "weibull") {
      rule.dist.family = HazardFamily::Weibull;
      const std::size_t comma = params.find(',');
      if (comma == std::string_view::npos) {
        throw HazardSpecError("weibull needs <scale>,<shape>, got '" + std::string(params) +
                              "'");
      }
      rule.dist.scale = parse_positive(lex::trim(params.substr(0, comma)), "weibull scale");
      rule.dist.shape = parse_positive(lex::trim(params.substr(comma + 1)), "weibull shape");
    } else {
      throw HazardSpecError("unknown hazard distribution '" + std::string(family) + "'");
    }
    model.add_rule(rule);
  }
  return model;
}

}  // namespace cohls::sim
