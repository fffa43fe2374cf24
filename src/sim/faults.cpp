#include "sim/faults.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace cohls::sim {

namespace {

/// Splits a line into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

long parse_long(const std::string& token, const char* what, int line) {
  try {
    std::size_t used = 0;
    const long value = std::stol(token, &used);
    if (used != token.size()) {
      throw FaultPlanError(std::string("trailing characters after ") + what + ": '" +
                               token + "'",
                           line);
    }
    return value;
  } catch (const FaultPlanError&) {
    throw;
  } catch (const std::exception&) {
    throw FaultPlanError(std::string("expected a number for ") + what + ", got '" +
                             token + "'",
                         line);
  }
}

/// A device or operation id: a number that fits an id without wrapping.
/// Negative values pass through so the caller's validity check rejects them.
std::int32_t parse_id(const std::string& token, const char* what, int line) {
  const long value = parse_long(token, what, line);
  if (value > std::numeric_limits<std::int32_t>::max() ||
      value < std::numeric_limits<std::int32_t>::min()) {
    throw FaultPlanError(std::string(what) + " out of range: '" + token + "'", line);
  }
  return static_cast<std::int32_t>(value);
}

double parse_double(const std::string& token, const char* what, int line) {
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used != token.size()) {
      throw FaultPlanError(std::string("trailing characters after ") + what + ": '" +
                               token + "'",
                           line);
    }
    return value;
  } catch (const FaultPlanError&) {
    throw;
  } catch (const std::exception&) {
    throw FaultPlanError(std::string("expected a number for ") + what + ", got '" +
                             token + "'",
                         line);
  }
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::DeviceFailure:
      return "device-fail";
    case FaultKind::Degradation:
      return "degrade";
    case FaultKind::AttemptExhaustion:
      return "exhaust";
    case FaultKind::TransportDelay:
      return "transport-delay";
  }
  return "unknown";
}

std::optional<Minutes> FaultPlan::device_failure_at(DeviceId device) const {
  std::optional<Minutes> earliest;
  for (const FaultEvent& event : events) {
    if (event.kind == FaultKind::DeviceFailure && event.device == device) {
      if (!earliest || event.at < *earliest) {
        earliest = event.at;
      }
    }
  }
  return earliest;
}

double FaultPlan::degradation_factor(DeviceId device, Minutes start) const {
  double factor = 1.0;
  for (const FaultEvent& event : events) {
    if (event.kind == FaultKind::Degradation && event.device == device &&
        event.at <= start) {
      factor *= event.factor;
    }
  }
  return factor;
}

bool FaultPlan::exhausts(OperationId op) const {
  for (const FaultEvent& event : events) {
    if (event.kind == FaultKind::AttemptExhaustion && event.op == op) {
      return true;
    }
  }
  return false;
}

Minutes FaultPlan::transport_delay(Minutes at) const {
  Minutes delay{0};
  for (const FaultEvent& event : events) {
    if (event.kind == FaultKind::TransportDelay && event.at <= at) {
      delay += event.delay;
    }
  }
  return delay;
}

FaultPlan parse_fault_plan(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    FaultEvent event;
    const std::string& directive = tokens.front();
    if (directive == "device-fail") {
      // device-fail <device-id> at <minute>
      if (tokens.size() != 4 || tokens[2] != "at") {
        throw FaultPlanError("expected: device-fail <device-id> at <minute>",
                             line_number);
      }
      event.kind = FaultKind::DeviceFailure;
      event.device = DeviceId{parse_id(tokens[1], "device id", line_number)};
      event.at = Minutes{parse_long(tokens[3], "failure time", line_number)};
      if (!event.device.valid() || event.at < Minutes{0}) {
        throw FaultPlanError("device id and failure time must be non-negative",
                             line_number);
      }
    } else if (directive == "degrade") {
      // degrade <device-id> by <factor> [from <minute>]
      const bool with_from = tokens.size() == 6 && tokens[4] == "from";
      if (!(tokens.size() == 4 || with_from) || tokens[2] != "by") {
        throw FaultPlanError(
            "expected: degrade <device-id> by <factor> [from <minute>]", line_number);
      }
      event.kind = FaultKind::Degradation;
      event.device = DeviceId{parse_id(tokens[1], "device id", line_number)};
      event.factor = parse_double(tokens[3], "degradation factor", line_number);
      if (with_from) {
        event.at = Minutes{parse_long(tokens[5], "activation time", line_number)};
      }
      if (!event.device.valid() || !std::isfinite(event.factor) || event.factor < 1.0 ||
          event.at < Minutes{0}) {
        throw FaultPlanError(
            "degradation needs a valid device, a finite factor >= 1 and a non-negative "
            "time",
            line_number);
      }
    } else if (directive == "exhaust") {
      // exhaust <op-id>
      if (tokens.size() != 2) {
        throw FaultPlanError("expected: exhaust <op-id>", line_number);
      }
      event.kind = FaultKind::AttemptExhaustion;
      event.op = OperationId{parse_id(tokens[1], "operation id", line_number)};
      if (!event.op.valid()) {
        throw FaultPlanError("operation id must be non-negative", line_number);
      }
    } else if (directive == "transport-delay") {
      // transport-delay <minutes> [from <minute>]
      const bool with_from = tokens.size() == 4 && tokens[2] == "from";
      if (!(tokens.size() == 2 || with_from)) {
        throw FaultPlanError("expected: transport-delay <minutes> [from <minute>]",
                             line_number);
      }
      event.kind = FaultKind::TransportDelay;
      event.delay = Minutes{parse_long(tokens[1], "delay", line_number)};
      if (with_from) {
        event.at = Minutes{parse_long(tokens[3], "activation time", line_number)};
      }
      if (event.delay < Minutes{0} || event.at < Minutes{0}) {
        throw FaultPlanError("delay and activation time must be non-negative",
                             line_number);
      }
    } else {
      throw FaultPlanError("unknown fault directive: '" + directive + "'", line_number);
    }
    plan.events.push_back(event);
  }
  return plan;
}

std::string to_text(const FaultPlan& plan) {
  std::ostringstream out;
  for (const FaultEvent& event : plan.events) {
    switch (event.kind) {
      case FaultKind::DeviceFailure:
        out << "device-fail " << event.device << " at " << event.at.count() << "\n";
        break;
      case FaultKind::Degradation:
        out << "degrade " << event.device << " by " << event.factor;
        if (event.at > Minutes{0}) {
          out << " from " << event.at.count();
        }
        out << "\n";
        break;
      case FaultKind::AttemptExhaustion:
        out << "exhaust " << event.op << "\n";
        break;
      case FaultKind::TransportDelay:
        out << "transport-delay " << event.delay.count();
        if (event.at > Minutes{0}) {
          out << " from " << event.at.count();
        }
        out << "\n";
        break;
    }
  }
  return out.str();
}

}  // namespace cohls::sim
