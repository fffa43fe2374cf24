#include "sim/faults.hpp"

#include <cstdint>
#include <sstream>

#include "util/check.hpp"
#include "util/lexer.hpp"

namespace cohls::sim {

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
  lex::Lines lines(text);
  try {
    while (lines.next()) {
      const int line_number = lines.number();
      lex::Cursor cursor(lines.text());
      std::vector<std::string_view> tokens;
      while (!cursor.at_end()) {
        tokens.push_back(cursor.word());
      }
      FaultEvent event;
      const std::string_view directive = tokens.front();
      if (directive == "device-fail") {
        // device-fail <device-id> at <minute>
        if (tokens.size() != 4 || tokens[2] != "at") {
          throw FaultPlanError("expected: device-fail <device-id> at <minute>",
                               line_number);
        }
        event.kind = FaultKind::DeviceFailure;
        event.device = DeviceId{lex::to_int<std::int32_t>(tokens[1])};
        event.at = Minutes{lex::to_int<std::int64_t>(tokens[3])};
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
        event.device = DeviceId{lex::to_int<std::int32_t>(tokens[1])};
        event.factor = lex::to_double(tokens[3]);
        if (with_from) {
          event.at = Minutes{lex::to_int<std::int64_t>(tokens[5])};
        }
        if (!event.device.valid() || event.factor < 1.0 || event.at < Minutes{0}) {
          throw FaultPlanError(
              "degradation needs a valid device, a factor >= 1 and a non-negative time",
              line_number);
        }
      } else if (directive == "exhaust") {
        // exhaust <op-id>
        if (tokens.size() != 2) {
          throw FaultPlanError("expected: exhaust <op-id>", line_number);
        }
        event.kind = FaultKind::AttemptExhaustion;
        event.op = OperationId{lex::to_int<std::int32_t>(tokens[1])};
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
        event.delay = Minutes{lex::to_int<std::int64_t>(tokens[1])};
        if (with_from) {
          event.at = Minutes{lex::to_int<std::int64_t>(tokens[3])};
        }
        if (event.delay < Minutes{0} || event.at < Minutes{0}) {
          throw FaultPlanError("delay and activation time must be non-negative",
                               line_number);
        }
      } else {
        throw FaultPlanError("unknown fault directive: '" + std::string(directive) + "'",
                             line_number);
      }
      plan.events.push_back(event);
    }
  } catch (const lex::Error& e) {
    throw FaultPlanError(e.what(), lines.number());
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
        out << "degrade " << event.device << " by " << lex::format_double(event.factor);
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
