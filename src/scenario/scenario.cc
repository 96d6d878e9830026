#include "scenario/scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/strings.h"

namespace dflow::scenario {
namespace {

double ClampScale(double scale) {
  return std::min(4.0, std::max(0.05, scale));
}

std::string FmtG(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

ScenarioParams ScenarioParams::FromEnv() {
  ScenarioParams params;
  if (const char* seed = std::getenv("DFLOW_SCENARIO_SEED");
      seed != nullptr && *seed != '\0') {
    char* end = nullptr;
    unsigned long long value = std::strtoull(seed, &end, 10);
    if (end != seed && *end == '\0') {
      params.seed = static_cast<uint64_t>(value);
    }
  }
  if (const char* scale = std::getenv("DFLOW_SCENARIO_SCALE");
      scale != nullptr && *scale != '\0') {
    char* end = nullptr;
    double value = std::strtod(scale, &end);
    if (end != scale && *end == '\0' && value > 0.0) {
      params.scale = ClampScale(value);
    }
  }
  return params;
}

std::string ScenarioResult::ToJsonRow() const {
  std::ostringstream os;
  os << "{\"scenario\": " << JsonQuote(name)
     << ", \"kind\": " << JsonQuote(kind)
     << ", \"seed\": " << seed
     << ", \"scale\": " << FmtG(scale)
     << ", \"offered\": " << offered
     << ", \"p50_ms\": " << FmtG(p50_ms)
     << ", \"p99_ms\": " << FmtG(p99_ms)
     << ", \"shed_rate\": " << FmtG(shed_rate)
     << ", \"recovery_sec\": " << FmtG(recovery_sec)
     << ", \"fingerprint\": " << JsonQuote(fingerprint);
  for (const auto& [key, value] : extra) {
    os << ", " << JsonQuote(key) << ": " << value;
  }
  os << "}";
  return os.str();
}

Status ScenarioRegistry::Register(Scenario scenario) {
  if (scenario.name.empty()) {
    return Status::InvalidArgument("scenario name must be non-empty");
  }
  if (scenario.run == nullptr) {
    return Status::InvalidArgument("scenario '" + scenario.name +
                                   "' has no run function");
  }
  for (const Scenario& existing : scenarios_) {
    if (existing.name == scenario.name) {
      return Status::AlreadyExists("scenario '" + scenario.name +
                                   "' already registered");
    }
  }
  scenarios_.push_back(std::move(scenario));
  return Status::OK();
}

Result<const Scenario*> ScenarioRegistry::Find(const std::string& name) const {
  for (const Scenario& scenario : scenarios_) {
    if (scenario.name == name) {
      return &scenario;
    }
  }
  return Status::NotFound("no scenario named '" + name + "'");
}

Result<ScenarioResult> ScenarioRegistry::Run(
    const std::string& name, const ScenarioParams& params) const {
  DFLOW_ASSIGN_OR_RETURN(const Scenario* scenario, Find(name));
  ScenarioParams clamped = params;
  clamped.scale = ClampScale(params.scale);
  DFLOW_ASSIGN_OR_RETURN(ScenarioResult result, scenario->run(clamped));
  result.name = scenario->name;
  result.kind = scenario->kind;
  result.seed = clamped.seed;
  result.scale = clamped.scale;
  return result;
}

}  // namespace dflow::scenario
