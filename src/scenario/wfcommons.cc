#include "scenario/wfcommons.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <sstream>
#include <utility>

#include "core/flow_graph.h"
#include "core/stage.h"
#include "fault/adapters.h"
#include "fault/injector.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/strings.h"

namespace dflow::scenario {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader. Scope: exactly what workflow-instance documents need
// (objects, arrays, strings, finite numbers, booleans, null), hardened the
// way the journal reader is hardened — every malformed input is an error
// Status, the scan always advances, and nesting is depth-capped so a
// pathological document cannot blow the stack.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool bool_v = false;
  double num_v = 0.0;
  std::string str_v;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;  // Insertion order.

  const Json* Find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsString() const { return type == Type::kString; }
  bool IsNumber() const { return type == Type::kNumber; }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view in) : in_(in) {}

  Result<Json> Parse() {
    DFLOW_ASSIGN_OR_RETURN(Json value, ParseValue());
    SkipWs();
    if (pos_ != in_.size()) {
      return Err("trailing bytes after document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 96;

  Status Err(const std::string& what) const {
    return Status::Corruption("json: " + what + " at byte " +
                              std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\t' || in_[pos_] == '\n' ||
            in_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    if (++depth_ > kMaxDepth) {
      --depth_;
      return Err("nesting deeper than " + std::to_string(kMaxDepth));
    }
    SkipWs();
    Result<Json> result = ParseValueInner();
    --depth_;
    return result;
  }

  Result<Json> ParseValueInner() {
    if (pos_ >= in_.size()) {
      return Err("unexpected end of input");
    }
    char c = in_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        DFLOW_ASSIGN_OR_RETURN(std::string s, ParseString());
        Json value;
        value.type = Json::Type::kString;
        value.str_v = std::move(s);
        return value;
      }
      case 't':
        return ParseLiteral("true", [] {
          Json v;
          v.type = Json::Type::kBool;
          v.bool_v = true;
          return v;
        });
      case 'f':
        return ParseLiteral("false", [] {
          Json v;
          v.type = Json::Type::kBool;
          v.bool_v = false;
          return v;
        });
      case 'n':
        return ParseLiteral("null", [] { return Json{}; });
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
          return ParseNumber();
        }
        return Err(std::string("unexpected character '") + c + "'");
    }
  }

  template <typename MakeFn>
  Result<Json> ParseLiteral(std::string_view word, MakeFn make) {
    if (in_.substr(pos_, word.size()) != word) {
      return Err("bad literal");
    }
    pos_ += word.size();
    return make();
  }

  Result<Json> ParseObject() {
    ++pos_;  // '{'
    Json value;
    value.type = Json::Type::kObject;
    SkipWs();
    if (Eat('}')) {
      return value;
    }
    while (true) {
      SkipWs();
      if (pos_ >= in_.size() || in_[pos_] != '"') {
        return Err("expected object key");
      }
      DFLOW_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (!Eat(':')) {
        return Err("expected ':'");
      }
      DFLOW_ASSIGN_OR_RETURN(Json member, ParseValue());
      value.obj.emplace_back(std::move(key), std::move(member));
      SkipWs();
      if (Eat(',')) {
        continue;
      }
      if (Eat('}')) {
        return value;
      }
      return Err("expected ',' or '}'");
    }
  }

  Result<Json> ParseArray() {
    ++pos_;  // '['
    Json value;
    value.type = Json::Type::kArray;
    SkipWs();
    if (Eat(']')) {
      return value;
    }
    while (true) {
      DFLOW_ASSIGN_OR_RETURN(Json element, ParseValue());
      value.arr.push_back(std::move(element));
      SkipWs();
      if (Eat(',')) {
        continue;
      }
      if (Eat(']')) {
        return value;
      }
      return Err("expected ',' or ']'");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= in_.size()) {
        return Err("unterminated string");
      }
      unsigned char c = static_cast<unsigned char>(in_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) {
        return Err("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // '\\'
      if (pos_ >= in_.size()) {
        return Err("dangling escape");
      }
      char e = in_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          DFLOW_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            if (pos_ + 1 >= in_.size() || in_[pos_] != '\\' ||
                in_[pos_ + 1] != 'u') {
              return Err("unpaired surrogate");
            }
            pos_ += 2;
            DFLOW_ASSIGN_OR_RETURN(uint32_t lo, ParseHex4());
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Err("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Err("unpaired surrogate");
          }
          AppendUtf8(cp, &out);
          break;
        }
        default:
          return Err("bad escape");
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > in_.size()) {
      return Err("truncated \\u escape");
    }
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = in_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Err("bad \\u digit");
      }
    }
    pos_ += 4;
    return value;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    Eat('-');
    if (pos_ >= in_.size()) {
      return Err("truncated number");
    }
    if (!EatDigits()) {
      return Err("expected digit");
    }
    if (Eat('.')) {
      if (!EatDigits()) {
        return Err("expected fraction digit");
      }
    }
    if (pos_ < in_.size() && (in_[pos_] == 'e' || in_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < in_.size() && (in_[pos_] == '+' || in_[pos_] == '-')) {
        ++pos_;
      }
      if (!EatDigits()) {
        return Err("expected exponent digit");
      }
    }
    std::string token(in_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      return Err("unrepresentable number");
    }
    Json number;
    number.type = Json::Type::kNumber;
    number.num_v = value;
    return number;
  }

  bool EatDigits() {
    size_t start = pos_;
    while (pos_ < in_.size() && in_[pos_] >= '0' && in_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  std::string_view in_;
  size_t pos_ = 0;
  int depth_ = 0;
};

// ---------------------------------------------------------------------------
// Instance extraction and validation.

Status Invalid(const std::string& what) {
  return Status::InvalidArgument("wfcommons: " + what);
}

Result<std::vector<std::string>> StringArray(const Json& value,
                                             const std::string& what) {
  if (!value.IsArray()) {
    return Invalid(what + " must be an array of task ids");
  }
  std::vector<std::string> out;
  out.reserve(value.arr.size());
  for (const Json& element : value.arr) {
    if (!element.IsString()) {
      return Invalid(what + " must contain only strings");
    }
    out.push_back(element.str_v);
  }
  return out;
}

void SortUnique(std::vector<std::string>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

Status CheckAcyclic(const WorkflowInstance& instance) {
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < instance.tasks.size(); ++i) {
    index[instance.tasks[i].id] = i;
  }
  std::vector<int> pending(instance.tasks.size(), 0);
  std::queue<size_t> ready;
  for (size_t i = 0; i < instance.tasks.size(); ++i) {
    pending[i] = static_cast<int>(instance.tasks[i].parents.size());
    if (pending[i] == 0) {
      ready.push(i);
    }
  }
  size_t processed = 0;
  while (!ready.empty()) {
    size_t i = ready.front();
    ready.pop();
    ++processed;
    for (const std::string& child : instance.tasks[i].children) {
      size_t j = index[child];
      if (--pending[j] == 0) {
        ready.push(j);
      }
    }
  }
  if (processed != instance.tasks.size()) {
    return Invalid("task dependency graph has a cycle");
  }
  return Status::OK();
}

std::string FmtDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::vector<std::string> WorkflowInstance::SourceTaskIds() const {
  std::vector<std::string> sources;
  for (const WorkflowTask& task : tasks) {
    if (task.parents.empty()) {
      sources.push_back(task.id);
    }
  }
  return sources;
}

double WorkflowInstance::TotalRuntimeSec() const {
  double total = 0.0;
  for (const WorkflowTask& task : tasks) {
    total += task.runtime_sec;
  }
  return total;
}

Result<WorkflowInstance> ParseWfInstance(std::string_view json) {
  JsonReader reader(json);
  DFLOW_ASSIGN_OR_RETURN(Json root, reader.Parse());
  if (!root.IsObject()) {
    return Invalid("document root must be an object");
  }
  WorkflowInstance instance;
  if (const Json* name = root.Find("name"); name != nullptr) {
    if (!name->IsString()) {
      return Invalid("'name' must be a string");
    }
    instance.name = name->str_v;
  } else {
    instance.name = "workflow";
  }

  const Json* workflow = root.Find("workflow");
  if (workflow == nullptr || !workflow->IsObject()) {
    return Invalid("missing 'workflow' object");
  }

  // Task list: either workflow.tasks (flat) or
  // workflow.specification.tasks (1.4+ split layout).
  const Json* tasks = workflow->Find("tasks");
  if (const Json* spec = workflow->Find("specification"); spec != nullptr) {
    if (!spec->IsObject()) {
      return Invalid("'specification' must be an object");
    }
    tasks = spec->Find("tasks");
  }
  if (tasks == nullptr || !tasks->IsArray()) {
    return Invalid("missing task array");
  }
  if (tasks->arr.empty()) {
    return Invalid("instance has no tasks");
  }

  // Optional execution block: per-task measured runtimes keyed by id.
  std::map<std::string, double> execution_runtimes;
  if (const Json* execution = workflow->Find("execution");
      execution != nullptr) {
    if (!execution->IsObject()) {
      return Invalid("'execution' must be an object");
    }
    const Json* exec_tasks = execution->Find("tasks");
    if (exec_tasks != nullptr) {
      if (!exec_tasks->IsArray()) {
        return Invalid("'execution.tasks' must be an array");
      }
      for (const Json& entry : exec_tasks->arr) {
        if (!entry.IsObject()) {
          return Invalid("execution task entries must be objects");
        }
        const Json* id = entry.Find("id");
        if (id == nullptr) {
          id = entry.Find("name");
        }
        const Json* runtime = entry.Find("runtimeInSeconds");
        if (runtime == nullptr) {
          runtime = entry.Find("runtime");
        }
        if (id == nullptr || !id->IsString() || runtime == nullptr ||
            !runtime->IsNumber()) {
          return Invalid("execution task entries need id + runtime");
        }
        execution_runtimes[id->str_v] = runtime->num_v;
      }
    }
  }

  std::set<std::string> seen_ids;
  for (const Json& entry : tasks->arr) {
    if (!entry.IsObject()) {
      return Invalid("task entries must be objects");
    }
    WorkflowTask task;
    const Json* id = entry.Find("id");
    const Json* name = entry.Find("name");
    if (id != nullptr && !id->IsString()) {
      return Invalid("task 'id' must be a string");
    }
    if (name != nullptr && !name->IsString()) {
      return Invalid("task 'name' must be a string");
    }
    task.id = id != nullptr ? id->str_v
                            : (name != nullptr ? name->str_v : "");
    if (task.id.empty()) {
      return Invalid("task without an id");
    }
    task.name = name != nullptr ? name->str_v : task.id;
    if (!seen_ids.insert(task.id).second) {
      return Invalid("duplicate task id '" + task.id + "'");
    }

    const Json* runtime = entry.Find("runtimeInSeconds");
    if (runtime == nullptr) {
      runtime = entry.Find("runtime");
    }
    if (runtime != nullptr) {
      if (!runtime->IsNumber()) {
        return Invalid("runtime of task '" + task.id + "' must be a number");
      }
      task.runtime_sec = runtime->num_v;
    } else if (auto it = execution_runtimes.find(task.id);
               it != execution_runtimes.end()) {
      task.runtime_sec = it->second;
    } else {
      return Invalid("task '" + task.id + "' is missing a runtime");
    }
    if (!std::isfinite(task.runtime_sec) || task.runtime_sec < 0.0) {
      return Invalid("task '" + task.id + "' has a negative runtime");
    }

    const Json* bytes = entry.Find("outputBytes");
    if (bytes == nullptr) {
      bytes = entry.Find("bytes");
    }
    if (bytes != nullptr) {
      if (!bytes->IsNumber() || !std::isfinite(bytes->num_v) ||
          bytes->num_v < 0.0 || bytes->num_v > 4.0e18) {
        return Invalid("task '" + task.id + "' has invalid output bytes");
      }
      task.output_bytes = static_cast<int64_t>(bytes->num_v);
    }

    if (const Json* parents = entry.Find("parents"); parents != nullptr) {
      DFLOW_ASSIGN_OR_RETURN(task.parents, StringArray(*parents, "parents"));
    }
    if (const Json* children = entry.Find("children"); children != nullptr) {
      DFLOW_ASSIGN_OR_RETURN(task.children,
                             StringArray(*children, "children"));
    }
    instance.tasks.push_back(std::move(task));
  }

  // Resolve references and take the symmetric closure: an edge declared on
  // either endpoint exists on both afterwards.
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < instance.tasks.size(); ++i) {
    index[instance.tasks[i].id] = i;
  }
  for (WorkflowTask& task : instance.tasks) {
    for (const std::string& parent : task.parents) {
      if (parent == task.id) {
        return Invalid("task '" + task.id + "' depends on itself");
      }
      auto it = index.find(parent);
      if (it == index.end()) {
        return Invalid("task '" + task.id + "' references unknown parent '" +
                       parent + "'");
      }
      instance.tasks[it->second].children.push_back(task.id);
    }
    for (const std::string& child : task.children) {
      if (child == task.id) {
        return Invalid("task '" + task.id + "' depends on itself");
      }
      auto it = index.find(child);
      if (it == index.end()) {
        return Invalid("task '" + task.id + "' references unknown child '" +
                       child + "'");
      }
    }
  }
  for (WorkflowTask& task : instance.tasks) {
    for (const std::string& child : task.children) {
      instance.tasks[index[child]].parents.push_back(task.id);
    }
  }
  for (WorkflowTask& task : instance.tasks) {
    SortUnique(task.parents);
    SortUnique(task.children);
  }
  DFLOW_RETURN_IF_ERROR(CheckAcyclic(instance));
  return instance;
}

std::string EmitWfInstance(const WorkflowInstance& instance) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"name\": " << JsonQuote(instance.name) << ",\n";
  os << "  \"schemaVersion\": \"1.5\",\n";
  os << "  \"workflow\": {\n";
  os << "    \"tasks\": [\n";
  for (size_t i = 0; i < instance.tasks.size(); ++i) {
    const WorkflowTask& task = instance.tasks[i];
    os << "      {\n";
    os << "        \"id\": " << JsonQuote(task.id) << ",\n";
    os << "        \"name\": " << JsonQuote(task.name) << ",\n";
    os << "        \"runtimeInSeconds\": " << FmtDouble(task.runtime_sec)
       << ",\n";
    os << "        \"outputBytes\": " << task.output_bytes << ",\n";
    os << "        \"parents\": [";
    for (size_t p = 0; p < task.parents.size(); ++p) {
      os << (p == 0 ? "" : ", ") << JsonQuote(task.parents[p]);
    }
    os << "],\n";
    os << "        \"children\": [";
    for (size_t c = 0; c < task.children.size(); ++c) {
      os << (c == 0 ? "" : ", ") << JsonQuote(task.children[c]);
    }
    os << "]\n";
    os << "      }" << (i + 1 < instance.tasks.size() ? "," : "") << "\n";
  }
  os << "    ]\n";
  os << "  }\n";
  os << "}\n";
  return os.str();
}

namespace {

/// Shared replay bookkeeping the join stages write into (single-threaded
/// under the simulation).
struct ReplayState {
  sim::Simulation* sim = nullptr;
  std::vector<double> sojourn_sec;
  int64_t tasks_completed = 0;
};

/// One workflow task as a FlowRunner stage with join semantics: a task
/// with P parents spreads its runtime over P arrivals (incremental work)
/// and emits its single output product when the last arrival is serviced —
/// so the output cannot exist before every parent delivered, and the total
/// virtual work equals the instance's measured runtime exactly.
class JoinTaskStage : public core::Stage {
 public:
  JoinTaskStage(const WorkflowTask& task, ReplayState* state)
      : core::Stage(
            task.id,
            core::StageCosts{
                task.runtime_sec /
                    static_cast<double>(std::max<size_t>(task.parents.size(),
                                                         1)),
                0.0}),
        state_(state),
        expected_(static_cast<int>(std::max<size_t>(task.parents.size(), 1))),
        output_bytes_(task.output_bytes) {}

  Result<std::vector<core::DataProduct>> Process(
      const core::DataProduct& input) override {
    double now = state_->sim->Now();
    double ready = std::strtod(input.Attr("wf.ready_at", "0").c_str(),
                               nullptr);
    state_->sojourn_sec.push_back(now - ready);
    if (++arrivals_ < expected_) {
      return std::vector<core::DataProduct>{};
    }
    ++state_->tasks_completed;
    core::DataProduct output;
    output.name = name();
    output.bytes = output_bytes_;
    output.attributes["wf.ready_at"] = FmtDouble(now);
    return std::vector<core::DataProduct>{output};
  }

 private:
  ReplayState* state_;
  int expected_;
  int arrivals_ = 0;
  int64_t output_bytes_;
};

}  // namespace

Result<WfReplayOutcome> ReplayWfInstance(const WorkflowInstance& instance,
                                         const WfReplayConfig& config) {
  if (instance.tasks.empty()) {
    return Invalid("cannot replay an empty instance");
  }
  if (config.source_arrival_mean_gap_sec < 0.0) {
    return Invalid("source arrival gap must be >= 0");
  }
  sim::Simulation sim;
  ReplayState state;
  state.sim = &sim;

  core::FlowGraph graph;
  for (const WorkflowTask& task : instance.tasks) {
    DFLOW_RETURN_IF_ERROR(
        graph.AddStage(std::make_shared<JoinTaskStage>(task, &state)));
  }
  for (const WorkflowTask& task : instance.tasks) {
    for (const std::string& child : task.children) {
      DFLOW_RETURN_IF_ERROR(graph.Connect(task.id, child));
    }
  }

  core::FlowRunner runner(&sim, &graph, config.seed);
  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kExternal;
  trace_config.external_now_sec = [&sim] { return sim.Now(); };
  obs::Tracer tracer(trace_config);
  DFLOW_RETURN_IF_ERROR(runner.SetTracer(&tracer));
  for (const WorkflowTask& task : instance.tasks) {
    DFLOW_RETURN_IF_ERROR(runner.SetRetryPolicy(task.id, config.retry));
  }

  // Chaos: arm the plan's stage-fault hooks for every task, so events
  // targeting any task id land. Unmatched events (typo'd targets) are
  // counted by the injector, not silently dropped.
  std::unique_ptr<fault::Injector> injector;
  if (config.plan != nullptr) {
    injector = std::make_unique<fault::Injector>(&sim, *config.plan);
    for (const WorkflowTask& task : instance.tasks) {
      fault::ArmFlowRunnerStage(*injector, &runner, task.id);
    }
    DFLOW_RETURN_IF_ERROR(injector->Arm());
  }

  // Source products arrive at seeded exponential gaps — the replay's one
  // stochastic degree of freedom (trace DAG and runtimes are data).
  Rng arrivals(config.seed);
  double at = 0.0;
  for (const std::string& source : instance.SourceTaskIds()) {
    core::DataProduct product;
    product.name = source + ":input";
    product.bytes = 0;
    product.attributes["wf.ready_at"] = FmtDouble(at);
    DFLOW_RETURN_IF_ERROR(runner.Inject(source, std::move(product), at));
    if (config.source_arrival_mean_gap_sec > 0.0) {
      at += arrivals.Exponential(1.0 / config.source_arrival_mean_gap_sec);
    }
  }

  DFLOW_RETURN_IF_ERROR(runner.Run());

  WfReplayOutcome outcome;
  outcome.makespan_sec = sim.Now();
  outcome.tasks_completed = state.tasks_completed;
  outcome.dead_lettered =
      static_cast<int64_t>(runner.dead_letters().size());
  outcome.retries = runner.total_retries();
  outcome.errors = runner.total_errors();
  outcome.faults_injected = injector != nullptr ? injector->injected() : 0;
  outcome.sojourn_sec = std::move(state.sojourn_sec);
  outcome.report = runner.Report();
  outcome.trace_json = tracer.ExportChromeJson();
  outcome.trace_fingerprint = tracer.Fingerprint();
  return outcome;
}

}  // namespace dflow::scenario
