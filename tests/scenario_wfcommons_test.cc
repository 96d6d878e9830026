// WfCommons-style workflow-instance import: layout coverage (flat and
// split specification/execution documents), hostile-input hardening
// (malformed JSON, truncation at every byte, cycles, dangling refs,
// missing runtimes — always an error Status, never a crash or hang),
// a randomized emit->parse round-trip, and FlowRunner replay semantics
// (join tasks, seeded arrivals, deterministic traces).

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/wfcommons.h"
#include "util/rng.h"

namespace dflow::scenario {
namespace {

const WorkflowTask* FindTask(const WorkflowInstance& instance,
                             const std::string& id) {
  for (const WorkflowTask& task : instance.tasks) {
    if (task.id == id) {
      return &task;
    }
  }
  return nullptr;
}

constexpr char kDiamondJson[] = R"({
  "name": "diamond",
  "workflow": {
    "tasks": [
      {"id": "a", "runtime": 1.0, "outputBytes": 10, "parents": []},
      {"id": "b", "runtime": 2.0, "parents": ["a"]},
      {"id": "c", "runtime": 3.0, "parents": ["a"]},
      {"id": "d", "runtime": 4.0, "parents": ["b", "c"]}
    ]
  }
})";

TEST(WfParseTest, FlatLayoutWithSymmetricClosure) {
  auto parsed = ParseWfInstance(kDiamondJson);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->name, "diamond");
  ASSERT_EQ(parsed->tasks.size(), 4u);
  // Children were never listed; the parser derives them from parents.
  const WorkflowTask* a = FindTask(*parsed, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->children, (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(a->output_bytes, 10);
  const WorkflowTask* d = FindTask(*parsed, "d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->parents, (std::vector<std::string>{"b", "c"}));
  EXPECT_TRUE(d->children.empty());
  EXPECT_EQ(parsed->SourceTaskIds(), (std::vector<std::string>{"a"}));
  EXPECT_DOUBLE_EQ(parsed->TotalRuntimeSec(), 10.0);
}

TEST(WfParseTest, SplitLayoutTakesRuntimesFromExecutionBlock) {
  constexpr char kSplit[] = R"({
    "workflow": {
      "specification": {
        "tasks": [
          {"id": "a", "children": ["b"]},
          {"id": "b"}
        ]
      },
      "execution": {
        "tasks": [
          {"id": "a", "runtimeInSeconds": 1.5},
          {"id": "b", "runtimeInSeconds": 2.5}
        ]
      }
    }
  })";
  auto parsed = ParseWfInstance(kSplit);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const WorkflowTask* a = FindTask(*parsed, "a");
  const WorkflowTask* b = FindTask(*parsed, "b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(a->runtime_sec, 1.5);
  EXPECT_DOUBLE_EQ(b->runtime_sec, 2.5);
  // Edge listed only on the parent side appears on both after closure.
  EXPECT_EQ(b->parents, (std::vector<std::string>{"a"}));
}

TEST(WfParseTest, SyntaxErrorsAreCorruption) {
  const char* kBad[] = {
      "",
      "   ",
      "{",
      "nul",
      "tru",
      R"({"workflow":})",
      R"({"workflow": {"tasks": [}})",
      R"({"workflow": {"tasks": [{"id": "a", "runtime": }]}})",
      R"({"a": "unterminated)",
      "{\"a\": \"ctrl\x01char\"}",
      R"({"a": "\q"})",
      R"({"a": "\u12"})",
      R"({"a": "\ud800"})",
      R"({"a": 1e})",
      R"({"a": 1} trailing)",
      R"({"a": 1e999})",
  };
  for (const char* doc : kBad) {
    auto parsed = ParseWfInstance(doc);
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption)
        << doc << " -> " << parsed.status().ToString();
  }
}

TEST(WfParseTest, SemanticErrorsAreInvalidArgument) {
  auto task_doc = [](const std::string& tasks) {
    return R"({"workflow": {"tasks": [)" + tasks + "]}}";
  };
  const std::string kBad[] = {
      // Root/layout problems.
      R"("not an object")",
      R"({"no_workflow": 1})",
      R"({"workflow": {"tasks": []}})",
      R"({"workflow": {"tasks": 3}})",
      // Task-level problems.
      task_doc(R"({"runtime": 1.0})"),                       // No id.
      task_doc(R"({"id": "a"})"),                            // No runtime.
      task_doc(R"({"id": "a", "runtime": -1.0})"),           // Negative.
      task_doc(R"({"id": "a", "runtime": 1.0},
                  {"id": "a", "runtime": 2.0})"),            // Duplicate id.
      task_doc(R"({"id": "a", "runtime": 1.0,
                   "parents": ["a"]})"),                     // Self-dep.
      task_doc(R"({"id": "a", "runtime": 1.0,
                   "parents": ["ghost"]})"),                 // Dangling ref.
      task_doc(R"({"id": "a", "runtime": 1.0,
                   "children": ["ghost"]})"),                // Dangling ref.
      task_doc(R"({"id": "a", "runtime": 1.0,
                   "parents": [42]})"),                      // Non-string.
      // Two-cycle a <-> b.
      task_doc(R"({"id": "a", "runtime": 1.0, "parents": ["b"]},
                  {"id": "b", "runtime": 1.0, "parents": ["a"]})"),
  };
  for (const std::string& doc : kBad) {
    auto parsed = ParseWfInstance(doc);
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << doc << " -> " << parsed.status().ToString();
  }
}

TEST(WfParseTest, LongCycleIsRejected) {
  // a -> b -> c -> d -> b: the cycle does not include the source, so only
  // a full Kahn pass catches it.
  constexpr char kCycle[] = R"({"workflow": {"tasks": [
    {"id": "a", "runtime": 1.0},
    {"id": "b", "runtime": 1.0, "parents": ["a", "d"]},
    {"id": "c", "runtime": 1.0, "parents": ["b"]},
    {"id": "d", "runtime": 1.0, "parents": ["c"]}
  ]}})";
  auto parsed = ParseWfInstance(kCycle);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(WfParseTest, TruncationAtEveryByteFailsCleanly) {
  const std::string full = kDiamondJson;
  ASSERT_TRUE(ParseWfInstance(full).ok());
  for (size_t len = 0; len < full.size(); ++len) {
    auto parsed = ParseWfInstance(std::string_view(full.data(), len));
    EXPECT_FALSE(parsed.ok()) << "prefix of length " << len << " parsed";
  }
}

TEST(WfParseTest, UnboundedNestingIsRejectedNotOverflowed) {
  std::string deep = R"({"workflow": )";
  for (int i = 0; i < 4000; ++i) {
    deep += "[";
  }
  for (int i = 0; i < 4000; ++i) {
    deep += "]";
  }
  deep += "}";
  auto parsed = ParseWfInstance(deep);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

TEST(WfParseTest, StringEscapesRoundTripThroughEmit) {
  WorkflowInstance instance;
  instance.name = "quotes \" slashes \\ tabs \t unicode \xc3\xa9";
  WorkflowTask task;
  task.id = "t\"0";
  task.name = "line\nbreak";
  task.runtime_sec = 1.0;
  instance.tasks.push_back(task);
  WorkflowTask controls;
  controls.id = "t1";
  controls.name = "back\bspace form\ffeed";
  controls.runtime_sec = 2.0;
  instance.tasks.push_back(controls);
  std::string emitted = EmitWfInstance(instance);
  EXPECT_NE(emitted.find("back\\u0008space form\\u000cfeed"),
            std::string::npos);
  auto parsed = ParseWfInstance(emitted);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->name, instance.name);
  ASSERT_EQ(parsed->tasks.size(), 2u);
  EXPECT_EQ(parsed->tasks[0].id, task.id);
  EXPECT_EQ(parsed->tasks[0].name, task.name);
  EXPECT_EQ(parsed->tasks[1].name, controls.name);
}

// Randomized round-trip: 1000 seeded DAGs, each emitted and re-parsed.
// parse(emit(x)) must reproduce x exactly — ids, edges, output sizes, and
// bit-exact runtimes — and emit must be a fixed point.
TEST(WfRoundTripTest, RandomizedEmitParseRoundTrip) {
  Rng rng(20260807);
  for (int iter = 0; iter < 1000; ++iter) {
    WorkflowInstance instance;
    instance.name = "wf" + std::to_string(iter);
    int n = static_cast<int>(rng.Uniform(1, 12));
    std::vector<std::vector<std::string>> parents(n);
    std::vector<std::vector<std::string>> children(n);
    auto task_id = [](int i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "t%02d", i);
      return std::string(buf);
    };
    // Random DAG: edges only from lower to higher index, so it is acyclic
    // by construction; zero-padded ids keep lexicographic == index order.
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng.NextDouble() < 0.25) {
          parents[j].push_back(task_id(i));
          children[i].push_back(task_id(j));
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      WorkflowTask task;
      task.id = task_id(i);
      task.name = task.id;
      task.runtime_sec = rng.NextDouble() * 1000.0;
      task.output_bytes = rng.Uniform(0, 999'999'999);
      task.parents = parents[i];
      task.children = children[i];
      instance.tasks.push_back(std::move(task));
    }

    std::string emitted = EmitWfInstance(instance);
    auto parsed = ParseWfInstance(emitted);
    ASSERT_TRUE(parsed.ok())
        << "iter " << iter << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed->tasks.size(), instance.tasks.size()) << "iter " << iter;
    EXPECT_EQ(parsed->name, instance.name);
    for (size_t t = 0; t < instance.tasks.size(); ++t) {
      const WorkflowTask& want = instance.tasks[t];
      const WorkflowTask& got = parsed->tasks[t];
      EXPECT_EQ(got.id, want.id);
      EXPECT_EQ(got.runtime_sec, want.runtime_sec)  // Bit-exact, not near.
          << "iter " << iter << " task " << want.id;
      EXPECT_EQ(got.output_bytes, want.output_bytes);
      EXPECT_EQ(got.parents, want.parents);
      EXPECT_EQ(got.children, want.children);
    }
    EXPECT_EQ(EmitWfInstance(*parsed), emitted) << "iter " << iter;
  }
}

// 1000 seeded garbage documents: the parser must return (any Status, no
// crash, no hang) on arbitrary bytes.
TEST(WfFuzzTest, RandomGarbageNeverCrashes) {
  constexpr char kAlphabet[] =
      "{}[]\",:0123456789.eE+-truefalsn \t\n\\/u\x01\x7f\xc3\xa9\x00";
  Rng rng(99);
  int ok_count = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    std::string doc;
    size_t len = static_cast<size_t>(rng.Uniform(0, 79));
    for (size_t i = 0; i < len; ++i) {
      doc += kAlphabet[rng.Uniform(0, static_cast<int64_t>(sizeof(kAlphabet)) - 2)];
    }
    auto parsed = ParseWfInstance(doc);
    ok_count += parsed.ok() ? 1 : 0;
  }
  // Random byte soup essentially never forms a valid instance.
  EXPECT_EQ(ok_count, 0);
}

// 1000 mutants of a valid document (random byte flips, insertions,
// deletions): parse must never crash, and any accepted mutant must still
// satisfy the instance invariants.
TEST(WfFuzzTest, MutatedValidDocumentNeverCrashes) {
  const std::string base = kDiamondJson;
  Rng rng(4242);
  for (int iter = 0; iter < 1000; ++iter) {
    std::string doc = base;
    int edits = static_cast<int>(rng.Uniform(1, 4));
    for (int e = 0; e < edits && !doc.empty(); ++e) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(doc.size()) - 1));
      switch (rng.Uniform(0, 2)) {
        case 0:
          doc[pos] = static_cast<char>(rng.Uniform(0, 255));
          break;
        case 1:
          doc.erase(pos, 1);
          break;
        default:
          doc.insert(pos, 1, static_cast<char>(rng.Uniform(0, 255)));
          break;
      }
    }
    auto parsed = ParseWfInstance(doc);
    if (parsed.ok()) {
      std::set<std::string> ids;
      for (const WorkflowTask& task : parsed->tasks) {
        EXPECT_GE(task.runtime_sec, 0.0);
        EXPECT_TRUE(ids.insert(task.id).second);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Replay semantics.

TEST(WfReplayTest, ChainMakespanIsSumOfRuntimes) {
  constexpr char kChain[] = R"({"workflow": {"tasks": [
    {"id": "a", "runtime": 1.0},
    {"id": "b", "runtime": 2.0, "parents": ["a"]},
    {"id": "c", "runtime": 3.0, "parents": ["b"]}
  ]}})";
  auto instance = ParseWfInstance(kChain);
  ASSERT_TRUE(instance.ok());
  WfReplayConfig config;
  auto outcome = ReplayWfInstance(*instance, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->tasks_completed, 3);
  EXPECT_EQ(outcome->dead_lettered, 0);
  EXPECT_EQ(outcome->errors, 0);
  EXPECT_NEAR(outcome->makespan_sec, 6.0, 1e-9);
}

TEST(WfReplayTest, JoinTaskWaitsForLastParentAndFiresOnce) {
  auto instance = ParseWfInstance(kDiamondJson);
  ASSERT_TRUE(instance.ok());
  WfReplayConfig config;
  auto outcome = ReplayWfInstance(*instance, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // a: [0,1]; b: [1,3]; c: [1,4]; d spreads runtime 4 over 2 arrivals ->
  // 2s each: b's output at [3,5], c's at [5,7]; the join fires once, at 7.
  EXPECT_EQ(outcome->tasks_completed, 4);
  EXPECT_NEAR(outcome->makespan_sec, 7.0, 1e-9);
}

TEST(WfReplayTest, SeededArrivalsAreDeterministicAndSeedSensitive) {
  // Three independent sources: the arrival phase is the only stochastic
  // input, so the trace pins the seed.
  constexpr char kSources[] = R"({"workflow": {"tasks": [
    {"id": "a", "runtime": 1.0},
    {"id": "b", "runtime": 2.0},
    {"id": "c", "runtime": 3.0}
  ]}})";
  auto instance = ParseWfInstance(kSources);
  ASSERT_TRUE(instance.ok());
  WfReplayConfig config;
  config.seed = 7;
  config.source_arrival_mean_gap_sec = 5.0;
  auto first = ReplayWfInstance(*instance, config);
  auto second = ReplayWfInstance(*instance, config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first->trace_fingerprint.empty());
  EXPECT_EQ(first->trace_json, second->trace_json);
  EXPECT_EQ(first->trace_fingerprint, second->trace_fingerprint);
  EXPECT_EQ(first->report, second->report);

  config.seed = 8;
  auto reseeded = ReplayWfInstance(*instance, config);
  ASSERT_TRUE(reseeded.ok());
  EXPECT_NE(reseeded->trace_fingerprint, first->trace_fingerprint);
}

TEST(WfReplayTest, EmptyInstanceIsRejected) {
  WorkflowInstance instance;
  WfReplayConfig config;
  auto outcome = ReplayWfInstance(instance, config);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dflow::scenario
