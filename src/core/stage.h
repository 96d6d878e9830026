#ifndef DFLOW_CORE_STAGE_H_
#define DFLOW_CORE_STAGE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/data_product.h"
#include "util/result.h"

namespace dflow::core {

/// Cost model used to map a stage onto simulated compute: the virtual-time
/// cost of processing one product is
///   seconds_per_product + bytes * seconds_per_byte.
struct StageCosts {
  double seconds_per_product = 0.0;
  double seconds_per_byte = 0.0;
};

/// One processing step in a workflow graph. Subclasses (or LambdaStage)
/// implement Process(), mapping one input product to zero or more outputs.
/// A stage that emits nothing is a filter/sink; a stage that emits several
/// products is a splitter (e.g. one telescope pointing -> per-beam files).
class Stage {
 public:
  Stage(std::string name, StageCosts costs)
      : name_(std::move(name)), costs_(costs) {}
  virtual ~Stage() = default;

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  virtual Result<std::vector<DataProduct>> Process(
      const DataProduct& input) = 0;

  /// Virtual-time cost of processing `input` on one worker.
  virtual double ServiceTime(const DataProduct& input) const {
    return costs_.seconds_per_product +
           static_cast<double>(input.bytes) * costs_.seconds_per_byte;
  }

  const std::string& name() const { return name_; }
  const StageCosts& costs() const { return costs_; }

 private:
  std::string name_;
  StageCosts costs_;
};

/// Stage built from a closure; the workhorse for assembling case-study
/// pipelines without a subclass per step.
class LambdaStage : public Stage {
 public:
  using Fn =
      std::function<Result<std::vector<DataProduct>>(const DataProduct&)>;

  LambdaStage(std::string name, StageCosts costs, Fn fn)
      : Stage(std::move(name), costs), fn_(std::move(fn)) {}

  Result<std::vector<DataProduct>> Process(const DataProduct& input) override {
    return fn_(input);
  }

 private:
  Fn fn_;
};

/// Pass-through stage scaling the byte volume by `ratio` and renaming the
/// product with `suffix`.
inline std::shared_ptr<LambdaStage> ScalingStage(const std::string& name,
                                                 StageCosts costs,
                                                 double ratio,
                                                 const std::string& suffix) {
  return std::make_shared<LambdaStage>(
      name, costs,
      [ratio, suffix](const DataProduct& in)
          -> Result<std::vector<DataProduct>> {
        DataProduct out = in;
        out.name = in.name + suffix;
        out.bytes =
            static_cast<int64_t>(static_cast<double>(in.bytes) * ratio);
        return std::vector<DataProduct>{std::move(out)};
      });
}

}  // namespace dflow::core

#endif  // DFLOW_CORE_STAGE_H_
