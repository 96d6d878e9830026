#ifndef DFLOW_SIM_STATS_H_
#define DFLOW_SIM_STATS_H_

#include <cstdint>
#include <limits>
#include <string>

namespace dflow::sim {

/// Streaming summary statistics (Welford's algorithm): numerically stable
/// mean/variance plus min/max/count, used by every monitor in the library.
class SummaryStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double Variance() const;
  double StdDev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void Merge(const SummaryStats& other);

  std::string ToString() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace dflow::sim

#endif  // DFLOW_SIM_STATS_H_
