#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace dflow::sim {

void SummaryStats::Add(double x) {
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double SummaryStats::Variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double SummaryStats::StdDev() const { return std::sqrt(Variance()); }

void SummaryStats::Merge(const SummaryStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  int64_t n = count_ + other.count_;
  double delta = other.mean_ - mean_;
  double mean = mean_ + delta * static_cast<double>(other.count_) /
                            static_cast<double>(n);
  m2_ = m2_ + other.m2_ +
        delta * delta * static_cast<double>(count_) *
            static_cast<double>(other.count_) / static_cast<double>(n);
  mean_ = mean;
  count_ = n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::string SummaryStats::ToString() const {
  std::ostringstream os;
  os << "n=" << count_ << " mean=" << mean() << " sd=" << StdDev()
     << " min=" << min() << " max=" << max();
  return os.str();
}

}  // namespace dflow::sim
