#ifndef DFLOW_OBS_LATENCY_HISTOGRAM_H_
#define DFLOW_OBS_LATENCY_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>

namespace dflow::obs {

/// Log-bucketed latency histogram. Buckets grow geometrically (factor 1.25)
/// from 1 µs, so the relative quantile error is bounded by ~25% across
/// twelve decades while the whole object is a fixed-size array — cheap to
/// keep one per worker and Merge() at read time, which is how the obs
/// metrics registry stripes its histograms (and so how `ServeLoop` records
/// latencies without a global lock on the hot path).
///
/// (Grew up in the dissemination tier as serve::LatencyHistogram; it moved
/// down into the observability layer so every tier can record durations
/// without depending on serve.)
///
/// Not internally synchronized: callers either own one exclusively (one
/// per worker stripe) or guard it externally.
class LatencyHistogram {
 public:
  /// Bucket 0 is [0, 1 µs); bucket i >= 1 is [1µs·g^(i-1), 1µs·g^i) with
  /// g = 1.25. 160 buckets span past 10^9 seconds.
  static constexpr int kNumBuckets = 160;
  static constexpr double kMinBoundSec = 1e-6;
  static constexpr double kGrowth = 1.25;

  LatencyHistogram();

  /// Records one observation (negative values clamp to 0).
  void Record(double seconds);

  /// Adds `other`'s observations into this histogram.
  void Merge(const LatencyHistogram& other);

  void Reset();

  int64_t count() const { return count_; }
  /// Exact (not bucketed) extremes and mean over everything recorded.
  double min_sec() const { return count_ == 0 ? 0.0 : min_sec_; }
  double max_sec() const { return max_sec_; }
  double mean_sec() const { return count_ == 0 ? 0.0 : sum_sec_ / count_; }
  double total_sec() const { return sum_sec_; }

  /// Quantile estimate for p in [0, 1]: the geometric midpoint of the
  /// bucket holding the ceil(p * count)-th observation, clamped to the
  /// exact [min, max] envelope. 0 when empty.
  double Percentile(double p) const;

  /// "n=1234 mean=1.2ms p50=0.9ms p90=2.1ms p99=8.8ms p99.9=14ms max=15ms".
  std::string Summary() const;

  /// Bucket index an observation of `seconds` lands in (exposed for tests).
  static int BucketIndex(double seconds);
  /// Inclusive lower bound of bucket `index`.
  static double BucketLowerBound(int index);

  int64_t bucket_count(int index) const {
    return buckets_[static_cast<size_t>(index)];
  }

 private:
  std::array<int64_t, kNumBuckets> buckets_;
  int64_t count_ = 0;
  double sum_sec_ = 0.0;
  double min_sec_ = 0.0;
  double max_sec_ = 0.0;
};

}  // namespace dflow::obs

#endif  // DFLOW_OBS_LATENCY_HISTOGRAM_H_
