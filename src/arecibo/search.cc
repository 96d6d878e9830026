#include "arecibo/search.h"

#include <algorithm>
#include <cmath>

#include "arecibo/fft.h"
#include "par/par.h"
#include "simd/simd.h"
#include "util/logging.h"

namespace dflow::arecibo {

namespace {

/// Robust location/scale of a power spectrum via median and interquartile
/// range (the spectrum is chi-squared distributed and peaky; plain
/// mean/stddev would be dragged up by the very signals we search for).
/// Quantiles come from nth_element (exact order statistics — the same
/// values a full sort would give, at O(n) instead of O(n log n)). One
/// partition places the median; everything before it is no larger and
/// everything after it no smaller, so q1 is the same order statistic of
/// the lower part and q3 of the upper part.
void RobustStats(const std::vector<double>& power, double* location,
                 double* scale) {
  std::vector<double> scratch(power.begin() + 1, power.end());
  const size_t n = scratch.size();
  auto quantile = [&scratch](size_t lo, size_t index, size_t hi) {
    std::nth_element(scratch.begin() + static_cast<ptrdiff_t>(lo),
                     scratch.begin() + static_cast<ptrdiff_t>(index),
                     scratch.begin() + static_cast<ptrdiff_t>(hi));
    return scratch[index];
  };
  const size_t mid = n / 2;
  *location = quantile(0, mid, n);
  const double q1 = n / 4 < mid ? quantile(0, n / 4, mid) : *location;
  const double q3 =
      (3 * n) / 4 > mid ? quantile(mid + 1, (3 * n) / 4, n) : *location;
  // IQR -> sigma for an exponential-ish distribution; 1.349 is the
  // Gaussian conversion, close enough for thresholding.
  *scale = std::max((q3 - q1) / 1.349, 1e-12);
}

}  // namespace

PeriodicitySearch::PeriodicitySearch(SearchConfig config) : config_(config) {
  DFLOW_CHECK(config_.max_harmonics >= 1);
  DFLOW_CHECK(config_.max_candidates >= 1);
  // Harmonic summing reads power[k * h] and the peak test best_snr[k - 1]
  // for every bin k from min_bin on; both need k >= 1.
  DFLOW_CHECK(config_.min_bin >= 1) << "min_bin " << config_.min_bin;
}

std::vector<Candidate> PeriodicitySearch::SearchPower(
    const std::vector<double>& power, const TimeSeries& series) const {
  std::vector<Candidate> out;
  const size_t num_bins = power.size();
  const size_t padded = num_bins * 2;
  const double freq_step =
      1.0 / (static_cast<double>(padded) * series.sample_time_sec);

  double location, scale;
  RobustStats(power, &location, &scale);

  std::vector<double> best_snr(num_bins, 0.0);
  std::vector<int> best_fold(num_bins, 1);

  // Harmonic summing, parallel across spectral bins and vectorized across
  // k within each chunk (fold-major): every bin k still accumulates
  // power[k*h] in ascending h and evaluates the same snr expression at the
  // same fold boundaries as the old bin-outer loop — one add / sub / div
  // per element in identical order — so outputs are bit-identical to the
  // serial scalar code at any thread count and any DFLOW_SIMD tier.
  // (Inside SearchBatch this region is nested and runs inline on the
  // worker.)
  par::Options options;
  options.label = "arecibo.harmonic_sum";
  options.grain = 2048;
  const simd::KernelTable& kernels = simd::Kernels();
  par::ParallelFor(
      static_cast<int64_t>(config_.min_bin), static_cast<int64_t>(num_bins),
      [&](int64_t chunk_begin, int64_t chunk_end) {
        std::vector<double> summed(
            static_cast<size_t>(chunk_end - chunk_begin), 0.0);
        int previous_fold = 0;
        for (int fold = 1; fold <= config_.max_harmonics; fold *= 2) {
          // The old per-bin loop broke out once k*fold >= num_bins, so
          // fold participates only for k < ceil(num_bins/fold).
          const int64_t k_limit =
              (static_cast<int64_t>(num_bins) - 1) / fold + 1;
          const int64_t hi = std::min(chunk_end, k_limit);
          if (chunk_begin >= hi) {
            break;
          }
          const int64_t m = hi - chunk_begin;
          for (int h = previous_fold + 1; h <= fold; ++h) {
            kernels.strided_add_f64(
                summed.data(), power.data() + chunk_begin * h, h, m);
          }
          previous_fold = fold;
          const double bias = fold * location;
          const double denom = scale * std::sqrt(static_cast<double>(fold));
          kernels.snr_best_update(summed.data(), m, bias, denom, fold,
                                  best_snr.data() + chunk_begin,
                                  best_fold.data() + chunk_begin);
        }
      },
      options);

  // Local maxima above threshold.
  for (size_t k = static_cast<size_t>(config_.min_bin); k + 1 < num_bins;
       ++k) {
    if (best_snr[k] < config_.snr_threshold) {
      continue;
    }
    if (best_snr[k] < best_snr[k - 1] || best_snr[k] < best_snr[k + 1]) {
      continue;
    }
    Candidate candidate;
    candidate.freq_hz = static_cast<double>(k) * freq_step;
    candidate.period_sec = 1.0 / candidate.freq_hz;
    candidate.dm = series.dm;
    candidate.snr = best_snr[k];
    candidate.harmonics = best_fold[k];
    out.push_back(candidate);
  }

  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return a.snr > b.snr;
  });
  if (out.size() > static_cast<size_t>(config_.max_candidates)) {
    out.resize(static_cast<size_t>(config_.max_candidates));
  }
  return out;
}

std::vector<Candidate> PeriodicitySearch::Search(
    const TimeSeries& series) const {
  if (series.samples.size() < 8) {
    return {};
  }
  FftScratch scratch;
  std::vector<double> power;
  PowerSpectrum(series.samples, &scratch, &power);
  return SearchPower(power, series);
}

std::vector<std::vector<Candidate>> PeriodicitySearch::SearchBatch(
    const std::vector<TimeSeries>& series) const {
  const int64_t n = static_cast<int64_t>(series.size());
  std::vector<std::vector<Candidate>> out(static_cast<size_t>(n));
  if (n == 0) {
    return out;
  }

  // Deterministic work units: adjacent series that pad to the same FFT
  // size share one packed transform; stragglers go alone. Unit boundaries
  // depend only on the input, never on the thread count.
  struct Unit {
    int64_t a = 0;
    int64_t b = -1;  // -1: single-series unit.
  };
  auto padded_of = [](const TimeSeries& s) {
    return NextPowerOfTwo(std::max<size_t>(s.samples.size(), 2));
  };
  std::vector<Unit> units;
  units.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n;) {
    const bool pairable =
        i + 1 < n && series[static_cast<size_t>(i)].samples.size() >= 8 &&
        series[static_cast<size_t>(i + 1)].samples.size() >= 8 &&
        padded_of(series[static_cast<size_t>(i)]) ==
            padded_of(series[static_cast<size_t>(i + 1)]);
    if (pairable) {
      units.push_back(Unit{i, i + 1});
      i += 2;
    } else {
      units.push_back(Unit{i, -1});
      i += 1;
    }
  }

  // Parallel across units; each chunk reuses one FftScratch and two power
  // buffers across all of its transforms (no per-call allocation).
  par::Options options;
  options.label = "arecibo.search_batch";
  par::ParallelFor(
      0, static_cast<int64_t>(units.size()),
      [&](int64_t chunk_begin, int64_t chunk_end) {
        FftScratch scratch;
        std::vector<double> power_a;
        std::vector<double> power_b;
        for (int64_t u = chunk_begin; u < chunk_end; ++u) {
          const Unit& unit = units[static_cast<size_t>(u)];
          const TimeSeries& first = series[static_cast<size_t>(unit.a)];
          if (unit.b < 0) {
            if (first.samples.size() < 8) {
              continue;  // Matches Search(): too short, no candidates.
            }
            PowerSpectrum(first.samples, &scratch, &power_a);
            out[static_cast<size_t>(unit.a)] = SearchPower(power_a, first);
          } else {
            const TimeSeries& second = series[static_cast<size_t>(unit.b)];
            Status packed = PowerSpectrumPair(first.samples, second.samples,
                                              &scratch, &power_a, &power_b);
            DFLOW_CHECK(packed.ok());  // Unit construction guarantees it.
            out[static_cast<size_t>(unit.a)] = SearchPower(power_a, first);
            out[static_cast<size_t>(unit.b)] = SearchPower(power_b, second);
          }
        }
      },
      options);
  return out;
}

AccelerationSearch::AccelerationSearch(SearchConfig config,
                                       std::vector<double> accel_trials)
    : base_(config), accel_trials_(std::move(accel_trials)) {
  if (accel_trials_.empty()) {
    accel_trials_.push_back(0.0);
  }
}

TimeSeries AccelerationSearch::Resample(const TimeSeries& series,
                                        double alpha) {
  TimeSeries out;
  out.dm = series.dm;
  out.sample_time_sec = series.sample_time_sec;
  const int64_t n = static_cast<int64_t>(series.samples.size());
  // Truncate to the prefix whose source indices stay in range: padding the
  // tail with zeros would create a step edge and flood the low spectral
  // bins with artifacts.
  int64_t valid = n;
  for (int64_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    const double src =
        x + alpha * x * x / (2.0 * static_cast<double>(n));
    if (std::lround(src) < 0 || std::lround(src) >= n) {
      valid = i;
      break;
    }
  }
  out.samples.assign(static_cast<size_t>(valid), 0.0);
  for (int64_t i = 0; i < valid; ++i) {
    const double x = static_cast<double>(i);
    const double src =
        x + alpha * x * x / (2.0 * static_cast<double>(n));
    out.samples[static_cast<size_t>(i)] =
        series.samples[static_cast<size_t>(std::lround(src))];
  }
  return out;
}

std::vector<Candidate> AccelerationSearch::Search(
    const TimeSeries& series) const {
  // Trials are independent: resample + search in parallel, each trial
  // writing its own slot; the keep-best-per-frequency merge below then
  // walks the trials in their original order, so the merged output is
  // identical to the old serial loop at any thread count.
  par::Options options;
  options.label = "arecibo.accel_trials";
  std::vector<std::vector<Candidate>> per_trial =
      par::ParallelMap<std::vector<Candidate>>(
          static_cast<int64_t>(accel_trials_.size()),
          [this, &series](int64_t i) {
            const double alpha = accel_trials_[static_cast<size_t>(i)];
            TimeSeries resampled =
                alpha == 0.0 ? series : Resample(series, alpha);
            std::vector<Candidate> found = base_.Search(resampled);
            for (Candidate& candidate : found) {
              candidate.accel = alpha;
            }
            return found;
          },
          options);

  std::vector<Candidate> best;
  for (std::vector<Candidate>& found : per_trial) {
    for (Candidate& candidate : found) {
      // Keep the strongest detection per frequency (within one bin).
      bool merged = false;
      for (Candidate& existing : best) {
        if (std::fabs(existing.freq_hz - candidate.freq_hz) <
            0.5 / (static_cast<double>(series.samples.size()) *
                   series.sample_time_sec)) {
          if (candidate.snr > existing.snr) {
            existing = candidate;
          }
          merged = true;
          break;
        }
      }
      if (!merged) {
        best.push_back(candidate);
      }
    }
  }
  std::sort(best.begin(), best.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.snr > b.snr;
            });
  return best;
}

}  // namespace dflow::arecibo
