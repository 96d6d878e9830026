#ifndef DFLOW_ARECIBO_DEDISPERSE_H_
#define DFLOW_ARECIBO_DEDISPERSE_H_

#include <vector>

#include "arecibo/spectrometer.h"
#include "util/result.h"

namespace dflow::arecibo {

/// A dedispersed time series: channel-summed power after undoing the
/// dispersion delay for one trial DM.
struct TimeSeries {
  double dm = 0.0;
  double sample_time_sec = 0.0;
  std::vector<double> samples;

  int64_t SizeBytes() const {
    return static_cast<int64_t>(samples.size() * sizeof(double));
  }
};

/// Produces the uniformly spaced list of trial DMs the survey searches
/// (the paper: "about 1000 different trial values of the dispersion
/// measure").
std::vector<double> MakeDmTrials(double dm_max, int num_trials);

/// Per-channel sample shifts for one trial DM, relative to the top of the
/// band: shift[c] = lround((delay(dm, f_c) - delay(dm, f_hi)) / t_samp).
/// Hoisted out of the dedispersion loops so each (dm, channel) pair costs
/// one delay evaluation per call instead of per-sample arithmetic; exposed
/// so tests and benches can pin the table against the direct formula.
std::vector<int64_t> DelayShiftTable(const DynamicSpectrum& spectrum,
                                     double dm);

/// Incoherent dedispersion: for each trial DM, shift every channel by its
/// dispersion delay (relative to the top of the band) and sum across
/// channels. The output volume is num_trials time series, each as long as
/// the input — which is why the paper's storage math says the dedispersed
/// data "require storage about equal to that of the original raw data".
class Dedisperser {
 public:
  explicit Dedisperser(std::vector<double> dm_trials);

  const std::vector<double>& dm_trials() const { return dm_trials_; }

  /// One trial: the one-trial case of DedisperseAll.
  TimeSeries Dedisperse(const DynamicSpectrum& spectrum, double dm) const;

  /// All trials, a block of samples at a time: blocks run in parallel on
  /// the dflow::par shared pool (the paper's "50 to 200 processors" axis)
  /// and every trial is summed inside each block, so a block's input rows
  /// stay in cache across the DM set. Output is byte-identical at any
  /// thread count: each block writes its own slice of every series.
  std::vector<TimeSeries> DedisperseAll(const DynamicSpectrum& spectrum) const;

  /// Bytes the full trial set would occupy for this spectrum (the "30 TB
  /// instantaneous" arithmetic hook).
  int64_t OutputBytes(const DynamicSpectrum& spectrum) const;

 private:
  std::vector<double> dm_trials_;
};

}  // namespace dflow::arecibo

#endif  // DFLOW_ARECIBO_DEDISPERSE_H_
