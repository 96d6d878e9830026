#include "arecibo/dedisperse.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "par/par.h"
#include "simd/simd.h"
#include "util/logging.h"

namespace dflow::arecibo {

std::vector<double> MakeDmTrials(double dm_max, int num_trials) {
  DFLOW_CHECK(num_trials > 0);
  std::vector<double> trials(static_cast<size_t>(num_trials));
  for (int i = 0; i < num_trials; ++i) {
    trials[static_cast<size_t>(i)] =
        dm_max * static_cast<double>(i) / std::max(1, num_trials - 1);
  }
  return trials;
}

std::vector<int64_t> DelayShiftTable(const DynamicSpectrum& spectrum,
                                     double dm) {
  std::vector<int64_t> shifts(static_cast<size_t>(spectrum.num_channels));
  const double ref_delay = DispersionDelaySec(dm, spectrum.freq_hi_mhz);
  for (int channel = 0; channel < spectrum.num_channels; ++channel) {
    const double delay =
        DispersionDelaySec(dm, spectrum.ChannelFreqMhz(channel)) - ref_delay;
    shifts[static_cast<size_t>(channel)] =
        static_cast<int64_t>(std::lround(delay / spectrum.sample_time_sec));
  }
  return shifts;
}

namespace {

// Output samples per dedispersion block: the block's accumulators (8 KB per
// trial) stay in L1 while every channel is added into them.
constexpr int64_t kBlockSamples = 1024;

// Adds each channel of `spectrum`, shifted by shifts[channel], into
// out[begin, end): out[s] += power[channel][s + shift] wherever that index
// lies inside the row. Channels go four at a time through add4_f32_to_f64
// over the samples all four cover; the ragged edges on either side, where
// only some of the four are in range, take one channel at a time. The
// edges and the four-row span cover disjoint samples, so each output
// element sees one add per in-range channel, in channel order.
void ShiftSumBlock(const DynamicSpectrum& spectrum, const int64_t* shifts,
                   int64_t begin, int64_t end,
                   const simd::KernelTable& kernels, double* out) {
  const int64_t n = spectrum.num_samples;
  // Channel c's input for output sample s.
  const auto input = [&](int c, int64_t s) {
    return spectrum.power.data() + c * n + (s + shifts[c]);
  };
  // Adds channel c over out[lo, hi), if that is not empty.
  const auto add_one = [&](int c, int64_t lo, int64_t hi) {
    if (hi > lo) {
      kernels.add_f32_to_f64(input(c, lo), out + lo, hi - lo);
    }
  };
  // The output samples [lo, hi) of the block for which channel c is in
  // range: s + shift must stay inside [0, n).
  const auto range = [&](int c) {
    return std::pair{std::max(begin, -shifts[c]),
                     std::min(end, n - shifts[c])};
  };
  int c = 0;
  for (; c + 4 <= spectrum.num_channels; c += 4) {
    int64_t lo[4] = {};
    int64_t hi[4] = {};
    for (int k = 0; k < 4; ++k) {
      std::tie(lo[k], hi[k]) = range(c + k);
    }
    // The span all four cover; empty (all_lo == all_hi) when there is
    // none, and then the two edges split each channel's range at all_lo.
    const int64_t all_lo = std::max({lo[0], lo[1], lo[2], lo[3]});
    const int64_t all_hi =
        std::max(all_lo, std::min({hi[0], hi[1], hi[2], hi[3]}));
    for (int k = 0; k < 4; ++k) {
      add_one(c + k, lo[k], std::min(hi[k], all_lo));
    }
    if (all_hi > all_lo) {
      kernels.add4_f32_to_f64(input(c, all_lo), input(c + 1, all_lo),
                              input(c + 2, all_lo), input(c + 3, all_lo),
                              out + all_lo, all_hi - all_lo);
    }
    for (int k = 0; k < 4; ++k) {
      add_one(c + k, std::max(lo[k], all_hi), hi[k]);
    }
  }
  for (; c < spectrum.num_channels; ++c) {
    const auto [lo, hi] = range(c);
    add_one(c, lo, hi);
  }
}

// Dedisperses `spectrum` at dms[0, count). The loop runs over sample
// blocks, in parallel, and over trials inside each block, so the rows a
// block reads stay in cache across the trials. Blocks write disjoint
// slices of every series, so the output is byte-identical at any thread
// count.
std::vector<TimeSeries> DedisperseTrials(const DynamicSpectrum& spectrum,
                                         const double* dms, size_t count) {
  par::Options options;
  options.label = "arecibo.dedisperse";
  // The zero-filled series and the per-DM delay tables (one
  // DispersionDelaySec + lround per (trial, channel), hoisted out of the
  // block loop), built per trial in parallel: at a large DM set, first
  // touching the series' pages is a large share of a sweep.
  std::vector<TimeSeries> trials(count);
  std::vector<std::vector<int64_t>> shifts(count);
  par::ParallelFor(
      0, static_cast<int64_t>(count),
      [&](int64_t first_trial, int64_t last_trial) {
        for (int64_t t = first_trial; t < last_trial; ++t) {
          TimeSeries& series = trials[static_cast<size_t>(t)];
          series.dm = dms[t];
          series.sample_time_sec = spectrum.sample_time_sec;
          series.samples.assign(static_cast<size_t>(spectrum.num_samples),
                                0.0);
          shifts[static_cast<size_t>(t)] = DelayShiftTable(spectrum, dms[t]);
        }
      },
      options);
  // Normalize to unit noise: the sum of C unit-variance channels has
  // sigma = sqrt(C).
  const double norm =
      1.0 / std::sqrt(static_cast<double>(spectrum.num_channels));
  // The shift-sum and normalization run through the SIMD kernel layer:
  // float->double widening is exact and each output element sees
  // 0.0 + x0 + x1 + ... in channel order, then one multiply, so scalar and
  // vector dispatch produce byte-identical series.
  const simd::KernelTable& kernels = simd::Kernels();
  const int64_t num_blocks =
      (spectrum.num_samples + kBlockSamples - 1) / kBlockSamples;
  par::ParallelFor(
      0, num_blocks,
      [&](int64_t first_block, int64_t last_block) {
        for (int64_t block = first_block; block < last_block; ++block) {
          const int64_t begin = block * kBlockSamples;
          const int64_t end =
              std::min(spectrum.num_samples, begin + kBlockSamples);
          for (size_t t = 0; t < count; ++t) {
            double* out = trials[t].samples.data();
            ShiftSumBlock(spectrum, shifts[t].data(), begin, end, kernels,
                          out);
            kernels.scale_f64(out + begin, end - begin, norm);
          }
        }
      },
      options);
  return trials;
}

}  // namespace

Dedisperser::Dedisperser(std::vector<double> dm_trials)
    : dm_trials_(std::move(dm_trials)) {
  DFLOW_CHECK(!dm_trials_.empty());
}

TimeSeries Dedisperser::Dedisperse(const DynamicSpectrum& spectrum,
                                   double dm) const {
  return std::move(DedisperseTrials(spectrum, &dm, 1).front());
}

std::vector<TimeSeries> Dedisperser::DedisperseAll(
    const DynamicSpectrum& spectrum) const {
  return DedisperseTrials(spectrum, dm_trials_.data(), dm_trials_.size());
}

int64_t Dedisperser::OutputBytes(const DynamicSpectrum& spectrum) const {
  return static_cast<int64_t>(dm_trials_.size()) * spectrum.num_samples *
         static_cast<int64_t>(sizeof(double));
}

}  // namespace dflow::arecibo
