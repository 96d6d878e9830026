#include "arecibo/spectrometer.h"

#include <cmath>

#include "util/logging.h"

namespace dflow::arecibo {

double DispersionDelaySec(double dm, double freq_mhz) {
  return 4.148808e3 * dm / (freq_mhz * freq_mhz);
}

SpectrometerModel::SpectrometerModel(int num_channels, int64_t num_samples,
                                     double sample_time_sec, uint64_t seed)
    : num_channels_(num_channels), num_samples_(num_samples),
      sample_time_(sample_time_sec), rng_(seed) {
  DFLOW_CHECK(num_channels_ > 0);
  DFLOW_CHECK(num_samples_ > 0);
  DFLOW_CHECK(sample_time_ > 0.0);
}

DynamicSpectrum SpectrometerModel::Generate(
    const std::vector<PulsarParams>& pulsars,
    const std::vector<RfiParams>& rfi,
    const std::vector<TransientParams>& transients) {
  DynamicSpectrum spec;
  spec.num_channels = num_channels_;
  spec.num_samples = num_samples_;
  spec.sample_time_sec = sample_time_;
  spec.power.resize(static_cast<size_t>(num_channels_) * num_samples_);

  // Radiometer noise: independent Gaussian per (channel, sample).
  rng_.FillStandardNormal(spec.power.data(), spec.power.size());

  const double block_sec = static_cast<double>(num_samples_) * sample_time_;

  // Dispersed periodic pulses. The highest frequency arrives first; delays
  // are measured relative to the top of the band so every pulse lands in
  // the block.
  for (const PulsarParams& pulsar : pulsars) {
    DFLOW_CHECK(pulsar.period_sec > 0.0);
    const double width_sec = pulsar.duty_cycle * pulsar.period_sec;
    const int width_samples = std::max<int>(
        1, static_cast<int>(std::lround(width_sec / sample_time_)));
    const double ref_delay = DispersionDelaySec(pulsar.dm, spec.freq_hi_mhz);
    // accel_bins: linear drift of the spin frequency over the block,
    // modelled as a quadratic phase drift (constant line-of-sight
    // acceleration in a binary).
    const double f0 = 1.0 / pulsar.period_sec;
    const double fdot = pulsar.accel_bins / (block_sec * block_sec);
    for (int channel = 0; channel < num_channels_; ++channel) {
      const double chan_delay =
          DispersionDelaySec(pulsar.dm, spec.ChannelFreqMhz(channel)) -
          ref_delay;
      // Emit pulses at phase = integer: t_k solves
      // f0*t + 0.5*fdot*t^2 + phase0 = k.
      double t = (pulsar.phase > 0 ? (1.0 - pulsar.phase) : 0.0) /
                 f0;  // First pulse epoch, pre-drift.
      while (t < block_sec) {
        const double arrival = t + chan_delay;
        const int64_t s0 =
            static_cast<int64_t>(std::lround(arrival / sample_time_));
        for (int w = 0; w < width_samples; ++w) {
          int64_t s = s0 + w;
          if (s >= 0 && s < num_samples_) {
            spec.At(channel, s) += static_cast<float>(pulsar.pulse_amplitude);
          }
        }
        // Next pulse epoch under frequency drift: instantaneous period
        // shrinks/grows as f = f0 + fdot * t.
        const double f_inst = f0 + fdot * t;
        t += 1.0 / std::max(f_inst, 1e-9);
      }
    }
  }

  // One-off dispersed transients: a single pulse sweeping down the band.
  for (const TransientParams& transient : transients) {
    const int width_samples = std::max<int>(
        1, static_cast<int>(std::lround(transient.width_sec / sample_time_)));
    const double ref_delay =
        DispersionDelaySec(transient.dm, spec.freq_hi_mhz);
    for (int channel = 0; channel < num_channels_; ++channel) {
      const double arrival =
          transient.time_sec +
          DispersionDelaySec(transient.dm, spec.ChannelFreqMhz(channel)) -
          ref_delay;
      const int64_t s0 =
          static_cast<int64_t>(std::lround(arrival / sample_time_));
      for (int w = 0; w < width_samples; ++w) {
        int64_t s = s0 + w;
        if (s >= 0 && s < num_samples_) {
          spec.At(channel, s) += static_cast<float>(transient.amplitude);
        }
      }
    }
  }

  // Undispersed narrowband RFI: identical arrival time in every channel of
  // its span (DM = 0), deterministic phase (shared across beams).
  for (const RfiParams& interference : rfi) {
    const int lo = std::max(0, interference.channel_lo);
    const int hi = std::min(num_channels_ - 1, interference.channel_hi);
    double t = 0.0;
    while (t < block_sec) {
      const int64_t s =
          static_cast<int64_t>(std::lround(t / sample_time_));
      if (s >= 0 && s < num_samples_) {
        for (int channel = lo; channel <= hi; ++channel) {
          spec.At(channel, s) += static_cast<float>(interference.amplitude);
        }
      }
      t += interference.period_sec;
    }
  }

  return spec;
}

}  // namespace dflow::arecibo
