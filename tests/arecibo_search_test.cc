#include <gtest/gtest.h>

#include <cmath>

#include "arecibo/dedisperse.h"
#include "arecibo/search.h"
#include "arecibo/sifter.h"
#include "arecibo/spectrometer.h"
#include "util/rng.h"

namespace dflow::arecibo {
namespace {

constexpr int kChannels = 64;
constexpr int64_t kSamples = 1 << 13;
constexpr double kSampleTime = 1e-3;  // 8.2 s block.

PulsarParams TestPulsar(double period = 0.25, double dm = 60.0,
                        double amplitude = 4.0) {
  PulsarParams pulsar;
  pulsar.period_sec = period;
  pulsar.dm = dm;
  pulsar.pulse_amplitude = amplitude;
  pulsar.duty_cycle = 0.05;
  return pulsar;
}

TEST(SpectrometerTest, DispersionDelayScalesInverseSquare) {
  double d1400 = DispersionDelaySec(100.0, 1400.0);
  double d700 = DispersionDelaySec(100.0, 700.0);
  EXPECT_NEAR(d700 / d1400, 4.0, 1e-9);
  EXPECT_NEAR(DispersionDelaySec(60.0, 1400.0), 4.148808e3 * 60 / (1400.0 * 1400.0),
              1e-9);
}

TEST(SpectrometerTest, GeneratesRequestedShape) {
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 1);
  DynamicSpectrum spec = model.Generate({}, {});
  EXPECT_EQ(spec.num_channels, kChannels);
  EXPECT_EQ(spec.num_samples, kSamples);
  EXPECT_EQ(spec.SizeBytes(),
            static_cast<int64_t>(kChannels * kSamples * sizeof(float)));
  // Pure noise: mean ~0, sd ~1.
  double sum = 0.0, sum_sq = 0.0;
  for (float x : spec.power) {
    sum += x;
    sum_sq += static_cast<double>(x) * x;
  }
  double n = static_cast<double>(spec.power.size());
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(sum_sq / n), 1.0, 0.01);
}

TEST(DedisperseTest, CorrectDmMaximizesSignal) {
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 2);
  // Narrow pulse at a high DM: the band-crossing smear (~30 samples at
  // DM 200) is large against the 5-sample pulse, so a wrong trial DM
  // visibly suppresses the peak.
  PulsarParams pulsar = TestPulsar(0.25, 200.0, 6.0);
  pulsar.duty_cycle = 0.02;
  DynamicSpectrum spec = model.Generate({pulsar}, {});

  Dedisperser dedisperser(MakeDmTrials(300.0, 31));
  double best_peak = 0.0, best_dm = -1.0;
  double peak_at_zero = 0.0, peak_at_true = 0.0;
  for (double dm : dedisperser.dm_trials()) {
    TimeSeries series = dedisperser.Dedisperse(spec, dm);
    double peak = 0.0;
    for (double x : series.samples) {
      peak = std::max(peak, x);
    }
    if (peak > best_peak) {
      best_peak = peak;
      best_dm = dm;
    }
    if (dm == 0.0) {
      peak_at_zero = peak;
    }
    if (dm == 200.0) {
      peak_at_true = peak;
    }
  }
  // The matched trial concentrates the pulse far above the DM=0 smear,
  // and the best trial is near the injected DM (the sample-level peak is
  // a coarse statistic, so allow a couple of trial steps of slop).
  EXPECT_GT(peak_at_true, peak_at_zero * 1.5);
  EXPECT_NEAR(best_dm, 200.0, 25.0);
}

TEST(DedisperseTest, OutputVolumeMatchesTrialCount) {
  SpectrometerModel model(kChannels, 1024, kSampleTime, 3);
  DynamicSpectrum spec = model.Generate({}, {});
  Dedisperser dedisperser(MakeDmTrials(100.0, 10));
  EXPECT_EQ(dedisperser.OutputBytes(spec),
            10 * 1024 * static_cast<int64_t>(sizeof(double)));
  auto all = dedisperser.DedisperseAll(spec);
  EXPECT_EQ(all.size(), 10u);
  for (const TimeSeries& series : all) {
    EXPECT_EQ(series.samples.size(), 1024u);
  }
}

TEST(PeriodicitySearchTest, FindsInjectedPulsar) {
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 4);
  PulsarParams pulsar = TestPulsar(0.25, 60.0, 4.0);
  DynamicSpectrum spec = model.Generate({pulsar}, {});
  Dedisperser dedisperser(MakeDmTrials(300.0, 31));
  TimeSeries series = dedisperser.Dedisperse(spec, 60.0);

  SearchConfig config;
  config.snr_threshold = 6.0;
  PeriodicitySearch search(config);
  std::vector<Candidate> found = search.Search(series);
  ASSERT_FALSE(found.empty());
  // Strongest candidate at 4 Hz (or a harmonic thereof).
  double f = found[0].freq_hz;
  double ratio = f / 4.0;
  EXPECT_NEAR(ratio, std::round(ratio), 0.05);
  EXPECT_GE(found[0].snr, 6.0);
}

TEST(PeriodicitySearchTest, PureNoiseYieldsFewCandidates) {
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 5);
  DynamicSpectrum spec = model.Generate({}, {});
  Dedisperser dedisperser(MakeDmTrials(300.0, 4));
  // Spectral powers are exponential-tailed, so the survey threshold must
  // account for the number of bins searched: with ~4096 bins per series a
  // false peak needs snr >~ ln(num_bins) / scale ~ 12 in these units.
  SearchConfig config;
  config.snr_threshold = 12.0;
  PeriodicitySearch search(config);
  int total = 0;
  for (double dm : dedisperser.dm_trials()) {
    total += static_cast<int>(search.Search(dedisperser.Dedisperse(spec, dm))
                                  .size());
  }
  EXPECT_LE(total, 3);  // Trials-aware threshold: noise rarely crosses.
}

TEST(PeriodicitySearchTest, HarmonicSummingHelpsNarrowPulses) {
  // A narrow duty cycle spreads power over many harmonics; the candidate
  // should be found with a harmonic fold > 1.
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 6);
  PulsarParams pulsar = TestPulsar(0.5, 60.0, 5.0);
  pulsar.duty_cycle = 0.02;
  DynamicSpectrum spec = model.Generate({pulsar}, {});
  Dedisperser dedisperser(MakeDmTrials(300.0, 31));
  TimeSeries series = dedisperser.Dedisperse(spec, 60.0);
  SearchConfig config;
  config.max_harmonics = 8;
  PeriodicitySearch search(config);
  auto found = search.Search(series);
  ASSERT_FALSE(found.empty());
  bool multi_harmonic = false;
  for (const Candidate& candidate : found) {
    if (candidate.harmonics > 1) {
      multi_harmonic = true;
    }
  }
  EXPECT_TRUE(multi_harmonic);
}

TEST(PeriodicitySearchDeathTest, RejectsMinBinBelowOne) {
  // min_bin -3 would read before power[] in the harmonic sum, and min_bin
  // 0 would read best_snr[-1] in the peak test; both are refused up front.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (int min_bin : {-3, 0}) {
    SearchConfig config;
    config.min_bin = min_bin;
    config.snr_threshold = 0.0;
    EXPECT_DEATH(PeriodicitySearch{config}, "min_bin >= 1")
        << "min_bin " << min_bin;
    EXPECT_DEATH((AccelerationSearch{config, {0.0}}), "min_bin >= 1")
        << "min_bin " << min_bin;
  }
  // The lowest bin allowed reads only power[1..] and best_snr[0..]
  // (checked under ASan).
  SearchConfig lowest;
  lowest.min_bin = 1;
  lowest.snr_threshold = 0.0;
  TimeSeries series;
  series.sample_time_sec = 1e-3;
  Rng rng(61);
  for (int i = 0; i < 64; ++i) {
    series.samples.push_back(rng.Normal());
  }
  EXPECT_FALSE(PeriodicitySearch(lowest).Search(series).empty());
}

TEST(AccelerationSearchTest, ResampleIdentityAtZero) {
  TimeSeries series;
  series.sample_time_sec = 1.0;
  series.samples = {1, 2, 3, 4, 5, 6, 7, 8};
  TimeSeries out = AccelerationSearch::Resample(series, 0.0);
  EXPECT_EQ(out.samples, series.samples);
}

TEST(AccelerationSearchTest, RecoversDriftingPulsar) {
  // Inject a pulsar whose frequency drifts several Fourier bins across
  // the block; the zero-acceleration search loses SNR, a matched trial
  // recovers it.
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 7);
  PulsarParams pulsar = TestPulsar(0.25, 60.0, 4.0);
  const double block_sec = kSamples * kSampleTime;
  const double f0 = 1.0 / pulsar.period_sec;
  const double alpha = 0.12;  // Fractional stretch over the block.
  pulsar.accel_bins = alpha * f0 * block_sec;  // Drift in bins.
  DynamicSpectrum spec = model.Generate({pulsar}, {});
  Dedisperser dedisperser(MakeDmTrials(300.0, 31));
  TimeSeries series = dedisperser.Dedisperse(spec, 60.0);

  SearchConfig config;
  config.snr_threshold = 5.0;
  PeriodicitySearch plain(config);
  double plain_best = 0.0;
  for (const Candidate& candidate : plain.Search(series)) {
    double ratio = candidate.freq_hz / f0;
    if (std::fabs(ratio - std::round(ratio)) < 0.1) {
      plain_best = std::max(plain_best, candidate.snr);
    }
  }

  std::vector<double> trials;
  for (double a = -0.2; a <= 0.2001; a += 0.04) {
    trials.push_back(-a);  // Resampling corrects with the opposite sign.
  }
  AccelerationSearch accelerated(config, trials);
  double accel_best = 0.0;
  double best_alpha = 0.0;
  for (const Candidate& candidate : accelerated.Search(series)) {
    double ratio = candidate.freq_hz / f0;
    if (std::fabs(ratio - std::round(ratio)) < 0.1 &&
        candidate.snr > accel_best) {
      accel_best = candidate.snr;
      best_alpha = candidate.accel;
    }
  }
  EXPECT_GT(accel_best, plain_best * 1.2);
  EXPECT_NE(best_alpha, 0.0);
}

TEST(SifterTest, MergesHarmonicsKeepsStrongest) {
  CandidateSifter sifter(SifterConfig{});
  std::vector<Candidate> raw;
  for (int h = 1; h <= 4; ++h) {
    Candidate candidate;
    candidate.freq_hz = 4.0 * h;
    candidate.dm = 60.0;
    candidate.snr = 20.0 / h;
    raw.push_back(candidate);
  }
  Candidate unrelated;
  unrelated.freq_hz = 7.3;
  unrelated.dm = 60.0;
  unrelated.snr = 9.0;
  raw.push_back(unrelated);

  auto sifted = sifter.Sift(raw);
  ASSERT_EQ(sifted.size(), 2u);
  EXPECT_DOUBLE_EQ(sifted[0].snr, 20.0);  // Fundamental kept.
}

TEST(SifterTest, SameFrequencyCollapsesAcrossDmTrials) {
  // A signal detected at many trial DMs is one candidate at its best DM.
  CandidateSifter sifter(SifterConfig{});
  Candidate a, b;
  a.freq_hz = b.freq_hz = 4.0;
  a.dm = 10.0;
  b.dm = 200.0;
  a.snr = 10.0;
  b.snr = 9.0;
  auto sifted = sifter.Sift({a, b});
  ASSERT_EQ(sifted.size(), 1u);
  EXPECT_DOUBLE_EQ(sifted[0].dm, 10.0);  // Strongest detection's DM.
}

TEST(SifterTest, HarmonicsAtDifferentDmsNotMerged) {
  // Harmonic folding requires DM agreement: a 2x frequency ratio at a
  // wildly different DM is a distinct signal.
  CandidateSifter sifter(SifterConfig{});
  Candidate a, b;
  a.freq_hz = 4.0;
  b.freq_hz = 8.0;
  a.dm = 10.0;
  b.dm = 200.0;
  a.snr = 10.0;
  b.snr = 9.0;
  EXPECT_EQ(sifter.Sift({a, b}).size(), 2u);
  b.dm = 12.0;  // Close DM: now it folds in.
  EXPECT_EQ(sifter.Sift({a, b}).size(), 1u);
}

TEST(MetaAnalysisTest, FlagsLowDmAndMultibeam) {
  MetaAnalysisConfig config;
  config.rfi_beam_threshold = 4;
  config.dm_min = 2.0;
  MetaAnalysis meta(config);

  std::vector<BeamResult> beams(7);
  for (int beam = 0; beam < 7; ++beam) {
    beams[static_cast<size_t>(beam)].beam = beam;
  }
  // RFI at 60 Hz in every beam (dispersed DM would be ~0 but use dm=5 to
  // test the multibeam rule specifically).
  for (int beam = 0; beam < 7; ++beam) {
    Candidate rfi;
    rfi.freq_hz = 60.0;
    rfi.dm = 5.0;
    rfi.snr = 12.0;
    beams[static_cast<size_t>(beam)].candidates.push_back(rfi);
  }
  // Real pulsar in one beam only.
  Candidate pulsar;
  pulsar.freq_hz = 4.0;
  pulsar.dm = 60.0;
  pulsar.snr = 9.0;
  beams[2].candidates.push_back(pulsar);
  // Undispersed signal in one beam: terrestrial by the DM rule.
  Candidate undispersed;
  undispersed.freq_hz = 11.0;
  undispersed.dm = 0.5;
  undispersed.snr = 8.0;
  beams[3].candidates.push_back(undispersed);

  auto analyzed = meta.Analyze(beams);
  auto survivors = MetaAnalysis::Survivors(analyzed);
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_DOUBLE_EQ(survivors[0].freq_hz, 4.0);
  EXPECT_EQ(survivors[0].beam, 2);

  int flagged = 0;
  for (const Candidate& candidate : analyzed) {
    if (candidate.rfi_flag) {
      ++flagged;
    }
  }
  EXPECT_EQ(flagged, 8);  // 7 RFI + 1 undispersed.
}

}  // namespace
}  // namespace dflow::arecibo
