#include "arecibo/survey.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "arecibo/dedisperse.h"
#include "arecibo/flow.h"
#include "arecibo/votable.h"
#include "core/flow_graph.h"
#include "core/flow_runner.h"
#include "par/par.h"
#include "sim/simulation.h"
#include "util/md5.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace dflow::arecibo {
namespace {

SurveyConfig SmallConfig() {
  SurveyConfig config;
  config.num_channels = 48;
  config.num_samples = 1 << 12;
  config.sample_time_sec = 1e-3;
  config.num_dm_trials = 12;
  config.dm_max = 200.0;
  config.search.snr_threshold = 6.0;
  return config;
}

TEST(SurveyPipelineTest, EndToEndDetectionWithRfiRejection) {
  SurveyConfig config = SmallConfig();
  SurveyPipeline pipeline(config);

  InjectedPulsar pulsar;
  pulsar.beam = 3;
  pulsar.params.period_sec = 0.25;
  pulsar.params.dm = 90.0;
  pulsar.params.pulse_amplitude = 5.0;
  pulsar.params.duty_cycle = 0.05;

  RfiParams rfi;
  rfi.period_sec = 1.0 / 60.0;
  rfi.amplitude = 1.5;
  rfi.channel_lo = 0;
  rfi.channel_hi = 47;

  PointingResult result = pipeline.ProcessPointing(1, {pulsar}, {rfi});

  // The pulsar survives meta-analysis in beam 3.
  bool found_pulsar = false;
  for (const Candidate& detection : result.detections) {
    double ratio = detection.freq_hz / 4.0;
    if (std::fabs(ratio - std::round(ratio)) < 0.05 && detection.beam == 3) {
      found_pulsar = true;
    }
  }
  EXPECT_TRUE(found_pulsar);

  // The 60 Hz RFI appears in candidates but is flagged.
  bool rfi_flagged = false;
  for (const Candidate& candidate : result.candidates) {
    if (candidate.rfi_flag && std::fabs(candidate.freq_hz - 60.0) < 3.0) {
      rfi_flagged = true;
    }
  }
  EXPECT_TRUE(rfi_flagged);

  // No surviving detection is at the RFI frequency.
  for (const Candidate& detection : result.detections) {
    EXPECT_GT(std::fabs(detection.freq_hz - 60.0), 1.0);
  }
}

TEST(SurveyPipelineTest, EmptySkyProducesFewDetections) {
  SurveyConfig config = SmallConfig();
  // Trials-aware threshold (exponential-tailed spectral noise over
  // ~7 beams x 12 DM trials x 2048 bins).
  config.search.snr_threshold = 13.0;
  SurveyPipeline pipeline(config);
  PointingResult result = pipeline.ProcessPointing(2, {}, {});
  EXPECT_LE(result.detections.size(), 2u);
}

TEST(SurveyPipelineTest, PayloadAccountingConsistent) {
  SurveyConfig config = SmallConfig();
  SurveyPipeline pipeline(config);
  PointingResult result = pipeline.ProcessPointing(3, {}, {});
  // 7 beams of channels x samples x 4 bytes.
  EXPECT_EQ(result.raw_payload_bytes,
            7LL * config.num_channels * config.num_samples * 4);
  // num_dm_trials series per beam, each num_samples doubles.
  EXPECT_EQ(result.dedispersed_payload_bytes,
            7LL * config.num_dm_trials * config.num_samples * 8);
}

TEST(SurveyPipelineTest, PaperScaleArithmetic) {
  SurveyPipeline pipeline(SurveyConfig{});
  // "400 telescope pointings ... about 35 hours ... 14 Terabytes".
  EXPECT_EQ(pipeline.RawBytesPerBlock(), 14 * kTB);
  // "These time series require storage about equal to ... the raw data".
  EXPECT_EQ(pipeline.DedispersedBytesPerBlock(), 14 * kTB);
  // "a minimum of 30 Terabytes of storage is required instantaneously".
  EXPECT_GE(pipeline.PeakBlockStorageBytes(), 29 * kTB);
  // ~1 PB over 5 years -> ~6.3 MB/s mean.
  EXPECT_NEAR(pipeline.MeanRawRate(), 6.3e6, 0.5e6);
}

TEST(AreciboFlowTest, FigureOneVolumesMatchPaperRatios) {
  SurveyConfig config;  // Paper-scale accounting.
  sim::Simulation simulation;
  core::FlowGraph graph;
  ASSERT_TRUE(BuildAreciboFlow(config, &graph).ok());
  core::FlowRunner runner(&simulation, &graph);
  ASSERT_TRUE(runner.SetWorkers(AreciboFlowStages::kConsortium, 128).ok());
  ASSERT_TRUE(runner.SetWorkers(AreciboFlowStages::kTapeArchive, 4).ok());
  ASSERT_TRUE(ConfigureAreciboSites(&runner).ok());
  ASSERT_TRUE(InjectObservingBlock(config, &runner).ok());
  ASSERT_TRUE(runner.Run().ok());

  using S = AreciboFlowStages;
  // One week's block: 400 pointings, 14 TB raw.
  EXPECT_EQ(runner.MetricsFor(S::kAcquisition).products_in, 400);
  EXPECT_EQ(runner.MetricsFor(S::kTapeArchive).bytes_in, 14 * kTB);
  // Data products are ~2% of raw.
  int64_t products = runner.MetricsFor(S::kConsortium).bytes_out;
  double product_ratio = static_cast<double>(products) / (14.0 * kTB);
  EXPECT_GT(product_ratio, 0.01);
  EXPECT_LT(product_ratio, 0.03);
  // Refined candidates ~0.1% of raw.
  int64_t candidates = runner.MetricsFor(S::kMetaAnalysis).bytes_out;
  EXPECT_NEAR(static_cast<double>(candidates) / (14.0 * kTB), 0.001, 2e-4);
  // Everything flows to the NVO sink.
  EXPECT_EQ(runner.SinkOutputs(S::kNvo).size(), 400u);

  // Provenance chains carry all eight stages, each tagged with its
  // processing site (the "processing code and processing site" rule).
  const auto& final_products = runner.SinkOutputs(S::kNvo);
  const auto& steps = final_products[0].provenance.steps();
  ASSERT_EQ(steps.size(), 8u);
  EXPECT_EQ(steps[0].site, "Arecibo");
  EXPECT_EQ(steps[3].site, "CTC");
  EXPECT_EQ(steps[4].site, "PALFA-members");
  EXPECT_EQ(steps[7].site, "NVO");
}

// Dedispersion as the per-channel loop computes it: each channel added
// over its in-range samples, channel by channel, then the sqrt(C)
// normalization. The blocked kernels must reproduce it byte for byte.
std::vector<double> PerChannelDedisperse(const DynamicSpectrum& spectrum,
                                         double dm) {
  const int64_t n = spectrum.num_samples;
  std::vector<double> out(static_cast<size_t>(n), 0.0);
  const std::vector<int64_t> shifts = DelayShiftTable(spectrum, dm);
  for (int channel = 0; channel < spectrum.num_channels; ++channel) {
    const int64_t shift = shifts[static_cast<size_t>(channel)];
    const int64_t lo = std::max<int64_t>(0, -shift);
    const int64_t hi = std::min<int64_t>(n, n - shift);
    for (int64_t s = lo; s < hi; ++s) {
      out[static_cast<size_t>(s)] +=
          static_cast<double>(spectrum.At(channel, s + shift));
    }
  }
  const double norm =
      1.0 / std::sqrt(static_cast<double>(spectrum.num_channels));
  for (double& x : out) {
    x *= norm;
  }
  return out;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(DedisperseDifferentialTest, BlockedSumMatchesPerChannelLoop) {
  // Negative shifts, none, small and large ones, and a DM that pushes most
  // channels wholly out of range.
  const std::vector<double> dms = {-50.0, 0.0, 10.0, 300.0, 5000.0};
  const Dedisperser dedisperser(dms);
  // Signed zeros and infinities in the input. The NaN is the one inf - inf
  // gives on this host, so every NaN an add meets or makes has one
  // encoding, whichever operand order the compiler picks.
  const volatile float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f, -0.0f, inf, -inf, inf - inf};
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (int threads : {1, 2, 4}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  for (int channels : {1, 3, 4, 5, 96, 97}) {
    for (int64_t samples : {7, 1000, 1024, 1500, 8192}) {
      DynamicSpectrum spectrum;
      spectrum.num_channels = channels;
      spectrum.num_samples = samples;
      spectrum.power.resize(static_cast<size_t>(channels * samples));
      Rng rng(static_cast<uint64_t>(channels * 100003 + samples));
      for (float& x : spectrum.power) {
        x = rng.Bernoulli(0.002) ? specials[rng.Uniform(0, 4)]
                                 : static_cast<float>(rng.Normal());
      }
      std::vector<std::vector<double>> expected;
      for (double dm : dms) {
        expected.push_back(PerChannelDedisperse(spectrum, dm));
      }
      for (const auto& pool : pools) {
        par::ScopedPool scoped(pool.get());
        const std::vector<TimeSeries> all =
            dedisperser.DedisperseAll(spectrum);
        ASSERT_EQ(all.size(), dms.size());
        for (size_t t = 0; t < dms.size(); ++t) {
          EXPECT_EQ(all[t].dm, dms[t]);
          EXPECT_EQ(all[t].sample_time_sec, spectrum.sample_time_sec);
          EXPECT_TRUE(SameBytes(all[t].samples, expected[t]))
              << "DedisperseAll: " << channels << " x " << samples
              << " at DM " << dms[t] << ", " << pool->num_threads()
              << " threads";
          EXPECT_TRUE(SameBytes(
              dedisperser.Dedisperse(spectrum, dms[t]).samples, expected[t]))
              << "Dedisperse: " << channels << " x " << samples << " at DM "
              << dms[t] << ", " << pool->num_threads() << " threads";
        }
      }
    }
  }
}

TEST(BeamDigestTest, GenerateDedisperseAndDetectionsArePinned) {
  // One MD5 over a default-config beam's noise and pulsar bytes, its full
  // DM sweep, and the detections of eight default-config pointings, two of
  // them with a pulsar. Any change to a sample, a series or a detection
  // moves it.
  const SurveyConfig config;
  PulsarParams pulsar;
  pulsar.period_sec = 1.0 / 91.3;
  pulsar.dm = 120.0;
  pulsar.pulse_amplitude = 0.6;
  pulsar.duty_cycle = 0.05;
  pulsar.phase = 0.3;
  RfiParams mains;
  mains.period_sec = 1.0 / 60.0;
  mains.amplitude = 1.5;
  mains.channel_lo = 0;
  mains.channel_hi = config.num_channels - 1;

  Md5 md5;
  SpectrometerModel model(config.num_channels, config.num_samples,
                          config.sample_time_sec, 77);
  const DynamicSpectrum spectrum = model.Generate({pulsar}, {mains});
  md5.Update(spectrum.power.data(), spectrum.power.size() * sizeof(float));
  const Dedisperser dedisperser(
      MakeDmTrials(config.dm_max, config.num_dm_trials));
  for (const TimeSeries& series : dedisperser.DedisperseAll(spectrum)) {
    md5.Update(&series.dm, sizeof(series.dm));
    md5.Update(series.samples.data(), series.samples.size() * sizeof(double));
  }

  SurveyPipeline pipeline(config);
  int pulsar_beam_detections = 0;
  for (int pointing = 0; pointing < 8; ++pointing) {
    std::vector<InjectedPulsar> pulsars;
    if (pointing == 2 || pointing == 5) {
      pulsars.push_back(InjectedPulsar{pointing, pulsar});
    }
    const PointingResult result =
        pipeline.ProcessPointing(pointing, pulsars, {mains});
    for (const Candidate& c : result.detections) {
      md5.Update(&c.freq_hz, sizeof(c.freq_hz));
      md5.Update(&c.period_sec, sizeof(c.period_sec));
      md5.Update(&c.dm, sizeof(c.dm));
      md5.Update(&c.snr, sizeof(c.snr));
      md5.Update(&c.harmonics, sizeof(c.harmonics));
      md5.Update(&c.accel, sizeof(c.accel));
      md5.Update(&c.beam, sizeof(c.beam));
      md5.Update(&c.pointing, sizeof(c.pointing));
      md5.Update(&c.rfi_flag, sizeof(c.rfi_flag));
      if (!pulsars.empty() && c.beam == pointing) {
        ++pulsar_beam_detections;
      }
    }
  }
  // The digest covers real detections, not two empty pointings.
  EXPECT_GE(pulsar_beam_detections, 2);
  EXPECT_EQ(md5.HexDigest(), "473b01dddfce797f14751aa5a6f0f4e9");
}

TEST(VoTableTest, RoundTrip) {
  std::vector<Candidate> candidates;
  for (int i = 0; i < 5; ++i) {
    Candidate candidate;
    candidate.freq_hz = 4.0 + i;
    candidate.period_sec = 1.0 / candidate.freq_hz;
    candidate.dm = 60.0 + i;
    candidate.snr = 9.5 + i;
    candidate.beam = i;
    candidate.pointing = 100 + i;
    candidate.rfi_flag = (i % 2 == 0);
    candidates.push_back(candidate);
  }
  std::string xml = CandidatesToVoTable(candidates, "PALFA");
  EXPECT_NE(xml.find("<VOTABLE"), std::string::npos);
  EXPECT_NE(xml.find("PALFA"), std::string::npos);

  auto parsed = VoTableToCandidates(xml);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR((*parsed)[i].freq_hz, candidates[i].freq_hz, 1e-9);
    EXPECT_NEAR((*parsed)[i].dm, candidates[i].dm, 1e-9);
    EXPECT_EQ((*parsed)[i].beam, candidates[i].beam);
    EXPECT_EQ((*parsed)[i].rfi_flag, candidates[i].rfi_flag);
  }
}

TEST(VoTableTest, RejectsGarbage) {
  EXPECT_FALSE(VoTableToCandidates("not xml").ok());
  EXPECT_FALSE(
      VoTableToCandidates("<VOTABLE><TR><TD>1</TD></TR></VOTABLE>").ok());
}

}  // namespace
}  // namespace dflow::arecibo
