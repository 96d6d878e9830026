// Microbenchmarks of the Arecibo signal-processing kernels: noise
// synthesis, FFT, dedispersion, harmonic-summed search, one survey beam and
// one pointing, and wlz (de)compression -- the CPU costs behind the paper's
// "50 to 200 processors" estimate.

#include <cmath>
#include <complex>
#include <numbers>

#include <benchmark/benchmark.h>

#include "arecibo/dedisperse.h"
#include "arecibo/fft.h"
#include "arecibo/search.h"
#include "arecibo/spectrometer.h"
#include "arecibo/survey.h"
#include "par/par.h"
#include "util/compress.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace dflow;
using namespace dflow::arecibo;

void BM_Fft(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::complex<double>> data(n);
  for (auto& x : data) {
    x = {rng.Normal(), 0.0};
  }
  for (auto _ : state) {
    auto copy = data;
    benchmark::DoNotOptimize(Fft(copy));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

void BM_FftTwiddleTable(benchmark::State& state) {
  // The hoisted process-wide twiddle cache: after the first call for a
  // size, every lookup is one acquire load. The micro-check pins both
  // halves of the contract: (a) repeated calls return the SAME table (no
  // per-call rebuild — the hoist that removed the per-Fft mutex+map walk),
  // and (b) every entry equals the direct cos/sin evaluation, so the cache
  // can never drift from exp(-2*pi*i*j/n).
  const size_t n = 1 << 14;
  const auto& table = FftTwiddleTable(n);
  DFLOW_CHECK(&FftTwiddleTable(n) == &table);  // Stable across calls.
  DFLOW_CHECK(table.size() == n / 2);
  for (size_t j = 0; j < n / 2; ++j) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                         static_cast<double>(n);
    DFLOW_CHECK(table[j] ==
                std::complex<double>(std::cos(angle), std::sin(angle)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(&FftTwiddleTable(n));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FftTwiddleTable);

// Mains RFI across the band, as the survey_block pointings carry it.
RfiParams MainsRfi(int channels) {
  RfiParams rfi;
  rfi.period_sec = 1.0 / 60.0;
  rfi.amplitude = 1.5;
  rfi.channel_lo = 0;
  rfi.channel_hi = channels - 1;
  return rfi;
}

void BM_SpectrometerGenerate(benchmark::State& state) {
  // One survey beam of radiometer noise: 96 channels x 8192 samples.
  const SurveyConfig config;
  SpectrometerModel model(config.num_channels, config.num_samples,
                          config.sample_time_sec, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Generate({}, {}));
  }
  state.SetItemsProcessed(state.iterations() * config.num_channels *
                          config.num_samples);
}
BENCHMARK(BM_SpectrometerGenerate)->Unit(benchmark::kMillisecond);

void BM_SurveyBeam(benchmark::State& state) {
  // One default beam as ProcessPointing runs it on a worker: synthesis,
  // the 24-trial DM sweep and the batched search, every region inline.
  const SurveyConfig config;
  const Dedisperser dedisperser(
      MakeDmTrials(config.dm_max, config.num_dm_trials));
  const PeriodicitySearch search(config.search);
  const RfiParams rfi = MainsRfi(config.num_channels);
  par::SerialOverride serial;
  for (auto _ : state) {
    SpectrometerModel model(config.num_channels, config.num_samples,
                            config.sample_time_sec, 2);
    const DynamicSpectrum spectrum = model.Generate({}, {rfi});
    const std::vector<TimeSeries> trials =
        dedisperser.DedisperseAll(spectrum);
    benchmark::DoNotOptimize(search.SearchBatch(trials));
  }
}
BENCHMARK(BM_SurveyBeam)->Unit(benchmark::kMillisecond);

void BM_SurveyPointing(benchmark::State& state) {
  // A default 7-beam pointing on a 2-thread pool, as survey_block runs it.
  const SurveyConfig config;
  SurveyPipeline pipeline(config);
  const RfiParams rfi = MainsRfi(config.num_channels);
  ThreadPool pool(2);
  par::ScopedPool scoped(&pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.ProcessPointing(1, {}, {rfi}));
  }
}
BENCHMARK(BM_SurveyPointing)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_DedisperseOneTrial(benchmark::State& state) {
  SpectrometerModel model(96, 1 << 14, 6.4e-5, 2);
  DynamicSpectrum spectrum = model.Generate({}, {});
  Dedisperser dedisperser(MakeDmTrials(300.0, 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dedisperser.Dedisperse(spectrum, 150.0));
  }
  state.SetBytesProcessed(state.iterations() * spectrum.SizeBytes());
}
BENCHMARK(BM_DedisperseOneTrial);

void BM_DelayShiftTable(benchmark::State& state) {
  // The hoisted per-(dm, channel) shift table: one delay evaluation per
  // channel per call, amortized over every sample of the trial. The
  // micro-check pins the table against the direct per-channel formula so
  // the hoist can never drift from the physics.
  SpectrometerModel model(96, 1 << 14, 6.4e-5, 2);
  DynamicSpectrum spectrum = model.Generate({}, {});
  const double dm = 150.0;
  const std::vector<int64_t> table = DelayShiftTable(spectrum, dm);
  DFLOW_CHECK(table.size() == static_cast<size_t>(spectrum.num_channels));
  for (int c = 0; c < spectrum.num_channels; ++c) {
    const double delay = DispersionDelaySec(dm, spectrum.ChannelFreqMhz(c)) -
                         DispersionDelaySec(dm, spectrum.freq_hi_mhz);
    DFLOW_CHECK(table[static_cast<size_t>(c)] ==
                std::lround(delay / spectrum.sample_time_sec));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DelayShiftTable(spectrum, dm));
  }
  state.SetItemsProcessed(state.iterations() * spectrum.num_channels);
}
BENCHMARK(BM_DelayShiftTable);

void BM_DedisperseAllTrials(benchmark::State& state) {
  // The full DM sweep (the P1 hot path) at bench scale; parallel on the
  // dflow::par shared pool.
  SpectrometerModel model(96, 1 << 13, 6.4e-5, 2);
  DynamicSpectrum spectrum = model.Generate({}, {});
  Dedisperser dedisperser(MakeDmTrials(300.0, static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dedisperser.DedisperseAll(spectrum));
  }
  state.SetBytesProcessed(state.iterations() * spectrum.SizeBytes() *
                          state.range(0));
}
BENCHMARK(BM_DedisperseAllTrials)->Arg(16)->Arg(64);

void BM_PeriodicitySearch(benchmark::State& state) {
  SpectrometerModel model(96, 1 << 14, 6.4e-5, 3);
  PulsarParams pulsar;
  pulsar.period_sec = 0.25;
  pulsar.dm = 100.0;
  pulsar.pulse_amplitude = 4.0;
  DynamicSpectrum spectrum = model.Generate({pulsar}, {});
  Dedisperser dedisperser(MakeDmTrials(300.0, 4));
  TimeSeries series = dedisperser.Dedisperse(spectrum, 100.0);
  SearchConfig config;
  PeriodicitySearch search(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.Search(series));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(series.samples.size()));
}
BENCHMARK(BM_PeriodicitySearch);

void BM_AccelerationSearch(benchmark::State& state) {
  SpectrometerModel model(96, 1 << 13, 6.4e-5, 4);
  DynamicSpectrum spectrum = model.Generate({}, {});
  Dedisperser dedisperser(MakeDmTrials(300.0, 2));
  TimeSeries series = dedisperser.Dedisperse(spectrum, 100.0);
  std::vector<double> trials;
  for (double a = -0.2; a <= 0.2001; a += 0.05) {
    trials.push_back(a);
  }
  AccelerationSearch search(SearchConfig{}, trials);
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.Search(series));
  }
  state.counters["accel_trials"] = static_cast<double>(trials.size());
}
BENCHMARK(BM_AccelerationSearch);

void BM_WlzCompress(benchmark::State& state) {
  Rng rng(5);
  std::string text;
  static const char* kWords[] = {"pulsar", "survey", "beam", "trial",
                                 "candidate"};
  for (int i = 0; i < 20000; ++i) {
    text += kWords[rng.Uniform(0, 4)];
    text += ' ';
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(WlzCompress(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_WlzCompress);

void BM_WlzDecompress(benchmark::State& state) {
  Rng rng(6);
  std::string text;
  for (int i = 0; i < 50000; ++i) {
    text.push_back(static_cast<char>('a' + rng.Uniform(0, 11)));
  }
  std::string compressed = WlzCompress(text);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WlzDecompress(compressed));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_WlzDecompress);

}  // namespace

BENCHMARK_MAIN();
