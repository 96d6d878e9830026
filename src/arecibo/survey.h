#ifndef DFLOW_ARECIBO_SURVEY_H_
#define DFLOW_ARECIBO_SURVEY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "arecibo/dedisperse.h"
#include "arecibo/search.h"
#include "arecibo/sifter.h"
#include "arecibo/single_pulse.h"
#include "arecibo/spectrometer.h"
#include "util/units.h"

namespace dflow::arecibo {

/// Survey parameters. The `paper` constants carry the publication's true
/// volumes for byte accounting; the `payload` constants size the synthetic
/// data we actually crunch (the scale-factor substitution documented in
/// DESIGN.md).
struct SurveyConfig {
  // --- Paper-scale accounting (§2.1) ---
  int num_beams = 7;                       // ALFA feed array.
  int pointings_per_block = 400;           // "400 telescope pointings
                                           //  obtained in one week".
  int64_t raw_bytes_per_pointing = 35 * kGB;  // 400 x 35 GB = 14 TB.
  double block_telescope_hours = 35.0;     // Hours per 400-pointing block.
  double survey_years = 5.0;
  int64_t survey_raw_bytes = kPB;          // "about a Petabyte of raw data".
  double product_fraction = 0.02;          // Products are 1-3% of raw.
  double candidate_fraction = 0.001;       // Refined candidates ~0.1%.

  // --- Payload scale (what the laptop actually processes) ---
  int num_channels = 96;
  int64_t num_samples = 1 << 13;
  double sample_time_sec = 6.4e-5;
  int num_dm_trials = 24;
  double dm_max = 300.0;

  SearchConfig search;
  SifterConfig sifter;
  MetaAnalysisConfig meta;
  /// Run the single-pulse (transient) search alongside the periodicity
  /// search (§2.1's "investigation of the time series for transient
  /// signals").
  bool search_transients = false;
  SinglePulseConfig single_pulse;
  uint64_t seed = 20060403;
};

/// Outcome of the full search on one pointing.
struct PointingResult {
  int pointing = 0;
  /// Every candidate after sifting + meta-analysis, RFI flags set.
  std::vector<Candidate> candidates;
  /// Candidates surviving RFI excision.
  std::vector<Candidate> detections;
  /// Transient (single-pulse) events surviving the cross-beam coincidence
  /// cut, strongest first; populated when config.search_transients is set.
  std::vector<TransientEvent> transients;
  int64_t raw_payload_bytes = 0;
  int64_t dedispersed_payload_bytes = 0;
};

/// A pulsar injected into one beam of a pointing (beam -1 = absent; real
/// pulsars illuminate a single beam, which is what lets the meta-analysis
/// separate them from RFI).
struct InjectedPulsar {
  int beam = 0;
  PulsarParams params;
};

/// A transient burst injected into one beam.
struct InjectedTransient {
  int beam = 0;
  TransientParams params;
};

/// The end-to-end per-pointing search: synthesize all beams, dedisperse
/// across the DM trial set, run the (optionally accelerated) periodicity
/// search per trial, sift, then meta-analyze across beams.
class SurveyPipeline {
 public:
  explicit SurveyPipeline(SurveyConfig config);

  PointingResult ProcessPointing(
      int pointing_id, const std::vector<InjectedPulsar>& pulsars,
      const std::vector<RfiParams>& rfi,
      const std::vector<double>& accel_trials = {},
      const std::vector<InjectedTransient>& transients = {});

  const SurveyConfig& config() const { return config_; }

  // --- Paper-scale arithmetic used by the storage/throughput benches ---
  /// 400 pointings x 35 GB = 14 TB.
  int64_t RawBytesPerBlock() const;
  /// Dedispersed series storage for one block ("about equal" to raw).
  int64_t DedispersedBytesPerBlock() const;
  /// Raw + dedispersed held simultaneously (the ">= 30 TB instantaneously"
  /// claim).
  int64_t PeakBlockStorageBytes() const;
  /// Mean raw data rate over the survey (bytes/sec of wall time).
  double MeanRawRate() const;

 private:
  SurveyConfig config_;
};

}  // namespace dflow::arecibo

#endif  // DFLOW_ARECIBO_SURVEY_H_
