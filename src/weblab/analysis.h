#ifndef DFLOW_WEBLAB_ANALYSIS_H_
#define DFLOW_WEBLAB_ANALYSIS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/result.h"
#include "util/rng.h"
#include "weblab/arc_format.h"

namespace dflow::weblab {

/// Splits page text into lowercase word tokens: runs of ASCII [0-9A-Za-z].
/// Every other byte, 0x80-0xFF included, separates tokens.
std::vector<std::string> Tokenize(std::string_view text);

/// A term whose frequency rose sharply in one crawl relative to its
/// baseline across all crawls.
struct Burst {
  std::string term;
  int crawl_index = 0;
  double rate = 0.0;       // Term frequency in the bursting crawl.
  double baseline = 0.0;   // Mean frequency across other crawls.
  double score = 0.0;      // rate / baseline.
};

/// Burst detection over time slices (§4: "research on burst detection,
/// which can be used to identify emerging topics... and to highlight
/// portions of the Web that are undergoing rapid change"). Feed the
/// detector one crawl at a time; FindBursts compares each term's
/// per-crawl rate to its cross-crawl baseline.
class BurstDetector {
 public:
  /// Tunables: terms below `min_count` occurrences in a crawl are ignored;
  /// a burst requires rate >= `score_threshold` x baseline.
  BurstDetector(int min_count = 10, double score_threshold = 3.0);

  void AddCrawl(int crawl_index, const std::vector<WebPage>& pages);

  /// Bursts across all observed crawls, strongest first.
  std::vector<Burst> FindBursts() const;

  int num_crawls() const { return static_cast<int>(crawls_.size()); }

 private:
  struct CrawlCounts {
    int crawl_index;
    int64_t total_tokens = 0;
    std::map<std::string, int64_t> term_counts;
  };

  int min_count_;
  double score_threshold_;
  std::vector<CrawlCounts> crawls_;
};

/// Stratified sampling of pages by domain (§4.2: "it would be extremely
/// difficult to extract a stratified sample of Web pages from the Internet
/// Archive" on the cluster architecture — but easy here). Returns up to
/// `per_stratum` pages from every domain, deterministically for one seed.
std::vector<PageMetadata> StratifiedSampleByDomain(
    const std::vector<PageMetadata>& pages, int per_stratum, uint64_t seed);

/// Domain (host) of a url, e.g. "site3.example.org".
std::string DomainOf(const std::string& url);

/// Inverted full-text index over page content for one crawl ("full text
/// indexes are highly important, but need not cover the entire Web").
/// Terms are the tokens of Tokenize(). Each url is one document, numbered
/// in the order it was first added; adding a url again posts its new terms
/// under the same document.
class InvertedIndex {
 public:
  void AddPage(const std::string& url, std::string_view content);

  /// Urls containing `term`, in the order they were first added.
  std::vector<std::string> Lookup(const std::string& term) const;

  /// Urls containing every term (conjunctive query), in the order they
  /// were first added.
  std::vector<std::string> LookupAll(
      const std::vector<std::string>& terms) const;

  int64_t num_terms() const { return static_cast<int64_t>(postings_.size()); }
  /// Distinct (term, document) pairs.
  int64_t num_postings() const { return num_postings_; }
  /// Distinct urls added.
  int64_t num_docs() const { return static_cast<int64_t>(docs_.size()); }

 private:
  struct TermHash {
    using is_transparent = void;
    size_t operator()(std::string_view term) const {
      return std::hash<std::string_view>{}(term);
    }
  };

  std::vector<std::string> Urls(const std::vector<int>& docs) const;

  std::unordered_map<std::string, int, TermHash, std::equal_to<>> term_ids_;
  std::vector<std::vector<int>> postings_;  // Term id -> doc ids, ascending.
  std::vector<int> last_doc_;               // Term id -> doc it last saw.
  std::vector<std::string> docs_;
  std::unordered_map<std::string, int> doc_ids_;
  int64_t num_postings_ = 0;
};

}  // namespace dflow::weblab

#endif  // DFLOW_WEBLAB_ANALYSIS_H_
