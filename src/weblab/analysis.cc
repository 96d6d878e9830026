#include "weblab/analysis.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <set>

namespace dflow::weblab {

namespace {

// The tokenizer's byte table: ASCII [0-9A-Za-z] map to their lowercase
// form, every other byte to 0, a separator. This is isalnum/tolower in the
// C locale, which the program never changes.
constexpr std::array<char, 256> kTermBytes = [] {
  std::array<char, 256> table{};
  for (char c = '0'; c <= '9'; ++c) {
    table[static_cast<unsigned char>(c)] = c;
  }
  for (char c = 'a'; c <= 'z'; ++c) {
    table[static_cast<unsigned char>(c)] = c;
    table[static_cast<unsigned char>(c - 'a' + 'A')] = c;
  }
  return table;
}();

// Calls `fn` with each token of `text`, in order. A view is valid only
// during its call.
template <typename Fn>
void ForEachToken(std::string_view text, Fn&& fn) {
  std::string lowered(text.size(), '\0');
  char* out = lowered.data();
  size_t len = 0;
  for (char c : text) {
    const char lower = kTermBytes[static_cast<unsigned char>(c)];
    if (lower != 0) {
      out[len++] = lower;
    } else if (len != 0) {
      fn(std::string_view(out, len));
      len = 0;
    }
  }
  if (len != 0) {
    fn(std::string_view(out, len));
  }
}

}  // namespace

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  ForEachToken(text, [&tokens](std::string_view token) {
    tokens.emplace_back(token);
  });
  return tokens;
}

BurstDetector::BurstDetector(int min_count, double score_threshold)
    : min_count_(min_count), score_threshold_(score_threshold) {}

void BurstDetector::AddCrawl(int crawl_index,
                             const std::vector<WebPage>& pages) {
  CrawlCounts counts;
  counts.crawl_index = crawl_index;
  for (const WebPage& page : pages) {
    for (std::string& token : Tokenize(page.content)) {
      ++counts.term_counts[token];
      ++counts.total_tokens;
    }
  }
  crawls_.push_back(std::move(counts));
}

std::vector<Burst> BurstDetector::FindBursts() const {
  std::vector<Burst> bursts;
  if (crawls_.size() < 2) {
    return bursts;
  }
  // Candidate terms: anything clearing min_count in some crawl.
  std::set<std::string> candidates;
  for (const CrawlCounts& crawl : crawls_) {
    for (const auto& [term, count] : crawl.term_counts) {
      if (count >= min_count_) {
        candidates.insert(term);
      }
    }
  }
  // Baseline floor: a term that has never been seen before is treated as
  // if it had min_count occurrences in a typical crawl, so rare vocabulary
  // noise (one oddball word in one crawl) does not out-score genuine
  // volume surges.
  double mean_tokens = 0.0;
  for (const CrawlCounts& crawl : crawls_) {
    mean_tokens += static_cast<double>(crawl.total_tokens);
  }
  mean_tokens /= static_cast<double>(crawls_.size());
  const double floor =
      std::max(static_cast<double>(min_count_) / std::max(mean_tokens, 1.0),
               1e-9);

  for (const std::string& term : candidates) {
    // Per-crawl rates.
    std::vector<double> rates;
    rates.reserve(crawls_.size());
    for (const CrawlCounts& crawl : crawls_) {
      auto it = crawl.term_counts.find(term);
      double count = it == crawl.term_counts.end()
                         ? 0.0
                         : static_cast<double>(it->second);
      rates.push_back(crawl.total_tokens > 0
                          ? count / static_cast<double>(crawl.total_tokens)
                          : 0.0);
    }
    for (size_t i = 0; i < rates.size(); ++i) {
      // Baseline: mean rate over the *other* crawls, floored as above.
      double other_sum = 0.0;
      for (size_t j = 0; j < rates.size(); ++j) {
        if (j != i) {
          other_sum += rates[j];
        }
      }
      double baseline =
          std::max(other_sum / static_cast<double>(rates.size() - 1), floor);
      double score = rates[i] / baseline;
      if (score >= score_threshold_ &&
          rates[i] * static_cast<double>(crawls_[i].total_tokens) >=
              min_count_) {
        bursts.push_back(Burst{term, crawls_[i].crawl_index, rates[i],
                               baseline, score});
      }
    }
  }
  std::sort(bursts.begin(), bursts.end(), [](const Burst& a, const Burst& b) {
    return a.score > b.score;
  });
  return bursts;
}

std::string DomainOf(const std::string& url) {
  size_t start = url.find("://");
  start = start == std::string::npos ? 0 : start + 3;
  size_t end = url.find('/', start);
  return url.substr(start,
                    end == std::string::npos ? std::string::npos
                                             : end - start);
}

std::vector<PageMetadata> StratifiedSampleByDomain(
    const std::vector<PageMetadata>& pages, int per_stratum, uint64_t seed) {
  std::map<std::string, std::vector<const PageMetadata*>> strata;
  for (const PageMetadata& page : pages) {
    strata[DomainOf(page.url)].push_back(&page);
  }
  Rng rng(seed);
  std::vector<PageMetadata> sample;
  for (auto& [domain, members] : strata) {
    rng.Shuffle(members);
    int take = std::min<int>(per_stratum, static_cast<int>(members.size()));
    for (int i = 0; i < take; ++i) {
      sample.push_back(*members[static_cast<size_t>(i)]);
    }
  }
  return sample;
}

void InvertedIndex::AddPage(const std::string& url,
                            std::string_view content) {
  const int doc =
      doc_ids_.try_emplace(url, static_cast<int>(docs_.size())).first->second;
  const bool fresh = doc == static_cast<int>(docs_.size());
  if (fresh) {
    docs_.push_back(url);
  }
  ForEachToken(content, [&](std::string_view token) {
    auto found = term_ids_.find(token);
    if (found == term_ids_.end()) {
      found = term_ids_.emplace(token, static_cast<int>(postings_.size()))
                  .first;
      postings_.emplace_back();
      last_doc_.push_back(-1);
    }
    const size_t id = static_cast<size_t>(found->second);
    if (last_doc_[id] == doc) {
      return;
    }
    last_doc_[id] = doc;
    std::vector<int>& posting = postings_[id];
    // A fresh url has the highest doc id, so appending keeps the posting
    // ascending; a re-added url may already be posted, or belong earlier.
    auto pos = fresh ? posting.end()
                     : std::lower_bound(posting.begin(), posting.end(), doc);
    if (pos == posting.end() || *pos != doc) {
      posting.insert(pos, doc);
      ++num_postings_;
    }
  });
}

std::vector<std::string> InvertedIndex::Urls(
    const std::vector<int>& docs) const {
  std::vector<std::string> out;
  out.reserve(docs.size());
  for (int doc : docs) {
    out.push_back(docs_[static_cast<size_t>(doc)]);
  }
  return out;
}

std::vector<std::string> InvertedIndex::Lookup(const std::string& term) const {
  auto it = term_ids_.find(term);
  if (it == term_ids_.end()) {
    return {};
  }
  return Urls(postings_[static_cast<size_t>(it->second)]);
}

std::vector<std::string> InvertedIndex::LookupAll(
    const std::vector<std::string>& terms) const {
  if (terms.empty()) {
    return {};
  }
  // Postings are ascending and unique, so they intersect as they are.
  const std::vector<int>* current = nullptr;
  std::vector<int> merged;
  for (const std::string& term : terms) {
    auto it = term_ids_.find(term);
    if (it == term_ids_.end()) {
      return {};
    }
    const std::vector<int>& posting =
        postings_[static_cast<size_t>(it->second)];
    if (current == nullptr) {
      current = &posting;
      continue;
    }
    std::vector<int> next;
    std::set_intersection(current->begin(), current->end(), posting.begin(),
                          posting.end(), std::back_inserter(next));
    merged = std::move(next);
    current = &merged;
  }
  return Urls(*current);
}

}  // namespace dflow::weblab
