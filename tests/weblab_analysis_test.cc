#include "weblab/analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <iterator>
#include <map>
#include <set>

#include "util/rng.h"
#include "weblab/crawler.h"

namespace dflow::weblab {
namespace {

// Reference tokenizer: alnum runs lowercased through <cctype> in the C
// locale.
std::vector<std::string> ReferenceTokenize(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) {
    tokens.push_back(std::move(current));
  }
  return tokens;
}

// Reference index: a std::set of each page's terms, a std::map from term
// to ascending doc ids, and a conjunction that sorts copies of the
// postings before intersecting them.
class ReferenceIndex {
 public:
  void AddPage(const std::string& url, std::string_view content) {
    auto [it, inserted] =
        doc_ids_.try_emplace(url, static_cast<int>(docs_.size()));
    if (inserted) {
      docs_.push_back(url);
    }
    const int doc = it->second;
    std::set<std::string> unique_terms;
    for (std::string& token : ReferenceTokenize(content)) {
      unique_terms.insert(std::move(token));
    }
    for (const std::string& term : unique_terms) {
      std::vector<int>& posting = postings_[term];
      auto pos = std::lower_bound(posting.begin(), posting.end(), doc);
      if (pos == posting.end() || *pos != doc) {
        posting.insert(pos, doc);
        ++num_postings_;
      }
    }
  }

  std::vector<std::string> Lookup(const std::string& term) const {
    auto it = postings_.find(term);
    return it == postings_.end() ? std::vector<std::string>{}
                                 : Urls(it->second);
  }

  std::vector<std::string> LookupAll(
      const std::vector<std::string>& terms) const {
    if (terms.empty()) {
      return {};
    }
    std::vector<int> current;
    for (size_t i = 0; i < terms.size(); ++i) {
      auto it = postings_.find(terms[i]);
      if (it == postings_.end()) {
        return {};
      }
      std::vector<int> sorted = it->second;
      std::sort(sorted.begin(), sorted.end());
      if (i == 0) {
        current = std::move(sorted);
      } else {
        std::vector<int> merged;
        std::set_intersection(current.begin(), current.end(), sorted.begin(),
                              sorted.end(), std::back_inserter(merged));
        current = std::move(merged);
      }
    }
    return Urls(current);
  }

  /// Every term, most postings first (ties by term).
  std::vector<std::string> TermsByFrequency() const {
    std::vector<std::string> terms;
    for (const auto& [term, posting] : postings_) {
      terms.push_back(term);
    }
    std::stable_sort(terms.begin(), terms.end(),
                     [this](const std::string& a, const std::string& b) {
                       return postings_.at(a).size() > postings_.at(b).size();
                     });
    return terms;
  }

  int64_t num_terms() const { return static_cast<int64_t>(postings_.size()); }
  int64_t num_postings() const { return num_postings_; }
  int64_t num_docs() const { return static_cast<int64_t>(docs_.size()); }

 private:
  std::vector<std::string> Urls(const std::vector<int>& docs) const {
    std::vector<std::string> out;
    for (int doc : docs) {
      out.push_back(docs_[static_cast<size_t>(doc)]);
    }
    return out;
  }

  std::map<std::string, std::vector<int>> postings_;
  std::vector<std::string> docs_;
  std::map<std::string, int> doc_ids_;
  int64_t num_postings_ = 0;
};

// Feeds one page to both indexes.
void AddToBoth(const std::string& url, std::string_view content,
               InvertedIndex* index, ReferenceIndex* reference) {
  index->AddPage(url, content);
  reference->AddPage(url, content);
}

// Compares the counts, Lookup of every term, and LookupAll of 1,000
// seeded conjunctions of 1-3 terms: frequent, arbitrary, repeated and
// absent ones (no token is empty or holds an uppercase letter, '-' or '_').
// Counts in `*multi_term_hits` the conjunctions of several terms that had
// a non-empty answer.
void ExpectSameAnswers(const InvertedIndex& index,
                       const ReferenceIndex& reference, uint64_t seed,
                       int* multi_term_hits) {
  EXPECT_EQ(index.num_terms(), reference.num_terms());
  EXPECT_EQ(index.num_postings(), reference.num_postings());
  EXPECT_EQ(index.num_docs(), reference.num_docs());
  const std::vector<std::string> terms = reference.TermsByFrequency();
  ASSERT_FALSE(terms.empty());
  for (const std::string& term : terms) {
    ASSERT_EQ(index.Lookup(term), reference.Lookup(term)) << term;
  }
  const std::vector<std::string> absent = {"", "no-such", "W1", "x_y"};
  for (const std::string& term : absent) {
    EXPECT_TRUE(index.Lookup(term).empty()) << term;
  }
  Rng rng(seed);
  auto pick = [&](int64_t n) {
    return static_cast<size_t>(rng.Uniform(0, n - 1));
  };
  const int64_t frequent = std::min<int64_t>(50, std::ssize(terms));
  *multi_term_hits = 0;
  for (int q = 0; q < 1000; ++q) {
    std::vector<std::string> query;
    const int64_t width = rng.Uniform(1, 3);
    while (std::ssize(query) < width) {
      const double roll = rng.NextDouble();
      if (roll < 0.1) {
        query.push_back(absent[pick(std::ssize(absent))]);
      } else if (roll < 0.25 && !query.empty()) {
        query.push_back(query[pick(std::ssize(query))]);
      } else if (roll < 0.7) {
        query.push_back(terms[pick(frequent)]);
      } else {
        query.push_back(terms[pick(std::ssize(terms))]);
      }
    }
    const std::vector<std::string> expected = reference.LookupAll(query);
    ASSERT_EQ(index.LookupAll(query), expected) << "query " << q;
    if (query.size() > 1 && !expected.empty()) {
      ++*multi_term_hits;
    }
  }
}

TEST(TokenizeTest, LowercasesAndSplits) {
  EXPECT_EQ(Tokenize("Hello, World! 123"),
            (std::vector<std::string>{"hello", "world", "123"}));
  EXPECT_TRUE(Tokenize("...").empty());
  EXPECT_EQ(Tokenize("a-b_c"), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(TokenizeTest, MatchesCctypeReference) {
  for (int b = 0; b < 256; ++b) {
    const std::string text(1, static_cast<char>(b));
    EXPECT_EQ(Tokenize(text), ReferenceTokenize(text)) << "byte " << b;
  }
  Rng rng(20261017);
  for (int i = 0; i < 1000; ++i) {
    std::string text(static_cast<size_t>(rng.Uniform(0, 64)), '\0');
    for (char& c : text) {
      c = static_cast<char>(rng.Uniform(0, 255));
    }
    ASSERT_EQ(Tokenize(text), ReferenceTokenize(text)) << "string " << i;
  }
}

TEST(DomainOfTest, ExtractsHost) {
  EXPECT_EQ(DomainOf("http://site3.example.org/page7.html"),
            "site3.example.org");
  EXPECT_EQ(DomainOf("site3.example.org/page"), "site3.example.org");
  EXPECT_EQ(DomainOf("http://host"), "host");
}

TEST(BurstDetectorTest, DetectsInjectedBurst) {
  CrawlerConfig config;
  config.initial_pages = 400;
  config.burst_word = "election";
  config.burst_start_crawl = 3;
  config.burst_end_crawl = 3;
  SyntheticCrawler crawler(config);

  BurstDetector detector(/*min_count=*/10, /*score_threshold=*/3.0);
  for (int crawl_index = 1; crawl_index <= 4; ++crawl_index) {
    Crawl crawl = crawler.NextCrawl();
    detector.AddCrawl(crawl.crawl_index, crawl.pages);
  }
  std::vector<Burst> bursts = detector.FindBursts();
  ASSERT_FALSE(bursts.empty());
  bool found = false;
  for (const Burst& burst : bursts) {
    if (burst.term == "election" && burst.crawl_index == 3) {
      found = true;
      EXPECT_GT(burst.score, 3.0);
    }
  }
  EXPECT_TRUE(found);
  // The everyday Zipf vocabulary should not dominate the burst list: the
  // top burst is the injected term.
  EXPECT_EQ(bursts[0].term, "election");
}

TEST(BurstDetectorTest, NeedsTwoCrawls) {
  BurstDetector detector;
  EXPECT_TRUE(detector.FindBursts().empty());
  WebPage page;
  page.content = "word word word";
  detector.AddCrawl(1, {page});
  EXPECT_TRUE(detector.FindBursts().empty());
}

TEST(StratifiedSampleTest, CoversEveryDomain) {
  std::vector<PageMetadata> pages;
  for (int domain = 0; domain < 10; ++domain) {
    for (int i = 0; i < 30; ++i) {
      PageMetadata meta;
      meta.url = "http://site" + std::to_string(domain) +
                 ".example.org/p" + std::to_string(i);
      pages.push_back(std::move(meta));
    }
  }
  auto sample = StratifiedSampleByDomain(pages, 5, 42);
  EXPECT_EQ(sample.size(), 50u);
  std::map<std::string, int> per_domain;
  for (const PageMetadata& meta : sample) {
    ++per_domain[DomainOf(meta.url)];
  }
  EXPECT_EQ(per_domain.size(), 10u);
  for (const auto& [domain, count] : per_domain) {
    EXPECT_EQ(count, 5);
  }
}

TEST(StratifiedSampleTest, SmallStrataTakenWhole) {
  std::vector<PageMetadata> pages(2);
  pages[0].url = "http://only.example.org/a";
  pages[1].url = "http://only.example.org/b";
  auto sample = StratifiedSampleByDomain(pages, 10, 1);
  EXPECT_EQ(sample.size(), 2u);
}

TEST(StratifiedSampleTest, DeterministicForSeed) {
  std::vector<PageMetadata> pages;
  for (int i = 0; i < 100; ++i) {
    PageMetadata meta;
    meta.url = "http://s.example.org/p" + std::to_string(i);
    pages.push_back(std::move(meta));
  }
  auto a = StratifiedSampleByDomain(pages, 7, 99);
  auto b = StratifiedSampleByDomain(pages, 7, 99);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, b[i].url);
  }
}

TEST(InvertedIndexTest, LookupAndConjunction) {
  InvertedIndex index;
  index.AddPage("u1", "apple banana cherry");
  index.AddPage("u2", "banana cherry");
  index.AddPage("u3", "cherry date");

  EXPECT_EQ(index.Lookup("banana"), (std::vector<std::string>{"u1", "u2"}));
  EXPECT_TRUE(index.Lookup("missing").empty());
  EXPECT_EQ(index.LookupAll({"banana", "cherry"}),
            (std::vector<std::string>{"u1", "u2"}));
  EXPECT_EQ(index.LookupAll({"apple", "date"}).size(), 0u);
  EXPECT_TRUE(index.LookupAll({}).empty());
  EXPECT_EQ(index.num_terms(), 4);
  EXPECT_EQ(index.num_postings(), 3 + 2 + 2);  // Unique terms per doc.
}

TEST(InvertedIndexTest, DuplicateTermsInDocCountedOnce) {
  InvertedIndex index;
  index.AddPage("u1", "word word word");
  EXPECT_EQ(index.num_postings(), 1);
  EXPECT_EQ(index.Lookup("word").size(), 1u);
}

TEST(InvertedIndexTest, ReAddedUrlPostsEachTermOnce) {
  InvertedIndex index;
  index.AddPage("u1", "a");
  index.AddPage("u2", "a");
  index.AddPage("u1", "a b");
  EXPECT_EQ(index.Lookup("a"), (std::vector<std::string>{"u1", "u2"}));
  EXPECT_EQ(index.LookupAll({"a"}), (std::vector<std::string>{"u1", "u2"}));
  EXPECT_EQ(index.Lookup("b"), (std::vector<std::string>{"u1"}));
  EXPECT_EQ(index.num_postings(), 3);
  EXPECT_EQ(index.num_docs(), 2);

  // A term the later url already holds lands ahead of it.
  index.AddPage("u2", "c");
  index.AddPage("u1", "c");
  EXPECT_EQ(index.Lookup("c"), (std::vector<std::string>{"u1", "u2"}));
  EXPECT_EQ(index.LookupAll({"c", "a"}),
            (std::vector<std::string>{"u1", "u2"}));
  EXPECT_EQ(index.num_postings(), 5);
}

TEST(InvertedIndexTest, MatchesReferenceOnEvolvingCrawls) {
  CrawlerConfig config;  // 2,000 pages, then 400 more per crawl.
  SyntheticCrawler crawler(config);
  InvertedIndex index;
  ReferenceIndex reference;
  Crawl first = crawler.NextCrawl();
  ASSERT_EQ(first.pages.size(), 2000u);
  for (const WebPage& page : first.pages) {
    AddToBoth(page.url, page.content, &index, &reference);
  }
  // The intersections are exercised, not only empty answers.
  int multi_term_hits = 0;
  ExpectSameAnswers(index, reference, 1, &multi_term_hits);
  EXPECT_GT(multi_term_hits, 100);
  // Later crawls revise, keep and add pages under the same urls.
  for (int crawl = 2; crawl <= 4; ++crawl) {
    for (const WebPage& page : crawler.NextCrawl().pages) {
      AddToBoth(page.url, page.content, &index, &reference);
    }
  }
  EXPECT_EQ(index.num_docs(), 3200);
  ExpectSameAnswers(index, reference, 2, &multi_term_hits);
  EXPECT_GT(multi_term_hits, 100);
}

TEST(InvertedIndexTest, MatchesReferenceOnAdversarialPages) {
  InvertedIndex index;
  ReferenceIndex reference;
  std::string all_bytes;
  std::string each_byte_split;
  for (int b = 0; b < 256; ++b) {
    all_bytes.push_back(static_cast<char>(b));
    each_byte_split += "q";
    each_byte_split.push_back(static_cast<char>(b));
    each_byte_split += "Q ";
  }
  std::string long_token;  // 300 bytes.
  std::string long_term;
  for (int i = 0; i < 100; ++i) {
    long_token += "Ab0";
    long_term += "ab0";
  }
  const std::vector<std::pair<std::string, std::string>> pages = {
      {"all_bytes", all_bytes},
      {"each_byte", each_byte_split},
      {"mixed_case", "Apple APPLE aPpLe apple Zebra zEBRA 9Lives"},
      {"separators", "snake_case kebab-case __dunder__ -lead trail- a--b"},
      {"long_token", long_token + " " + long_token.substr(0, 150)},
      {"empty", ""},
      {"utf8", "caf\xc3\xa9 na\xc3\xafve r\xc3\xa9sum\xc3\xa9 apple"},
      {"mixed_case", "APPLE snake Kebab new"},
      {"empty", "late content"},
      {"all_bytes", "  "},
  };
  for (const auto& [url, content] : pages) {
    AddToBoth(url, content, &index, &reference);
  }
  EXPECT_EQ(index.num_docs(), 7);
  EXPECT_EQ(index.Lookup(long_term),
            (std::vector<std::string>{"long_token"}));
  int multi_term_hits = 0;
  ExpectSameAnswers(index, reference, 3, &multi_term_hits);
}

TEST(InvertedIndexTest, ScalesToSyntheticCrawl) {
  CrawlerConfig config;
  config.initial_pages = 300;
  SyntheticCrawler crawler(config);
  Crawl crawl = crawler.NextCrawl();
  InvertedIndex index;
  for (const WebPage& page : crawl.pages) {
    index.AddPage(page.url, page.content);
  }
  // Zipf rank-1 word appears on essentially every page.
  auto hits = index.Lookup("w1");
  EXPECT_GT(hits.size(), 250u);
}

}  // namespace
}  // namespace dflow::weblab
