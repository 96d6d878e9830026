#include "weblab/subsets.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dflow::weblab {
namespace {

class SubsetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE pages (url TEXT, crawl_ts INT, "
                            "bytes INT)")
                    .ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO pages VALUES "
                            "('http://a.org/1', 100, 500), "
                            "('http://a.org/2', 100, 1500), "
                            "('http://b.org/1', 100, 2500), "
                            "('http://a.org/1', 200, 600)")
                    .ok());
  }
  db::Database db_;
};

TEST_F(SubsetTest, ExtractCreatesMaterializedView) {
  auto rows = ExtractSubset(
      &db_, "big_pages",
      "SELECT url, bytes FROM pages WHERE bytes > 1000 ORDER BY bytes");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 2);
  auto view = db_.Execute("SELECT * FROM big_pages ORDER BY bytes DESC");
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->rows.size(), 2u);
  EXPECT_EQ(view->rows[0][0].AsString(), "http://b.org/1");
  EXPECT_EQ(view->rows[0][1].AsInt(), 2500);
  // The view is a real table: further filtering works.
  auto filtered =
      db_.Execute("SELECT COUNT(*) FROM big_pages WHERE bytes < 2000");
  EXPECT_EQ(filtered->rows[0][0].AsInt(), 1);
}

TEST_F(SubsetTest, ExtractWithAggregation) {
  auto rows = ExtractSubset(
      &db_, "per_crawl",
      "SELECT crawl_ts, COUNT(*) AS pages, SUM(bytes) AS volume FROM pages "
      "GROUP BY crawl_ts");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 2);
  auto view = db_.Execute("SELECT volume FROM per_crawl WHERE crawl_ts = 100");
  ASSERT_EQ(view->rows.size(), 1u);
  EXPECT_EQ(view->rows[0][0].AsInt(), 4500);
}

TEST_F(SubsetTest, NameCollisionRejected) {
  ASSERT_TRUE(ExtractSubset(&db_, "v1", "SELECT url FROM pages").ok());
  EXPECT_TRUE(ExtractSubset(&db_, "v1", "SELECT url FROM pages")
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(
      ExtractSubset(&db_, "v2", "SELECT * FROM nope").status().IsNotFound());
}

TEST_F(SubsetTest, NonSelectStatementsAreRefusedBeforeTheyRun) {
  const std::vector<std::string> tables = db_.catalog().TableNames();
  for (const char* sql :
       {"DELETE FROM pages", "DROP TABLE pages",
        "UPDATE pages SET bytes = 0",
        "INSERT INTO pages VALUES ('http://c.org/1', 300, 700)",
        "CREATE TABLE other (x INT)"}) {
    EXPECT_TRUE(ExtractSubset(&db_, "v1", sql).status().IsInvalidArgument())
        << sql;
    EXPECT_EQ(db_.catalog().TableNames(), tables) << sql;
    auto pages = db_.Execute("SELECT COUNT(*), SUM(bytes) FROM pages");
    ASSERT_TRUE(pages.ok()) << sql;
    ASSERT_EQ(pages->rows[0][0].AsInt(), 4) << sql;
    EXPECT_EQ(pages->rows[0][1].AsInt(), 5100) << sql;
  }
}

TEST(FocusedSelectionTest, RanksTopicPagesFirst) {
  InvertedIndex index;
  // Topic pages mention rare discriminative terms; background pages share
  // only ubiquitous vocabulary.
  index.AddPage("edu1", "pulsar astronomy curriculum lesson the and");
  index.AddPage("edu2", "astronomy lesson telescope the and");
  index.AddPage("bg1", "the and of shopping cart");
  index.AddPage("bg2", "the and of sports scores");
  index.AddPage("bg3", "the and of weather report");

  auto ranked = SelectRelevantPages(
      index, {"astronomy", "lesson", "telescope"}, 3);
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first, "edu2");  // Matches all three terms.
  EXPECT_EQ(ranked[1].first, "edu1");
  EXPECT_GT(ranked[0].second, ranked[1].second);
  // Background pages match nothing and do not appear.
  for (const auto& [url, score] : ranked) {
    EXPECT_NE(url.substr(0, 2), "bg");
  }
}

TEST(FocusedSelectionTest, RareTermsWeighMore) {
  InvertedIndex index;
  for (int i = 0; i < 50; ++i) {
    index.AddPage("common" + std::to_string(i), "astronomy general text");
  }
  index.AddPage("rare_match", "interferometry deep text");
  index.AddPage("common_match", "astronomy deep text");

  // "interferometry" appears once; "astronomy" on 51 pages. A single rare
  // match should outrank a single common match.
  auto ranked =
      SelectRelevantPages(index, {"interferometry", "astronomy"}, 60);
  double rare_score = 0.0, common_score = 0.0;
  for (const auto& [url, score] : ranked) {
    if (url == "rare_match") {
      rare_score = score;
    }
    if (url == "common0") {
      common_score = score;
    }
  }
  EXPECT_GT(rare_score, common_score);
}

TEST(FocusedSelectionTest, IdfCountsDocumentsNotPostings) {
  InvertedIndex index;
  for (int i = 0; i < 200; ++i) {
    std::string content = "alpha beta";
    for (int t = 0; t < 100; ++t) {
      content += " p" + std::to_string(i) + "t" + std::to_string(t);
    }
    index.AddPage("bg" + std::to_string(i), content);
  }
  index.AddPage("rare", "gamma");
  ASSERT_EQ(index.num_docs(), 201);

  // gamma is on 1 page of 201, alpha and beta on 200: one rare match
  // outweighs two ubiquitous ones.
  auto ranked = SelectRelevantPages(index, {"gamma", "alpha", "beta"}, 3);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, "rare");
  EXPECT_NEAR(ranked[0].second, std::log(201.0) + 1.0, 1e-9);
}

TEST(FocusedSelectionTest, TopKAndEmptyTopics) {
  InvertedIndex index;
  for (int i = 0; i < 20; ++i) {
    index.AddPage("p" + std::to_string(i), "topic filler");
  }
  EXPECT_EQ(SelectRelevantPages(index, {"topic"}, 5).size(), 5u);
  EXPECT_TRUE(SelectRelevantPages(index, {}, 5).empty());
  EXPECT_TRUE(SelectRelevantPages(index, {"absent"}, 5).empty());
}

}  // namespace
}  // namespace dflow::weblab
