#include "weblab/subsets.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <variant>

#include "db/executor.h"
#include "db/parser.h"

namespace dflow::weblab {

Result<int64_t> ExtractSubset(db::Database* db, const std::string& view_name,
                              const std::string& select_sql) {
  // Only a SELECT runs: the statement comes from a served request, and
  // anything else would change the database before it could be refused.
  DFLOW_ASSIGN_OR_RETURN(db::Statement stmt, db::ParseSql(select_sql));
  const auto* select = std::get_if<db::SelectStmt>(&stmt);
  if (select == nullptr) {
    return Status::InvalidArgument(
        "subset extraction needs a SELECT statement");
  }
  DFLOW_ASSIGN_OR_RETURN(db::QueryResult result,
                         db::ExecuteSelect(db->catalog(), *select));
  // Infer each column's type from the first non-NULL value it takes.
  std::vector<db::Column> columns;
  for (size_t i = 0; i < result.columns.size(); ++i) {
    db::Type type = db::Type::kString;
    for (const db::Row& row : result.rows) {
      if (!row[i].is_null()) {
        type = row[i].type();
        break;
      }
    }
    columns.push_back(db::Column{result.columns[i], type, true});
  }
  DFLOW_RETURN_IF_ERROR(db->CreateTable(view_name, db::Schema(columns)));
  DFLOW_RETURN_IF_ERROR(db->InsertMany(view_name, std::move(result.rows)));
  auto table = db->catalog().Get(view_name);
  DFLOW_RETURN_IF_ERROR(table.status());
  return (*table)->heap->num_rows();
}

std::vector<std::pair<std::string, double>> SelectRelevantPages(
    const InvertedIndex& index, const std::vector<std::string>& topic_terms,
    int k) {
  // Score = sum of idf over matched topic terms: pages matching the rarer
  // (more discriminative) terms rank above pages matching only ubiquitous
  // ones.
  const double num_docs =
      std::max<double>(1.0, static_cast<double>(index.num_docs()));
  std::map<std::string, double> scores;
  for (const std::string& raw_term : topic_terms) {
    for (std::string& term : Tokenize(raw_term)) {
      std::vector<std::string> docs = index.Lookup(term);
      if (docs.empty()) {
        continue;
      }
      double idf =
          std::log(num_docs / static_cast<double>(docs.size())) + 1.0;
      for (const std::string& url : docs) {
        scores[url] += idf;
      }
    }
  }
  std::vector<std::pair<std::string, double>> ranked(scores.begin(),
                                                     scores.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  if (ranked.size() > static_cast<size_t>(k)) {
    ranked.resize(static_cast<size_t>(k));
  }
  return ranked;
}

}  // namespace dflow::weblab
