#ifndef DFLOW_WEBLAB_SUBSETS_H_
#define DFLOW_WEBLAB_SUBSETS_H_

#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "util/result.h"
#include "weblab/analysis.h"

namespace dflow::weblab {

/// "a facility to extract subsets of the collection and store them as
/// database views" (§4.2). Materializes the result of `select_sql` as a
/// new table `view_name` in `db` (a CREATE TABLE AS in spirit: researchers
/// then query or download the subset without touching the full archive).
/// Column types are inferred from the result values; untyped (all-NULL)
/// columns default to STRING. Any statement but a SELECT is refused with
/// InvalidArgument before it runs.
Result<int64_t> ExtractSubset(db::Database* db, const std::string& view_name,
                              const std::string& select_sql);

/// "one researcher has combined focused Web crawling with statistical
/// methods of information retrieval to select materials automatically for
/// an educational digital library" (§4). Scores every indexed page by the
/// sum of inverse-document-frequency weights of the topic terms it
/// contains and returns the `k` most relevant (url, score) pairs,
/// strongest first.
std::vector<std::pair<std::string, double>> SelectRelevantPages(
    const InvertedIndex& index, const std::vector<std::string>& topic_terms,
    int k);

}  // namespace dflow::weblab

#endif  // DFLOW_WEBLAB_SUBSETS_H_
