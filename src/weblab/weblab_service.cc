#include "weblab/weblab_service.h"

#include "util/logging.h"
#include "util/strings.h"
#include "weblab/subsets.h"

namespace dflow::weblab {

WebLabService::WebLabService(const PageStore* page_store, db::Database* db,
                             const InvertedIndex* index)
    : page_store_(page_store), db_(db), index_(index),
      browser_(page_store, db) {
  DFLOW_CHECK(page_store_ != nullptr);
  DFLOW_CHECK(db_ != nullptr);
}

Result<core::ServiceResponse> WebLabService::Handle(
    const core::ServiceRequest& request) {
  core::ServiceResponse response;

  if (request.path == "retro" || request.path == "links") {
    std::string url = request.Param("url");
    if (url.empty()) {
      return Status::InvalidArgument(request.path + " requires ?url=");
    }
    DFLOW_ASSIGN_OR_RETURN(int64_t date, request.IntParam("date", 0));
    DFLOW_ASSIGN_OR_RETURN(RetroPage page, browser_.Browse(url, date));
    // Retro-Browser answers are archival snapshots — immutable once
    // crawled, so the dissemination cache may pin them for a long time.
    response.cache_max_age_sec = 86400.0;
    if (request.path == "retro") {
      response.content_type = "text/html";
      response.body = page.content;
    } else {
      response.body.reserve(page.links.size() * 48);
      for (const std::string& link : page.links) {
        response.body += link;
        response.body += '\n';
      }
    }
    return response;
  }
  if (request.path == "search") {
    if (index_ == nullptr) {
      return Status::FailedPrecondition("no full-text index loaded");
    }
    std::string query = request.Param("q");
    if (query.empty()) {
      return Status::InvalidArgument("search requires ?q=");
    }
    std::vector<std::string> terms = Tokenize(query);
    std::vector<std::string> urls = index_->LookupAll(terms);
    response.body.reserve(urls.size() * 48);
    for (const std::string& url : urls) {
      response.body += url;
      response.body += '\n';
    }
    return response;
  }
  if (request.path == "pages") {
    DFLOW_ASSIGN_OR_RETURN(int64_t since, request.IntParam("since", 0));
    DFLOW_ASSIGN_OR_RETURN(int64_t limit, request.IntParam("limit", 100));
    DFLOW_ASSIGN_OR_RETURN(
        db::QueryResult result,
        db_->Execute("SELECT url, crawl_ts, bytes, out_degree FROM pages "
                     "WHERE crawl_ts >= " +
                     std::to_string(since) + " ORDER BY crawl_ts LIMIT " +
                     std::to_string(limit)));
    std::string& body = response.body;
    body.reserve(32 + result.rows.size() * 64);
    body += "url\tcrawl_ts\tbytes\tout_degree\n";
    for (const db::Row& row : result.rows) {
      body += row[0].AsString();
      body += '\t';
      AppendInt(&body, row[1].AsInt());
      body += '\t';
      AppendInt(&body, row[2].AsInt());
      body += '\t';
      AppendInt(&body, row[3].AsInt());
      body += '\n';
    }
    response.content_type = "text/tab-separated-values";
    return response;
  }
  if (request.path == "extract") {
    std::string name = request.Param("name");
    std::string sql = request.Param("sql");
    if (name.empty() || sql.empty()) {
      return Status::InvalidArgument("extract requires ?name= and ?sql=");
    }
    DFLOW_ASSIGN_OR_RETURN(int64_t rows, ExtractSubset(db_, name, sql));
    // Materializing a subset view is a side effect; replaying it from a
    // cache would silently skip the work. Never cache.
    response.cache_max_age_sec = core::ServiceResponse::kUncacheable;
    response.body = "view '" + name + "' materialized with " +
                    std::to_string(rows) + " rows\n";
    return response;
  }
  return Status::NotFound("no endpoint '" + request.path + "'");
}

std::vector<std::string> WebLabService::Endpoints() const {
  return {"retro", "links", "search", "pages", "extract"};
}

}  // namespace dflow::weblab
