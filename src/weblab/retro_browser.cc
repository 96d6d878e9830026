#include "weblab/retro_browser.h"

#include "db/executor.h"
#include "util/logging.h"

namespace dflow::weblab {

RetroBrowser::RetroBrowser(const PageStore* page_store,
                           db::Database* database)
    : page_store_(page_store), db_(database) {
  DFLOW_CHECK(page_store_ != nullptr);
  DFLOW_CHECK(db_ != nullptr);
}

Result<int64_t> RetroBrowser::VersionAsOf(const std::string& url,
                                          int64_t date) const {
  std::vector<int64_t> versions = page_store_->Versions(url);
  int64_t best = -1;
  for (int64_t version : versions) {
    if (version <= date) {
      best = version;
    }
  }
  if (best < 0) {
    return Status::NotFound("'" + url + "' was not yet crawled at " +
                            std::to_string(date));
  }
  return best;
}

Result<RetroPage> RetroBrowser::Browse(const std::string& url,
                                       int64_t date) const {
  RetroPage page;
  page.url = url;
  DFLOW_ASSIGN_OR_RETURN(page.version_time, VersionAsOf(url, date));
  DFLOW_ASSIGN_OR_RETURN(page.content,
                         page_store_->Get(url, page.version_time));

  // Outlinks of this exact version from the metadata database.
  DFLOW_ASSIGN_OR_RETURN(auto links_table, db_->catalog().Get("links"));
  DFLOW_RETURN_IF_ERROR(db::ScanTable(
      *links_table, "src", db::Value::String(url),
      [&](db::RowId, db::Row&& row) {
        if (row[2].AsInt() == page.version_time) {
          page.links.push_back(row[1].AsString());
        }
        return true;
      }));
  return page;
}

Result<RetroPage> RetroBrowser::FollowLink(const RetroPage& page,
                                           size_t link_index,
                                           int64_t date) const {
  if (link_index >= page.links.size()) {
    return Status::OutOfRange("page has " +
                              std::to_string(page.links.size()) + " links");
  }
  return Browse(page.links[link_index], date);
}

}  // namespace dflow::weblab
