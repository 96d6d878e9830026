#include "eventstore/eventstore_service.h"

#include "util/logging.h"
#include "util/strings.h"

namespace dflow::eventstore {

EventStoreService::EventStoreService(EventStore* store) : store_(store) {
  DFLOW_CHECK(store_ != nullptr);
}

Result<core::ServiceResponse> EventStoreService::Handle(
    const core::ServiceRequest& request) {
  core::ServiceResponse response;
  response.content_type = "text/tab-separated-values";

  if (request.path == "resolve") {
    std::string grade = request.Param("grade");
    if (grade.empty()) {
      return Status::InvalidArgument("resolve requires ?grade=");
    }
    DFLOW_ASSIGN_OR_RETURN(int64_t ts, request.IntParam("ts", 0));
    DFLOW_ASSIGN_OR_RETURN(std::vector<FileEntry> files,
                           store_->Resolve(grade, ts));
    if (request.params.count("ts") != 0) {
      // A resolution at an explicit timestamp is immutable history (§3.2's
      // versioned-collection guarantee): the dissemination cache may hold
      // it for a long time.
      response.cache_max_age_sec = 86400.0;
    }
    std::string& body = response.body;
    body.reserve(64 + files.size() * 96);
    body += "run\tdata_type\tversion\tbytes\tlocation\tprov_hash\n";
    for (const FileEntry& file : files) {
      AppendInt(&body, file.run);
      body += '\t';
      body += file.data_type;
      body += '\t';
      body += file.version;
      body += '\t';
      AppendInt(&body, file.bytes);
      body += '\t';
      body += file.location;
      body += '\t';
      body += file.provenance.SummaryHash();
      body += '\n';
    }
    return response;
  }
  if (request.path == "grades") {
    for (const std::string& grade : store_->GradeNames()) {
      response.body += grade;
      response.body += '\n';
    }
    response.content_type = "text/plain";
    return response;
  }
  if (request.path == "history") {
    std::string grade = request.Param("grade");
    if (grade.empty()) {
      return Status::InvalidArgument("history requires ?grade=");
    }
    DFLOW_ASSIGN_OR_RETURN(auto history, store_->GradeHistory(grade));
    std::string& body = response.body;
    body.reserve(64 + history.size() * 48);
    body += "timestamp\trun_first\trun_last\tdata_type\tversion\n";
    for (const auto& assignment : history) {
      AppendInt(&body, assignment.timestamp);
      body += '\t';
      AppendInt(&body, assignment.range.first);
      body += '\t';
      AppendInt(&body, assignment.range.last);
      body += '\t';
      body += assignment.data_type;
      body += '\t';
      body += assignment.version;
      body += '\n';
    }
    return response;
  }
  if (request.path == "versions") {
    DFLOW_ASSIGN_OR_RETURN(int64_t run, request.IntParam("run", -1));
    std::string data_type = request.Param("data_type");
    if (run < 0 || data_type.empty()) {
      return Status::InvalidArgument("versions requires ?run= and ?data_type=");
    }
    for (const std::string& version : store_->Versions(run, data_type)) {
      response.body += version;
      response.body += '\n';
    }
    response.content_type = "text/plain";
    return response;
  }
  if (request.path == "summary") {
    DFLOW_ASSIGN_OR_RETURN(
        db::QueryResult result,
        store_->database().Execute(
            "SELECT data_type, COUNT(*) AS files, SUM(bytes) AS bytes FROM "
            "files GROUP BY data_type ORDER BY bytes DESC"));
    // The summary churns as runs register; let the cache keep it briefly.
    response.cache_max_age_sec = 30.0;
    std::string& body = response.body;
    body += "data_type\tfiles\tbytes\n";
    for (const db::Row& row : result.rows) {
      body += row[0].AsString();
      body += '\t';
      AppendInt(&body, row[1].AsInt());
      body += '\t';
      AppendInt(&body, row[2].AsInt());
      body += '\n';
    }
    return response;
  }
  return Status::NotFound("no endpoint '" + request.path + "'");
}

std::vector<std::string> EventStoreService::Endpoints() const {
  return {"resolve", "grades", "history", "versions", "summary"};
}

}  // namespace dflow::eventstore
