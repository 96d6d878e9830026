#include "arecibo/candidate_service.h"

#include "arecibo/votable.h"
#include "util/strings.h"

namespace dflow::arecibo {

Result<std::unique_ptr<CandidateService>> CandidateService::Create(
    db::Database* db) {
  if (db == nullptr) {
    return Status::InvalidArgument("null database");
  }
  if (db->catalog().Find("candidates") == nullptr) {
    DFLOW_RETURN_IF_ERROR(db->CreateTable(
        "candidates", db::Schema({{"pointing", db::Type::kInt64, false},
                                  {"beam", db::Type::kInt64, false},
                                  {"freq", db::Type::kDouble, false},
                                  {"dm", db::Type::kDouble, false},
                                  {"snr", db::Type::kDouble, false},
                                  {"rfi", db::Type::kBool, false}})));
    DFLOW_RETURN_IF_ERROR(
        db->CreateIndex("candidates_by_pointing", "candidates", "pointing"));
  }
  return std::unique_ptr<CandidateService>(new CandidateService(db));
}

Status CandidateService::Load(const std::vector<Candidate>& candidates) {
  std::vector<db::Row> rows;
  rows.reserve(candidates.size());
  for (const Candidate& candidate : candidates) {
    rows.push_back(db::Row{db::Value::Int(candidate.pointing),
                           db::Value::Int(candidate.beam),
                           db::Value::Double(candidate.freq_hz),
                           db::Value::Double(candidate.dm),
                           db::Value::Double(candidate.snr),
                           db::Value::Bool(candidate.rfi_flag)});
  }
  return db_->InsertMany("candidates", std::move(rows));
}

Result<std::vector<Candidate>> CandidateService::QueryCandidates(
    const std::string& where, int64_t limit) const {
  std::string sql = "SELECT pointing, beam, freq, dm, snr, rfi FROM "
                    "candidates";
  if (!where.empty()) {
    sql += " WHERE " + where;
  }
  sql += " ORDER BY snr DESC LIMIT " + std::to_string(limit);
  DFLOW_ASSIGN_OR_RETURN(db::QueryResult result, db_->Execute(sql));
  std::vector<Candidate> out;
  out.reserve(result.rows.size());
  for (const db::Row& row : result.rows) {
    Candidate candidate;
    candidate.pointing = static_cast<int>(row[0].AsInt());
    candidate.beam = static_cast<int>(row[1].AsInt());
    candidate.freq_hz = row[2].AsDouble();
    candidate.period_sec = candidate.freq_hz > 0 ? 1.0 / candidate.freq_hz
                                                 : 0.0;
    candidate.dm = row[3].AsDouble();
    candidate.snr = row[4].AsDouble();
    candidate.rfi_flag = row[5].AsBool();
    out.push_back(candidate);
  }
  return out;
}

Result<core::ServiceResponse> CandidateService::Handle(
    const core::ServiceRequest& request) {
  core::ServiceResponse response;
  if (request.path == "top") {
    DFLOW_ASSIGN_OR_RETURN(int64_t limit, request.IntParam("limit", 10));
    bool include_rfi = request.Param("include_rfi", "0") == "1";
    DFLOW_ASSIGN_OR_RETURN(
        std::vector<Candidate> candidates,
        QueryCandidates(include_rfi ? "" : "rfi = FALSE", limit));
    std::string& body = response.body;
    body.reserve(64 + candidates.size() * 48);
    body += "pointing\tbeam\tfreq_hz\tdm\tsnr\trfi\n";
    for (const Candidate& candidate : candidates) {
      AppendInt(&body, candidate.pointing);
      body += '\t';
      AppendInt(&body, candidate.beam);
      body += '\t';
      AppendDouble(&body, candidate.freq_hz, 6);
      body += '\t';
      AppendDouble(&body, candidate.dm, 6);
      body += '\t';
      AppendDouble(&body, candidate.snr, 6);
      body += candidate.rfi_flag ? "\t1\n" : "\t0\n";
    }
    response.content_type = "text/tab-separated-values";
    return response;
  }
  if (request.path == "count") {
    DFLOW_ASSIGN_OR_RETURN(
        db::QueryResult result,
        db_->Execute("SELECT rfi, COUNT(*) FROM candidates GROUP BY rfi"));
    for (const db::Row& row : result.rows) {
      response.body += row[0].AsBool() ? "rfi\t" : "astrophysical\t";
      AppendInt(&response.body, row[1].AsInt());
      response.body += '\n';
    }
    return response;
  }
  if (request.path == "votable") {
    DFLOW_ASSIGN_OR_RETURN(int64_t pointing, request.IntParam("pointing", -1));
    std::string where = "rfi = FALSE";
    if (pointing >= 0) {
      where += " AND pointing = " + std::to_string(pointing);
    }
    DFLOW_ASSIGN_OR_RETURN(std::vector<Candidate> candidates,
                           QueryCandidates(where, 10000));
    response.content_type = "text/xml";
    response.body = CandidatesToVoTable(candidates, "PALFA");
    // NVO exports of a processed pointing change only when a pointing is
    // re-reduced; give the dissemination cache an hour.
    response.cache_max_age_sec = 3600.0;
    return response;
  }
  if (request.path == "pointings") {
    DFLOW_ASSIGN_OR_RETURN(
        db::QueryResult result,
        db_->Execute("SELECT DISTINCT pointing FROM candidates ORDER BY "
                     "pointing"));
    response.body.reserve(result.rows.size() * 4);
    for (const db::Row& row : result.rows) {
      AppendInt(&response.body, row[0].AsInt());
      response.body += '\n';
    }
    return response;
  }
  return Status::NotFound("no endpoint '" + request.path + "'");
}

std::vector<std::string> CandidateService::Endpoints() const {
  return {"top", "count", "votable", "pointings"};
}

}  // namespace dflow::arecibo
