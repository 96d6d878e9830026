#include "arecibo/votable.h"

#include <cstdlib>

#include "util/strings.h"

namespace dflow::arecibo {

std::string CandidatesToVoTable(const std::vector<Candidate>& candidates,
                                const std::string& survey_name) {
  // About 500 bytes of header and footer, and per row 77 bytes of markup
  // around four doubles at precision 12 and three small integers.
  std::string xml;
  xml.reserve(512 + survey_name.size() + candidates.size() * 160);
  xml += "<?xml version=\"1.0\"?>\n"
         "<VOTABLE version=\"1.1\">\n"
         " <RESOURCE name=\"";
  xml += survey_name;
  xml += "\">\n"
         "  <TABLE name=\"candidates\">\n"
         "   <FIELD name=\"freq_hz\" datatype=\"double\"/>\n"
         "   <FIELD name=\"period_sec\" datatype=\"double\"/>\n"
         "   <FIELD name=\"dm\" datatype=\"double\"/>\n"
         "   <FIELD name=\"snr\" datatype=\"double\"/>\n"
         "   <FIELD name=\"beam\" datatype=\"int\"/>\n"
         "   <FIELD name=\"pointing\" datatype=\"int\"/>\n"
         "   <FIELD name=\"rfi\" datatype=\"int\"/>\n"
         "   <DATA><TABLEDATA>\n";
  for (const Candidate& candidate : candidates) {
    xml += "    <TR><TD>";
    AppendDouble(&xml, candidate.freq_hz, 12);
    xml += "</TD><TD>";
    AppendDouble(&xml, candidate.period_sec, 12);
    xml += "</TD><TD>";
    AppendDouble(&xml, candidate.dm, 12);
    xml += "</TD><TD>";
    AppendDouble(&xml, candidate.snr, 12);
    xml += "</TD><TD>";
    AppendInt(&xml, candidate.beam);
    xml += "</TD><TD>";
    AppendInt(&xml, candidate.pointing);
    xml += "</TD><TD>";
    xml += candidate.rfi_flag ? '1' : '0';
    xml += "</TD></TR>\n";
  }
  xml += "   </TABLEDATA></DATA>\n"
         "  </TABLE>\n"
         " </RESOURCE>\n"
         "</VOTABLE>\n";
  return xml;
}

namespace {

/// Extracts the text of consecutive <TD>...</TD> cells in a <TR> line.
Result<std::vector<std::string>> ParseRow(std::string_view line) {
  std::vector<std::string> cells;
  size_t pos = 0;
  while (true) {
    size_t open = line.find("<TD>", pos);
    if (open == std::string_view::npos) {
      break;
    }
    size_t close = line.find("</TD>", open);
    if (close == std::string_view::npos) {
      return Status::Corruption("unterminated <TD>");
    }
    cells.emplace_back(line.substr(open + 4, close - open - 4));
    pos = close + 5;
  }
  return cells;
}

}  // namespace

Result<std::vector<Candidate>> VoTableToCandidates(const std::string& xml) {
  if (xml.find("<VOTABLE") == std::string::npos) {
    return Status::InvalidArgument("not a VOTable document");
  }
  std::vector<Candidate> out;
  for (const std::string& line : Split(xml, '\n')) {
    if (line.find("<TR>") == std::string::npos) {
      continue;
    }
    DFLOW_ASSIGN_OR_RETURN(std::vector<std::string> cells, ParseRow(line));
    if (cells.size() != 7) {
      return Status::Corruption("expected 7 cells per row, got " +
                                std::to_string(cells.size()));
    }
    Candidate candidate;
    candidate.freq_hz = std::strtod(cells[0].c_str(), nullptr);
    candidate.period_sec = std::strtod(cells[1].c_str(), nullptr);
    candidate.dm = std::strtod(cells[2].c_str(), nullptr);
    candidate.snr = std::strtod(cells[3].c_str(), nullptr);
    candidate.beam = static_cast<int>(std::strtol(cells[4].c_str(), nullptr,
                                                  10));
    candidate.pointing =
        static_cast<int>(std::strtol(cells[5].c_str(), nullptr, 10));
    candidate.rfi_flag = cells[6] == "1";
    out.push_back(candidate);
  }
  return out;
}

}  // namespace dflow::arecibo
