#include "weblab/arc_format.h"

#include "util/byte_buffer.h"
#include "util/compress.h"

namespace dflow::weblab {

namespace {
constexpr char kArcMagic[] = "ARC2";
constexpr char kDatMagic[] = "DAT2";
}  // namespace

std::string WriteArcFile(const std::vector<WebPage>& pages) {
  ByteWriter w;
  w.PutRaw(kArcMagic, 4);
  w.PutVarint(pages.size());
  for (const WebPage& page : pages) {
    w.PutString(page.url);
    w.PutString(page.ip);
    w.PutI64(page.crawl_time);
    w.PutString(page.mime_type);
    w.PutString(page.content);
    w.PutVarint(page.links.size());
    for (const std::string& link : page.links) {
      w.PutString(link);
    }
  }
  return WlzCompress(w.data());
}

std::string WriteDatFile(const std::vector<WebPage>& pages) {
  ByteWriter w;
  w.PutRaw(kDatMagic, 4);
  w.PutVarint(pages.size());
  for (const WebPage& page : pages) {
    w.PutString(page.url);
    w.PutString(page.ip);
    w.PutI64(page.crawl_time);
    w.PutString(page.mime_type);
    w.PutI64(static_cast<int64_t>(page.content.size()));
    w.PutVarint(page.links.size());
    for (const std::string& link : page.links) {
      w.PutString(link);
    }
  }
  return WlzCompress(w.data());
}

Result<std::vector<WebPage>> ReadArcFile(std::string_view compressed) {
  DFLOW_ASSIGN_OR_RETURN(std::string raw, WlzDecompress(compressed));
  ByteReader r(raw);
  DFLOW_ASSIGN_OR_RETURN(std::string magic, r.GetRaw(4));
  if (magic != kArcMagic) {
    return Status::Corruption("not an ARC file");
  }
  DFLOW_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  std::vector<WebPage> pages;
  pages.reserve(r.MaxItems(count));
  for (uint64_t i = 0; i < count; ++i) {
    WebPage page;
    DFLOW_ASSIGN_OR_RETURN(page.url, r.GetString());
    DFLOW_ASSIGN_OR_RETURN(page.ip, r.GetString());
    DFLOW_ASSIGN_OR_RETURN(page.crawl_time, r.GetI64());
    DFLOW_ASSIGN_OR_RETURN(page.mime_type, r.GetString());
    DFLOW_ASSIGN_OR_RETURN(page.content, r.GetString());
    DFLOW_ASSIGN_OR_RETURN(uint64_t num_links, r.GetVarint());
    for (uint64_t l = 0; l < num_links; ++l) {
      DFLOW_ASSIGN_OR_RETURN(std::string link, r.GetString());
      page.links.push_back(std::move(link));
    }
    pages.push_back(std::move(page));
  }
  return pages;
}

Result<std::vector<PageMetadata>> ReadDatFile(std::string_view compressed) {
  DFLOW_ASSIGN_OR_RETURN(std::string raw, WlzDecompress(compressed));
  ByteReader r(raw);
  DFLOW_ASSIGN_OR_RETURN(std::string magic, r.GetRaw(4));
  if (magic != kDatMagic) {
    return Status::Corruption("not a DAT file");
  }
  DFLOW_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  std::vector<PageMetadata> records;
  records.reserve(r.MaxItems(count));
  for (uint64_t i = 0; i < count; ++i) {
    PageMetadata meta;
    DFLOW_ASSIGN_OR_RETURN(meta.url, r.GetString());
    DFLOW_ASSIGN_OR_RETURN(meta.ip, r.GetString());
    DFLOW_ASSIGN_OR_RETURN(meta.crawl_time, r.GetI64());
    DFLOW_ASSIGN_OR_RETURN(meta.mime_type, r.GetString());
    DFLOW_ASSIGN_OR_RETURN(meta.content_bytes, r.GetI64());
    DFLOW_ASSIGN_OR_RETURN(uint64_t num_links, r.GetVarint());
    for (uint64_t l = 0; l < num_links; ++l) {
      DFLOW_ASSIGN_OR_RETURN(std::string link, r.GetString());
      meta.links.push_back(std::move(link));
    }
    records.push_back(std::move(meta));
  }
  return records;
}

}  // namespace dflow::weblab
