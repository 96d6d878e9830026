#include "core/web_service.h"

#include <cerrno>
#include <cstdlib>

namespace dflow::core {

Result<int64_t> ServiceRequest::IntParam(const std::string& key,
                                         int64_t fallback) const {
  auto it = params.find(key);
  if (it == params.end()) {
    return fallback;
  }
  const std::string& raw = it->second;
  if (raw.empty()) {
    return Status::InvalidArgument("parameter '" + key + "' is empty");
  }
  errno = 0;
  char* end = nullptr;
  int64_t value = std::strtoll(raw.c_str(), &end, 10);
  if (end == raw.c_str() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("parameter '" + key +
                                   "' is not an integer: " + raw);
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("parameter '" + key +
                                   "' does not fit in int64: " + raw);
  }
  return value;
}

Status ValidateMountPrefix(const std::string& prefix) {
  if (prefix.empty()) {
    return Status::InvalidArgument("empty mount prefix");
  }
  if (prefix.front() == '/' || prefix.back() == '/') {
    return Status::InvalidArgument("mount prefix '" + prefix +
                                   "' must not start or end with '/'");
  }
  return Status::OK();
}

std::string_view TopLevelPrefix(std::string_view path) {
  return path.substr(0, path.find('/'));
}

Status ServiceRegistry::Mount(const std::string& prefix,
                              std::shared_ptr<WebService> service) {
  if (service == nullptr) {
    return Status::InvalidArgument("null service");
  }
  DFLOW_RETURN_IF_ERROR(ValidateMountPrefix(prefix));
  auto [it, inserted] = mounts_.try_emplace(prefix, std::move(service));
  if (!inserted) {
    return Status::AlreadyExists("prefix '" + prefix + "' already mounted");
  }
  std::unique_ptr<std::mutex>& lock =
      mount_locks_[std::string(TopLevelPrefix(prefix))];
  if (lock == nullptr) {
    lock = std::make_unique<std::mutex>();
  }
  return Status::OK();
}

Result<ServiceResponse> ServiceRegistry::HandleSerialized(
    const ServiceRequest& request) const {
  auto it = mount_locks_.find(TopLevelPrefix(request.path));
  if (it == mount_locks_.end()) {
    return Handle(request);  // Nothing mounted there: NotFound, no backend.
  }
  std::lock_guard<std::mutex> lock(*it->second);
  return Handle(request);
}

Result<ServiceResponse> ServiceRegistry::Handle(
    const ServiceRequest& request) const {
  if (request.path.empty()) {
    return Status::NotFound(
        "empty request path; expected '<prefix>/<endpoint>'");
  }
  // Longest-prefix match at '/' boundaries: for "a/b/c" try "a/b/c", then
  // "a/b", then "a". Nested mounts ("cleo" and "cleo/es2") therefore
  // resolve to the most specific service.
  size_t len = request.path.size();
  while (len > 0) {
    auto it = mounts_.find(request.path.substr(0, len));
    if (it != mounts_.end()) {
      ServiceRequest inner = request;
      inner.path = len >= request.path.size()
                       ? ""
                       : request.path.substr(len + 1);
      return it->second->Handle(inner);
    }
    size_t slash = request.path.rfind('/', len - 1);
    if (slash == std::string::npos) {
      break;
    }
    len = slash;
  }
  return Status::NotFound("no service mounted for '" + request.path + "'");
}

std::vector<std::string> ServiceRegistry::Endpoints() const {
  std::vector<std::string> out;
  for (const auto& [prefix, service] : mounts_) {
    for (const std::string& endpoint : service->Endpoints()) {
      out.push_back(prefix + "/" + endpoint);
    }
  }
  return out;
}

}  // namespace dflow::core
