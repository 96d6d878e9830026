#ifndef DFLOW_CORE_WEB_SERVICE_H_
#define DFLOW_CORE_WEB_SERVICE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace dflow::core {

/// A dissemination request: a path like "candidates/top" plus string
/// parameters — the shape of the Web-Services interfaces the paper says
/// all three projects expose ("access to databases and some of the data
/// analysis functionality is provided through Web Services already", §5).
struct ServiceRequest {
  std::string path;
  std::map<std::string, std::string> params;

  /// Parameter accessor with default.
  std::string Param(const std::string& key,
                    const std::string& fallback = "") const {
    auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }

  /// Integer parameter accessor. Returns `fallback` when the key is absent;
  /// InvalidArgument when the value is empty, non-numeric, has trailing
  /// junk, or does not fit in int64 (overflow/underflow is an error, never
  /// a silent clamp).
  Result<int64_t> IntParam(const std::string& key, int64_t fallback) const;
};

struct ServiceResponse {
  /// "text/plain", "text/xml" (VOTable), "text/tab-separated-values".
  std::string content_type = "text/plain";
  std::string body;

  /// Cache-control hint consumed by the dissemination tier
  /// (`serve::ShardedResponseCache` via `serve::ServeLoop`):
  ///   0 (default)     — cacheable, use the cache's default TTL;
  ///   > 0             — cacheable for at most this many seconds;
  ///   kUncacheable    — must never be cached (side effects or
  ///                     per-request state, e.g. WebLab `extract` which
  ///                     materializes a table).
  /// Handlers that serve immutable history (EventStore `resolve` at an
  /// explicit timestamp, Retro-Browser snapshots) advertise long lifetimes.
  static constexpr double kUncacheable = -1.0;
  double cache_max_age_sec = 0.0;
};

/// One dissemination endpoint group (the candidate DB, an EventStore, the
/// WebLab). Implementations register handlers by path.
class WebService {
 public:
  virtual ~WebService() = default;

  /// Dispatches a request; NotFound for unknown paths.
  virtual Result<ServiceResponse> Handle(const ServiceRequest& request) = 0;

  /// Paths this service answers (for discovery / "full access to data and
  /// analysis functionality").
  virtual std::vector<std::string> Endpoints() const = 0;

  virtual const std::string& name() const = 0;
};

/// Routes requests across mounted services by path prefix
/// ("arecibo/candidates/top" -> the service mounted at "arecibo"). The
/// federation hook the paper's next-steps section asks for: one entry
/// point spanning the three projects' dissemination layers.
///
/// Routing contract (exercised in web_service_test.cc):
///   * prefixes may be nested ("cleo" and "cleo/es2"); the LONGEST mounted
///     prefix that matches on a '/' boundary wins;
///   * a path exactly equal to a mount prefix (or the prefix plus a
///     trailing '/') dispatches to that service with an empty inner path —
///     services decide what their "" endpoint means (typically NotFound);
///   * the empty path never routes: NotFound;
///   * mounting at "" or at a prefix with a leading/trailing '/' is
///     InvalidArgument; duplicate prefixes are AlreadyExists.
/// The mount-prefix rules, shared by every consumer that accepts one
/// (ServiceRegistry::Mount, serve::ServeLoop::SetReplica): OK for a
/// non-empty prefix with no leading or trailing '/'; InvalidArgument
/// otherwise.
Status ValidateMountPrefix(const std::string& prefix);

/// The first segment of `path` ("cleo" for "cleo/es2/resolve"), as a view
/// into it: the coarsest mount partition, which breaker health and backend
/// locks are kept per.
std::string_view TopLevelPrefix(std::string_view path);

class ServiceRegistry {
 public:
  /// Mounts `service` at `prefix`, and creates the mutex of its top-level
  /// prefix if it has none yet. AlreadyExists on duplicate prefixes;
  /// InvalidArgument for a null service or a prefix failing
  /// ValidateMountPrefix(). Mount everything before serving: Handle() and
  /// HandleSerialized() read the tables unlocked.
  Status Mount(const std::string& prefix, std::shared_ptr<WebService> service);

  /// Routes "prefix/rest..." to the longest-prefix mounted service with
  /// path "rest...".
  Result<ServiceResponse> Handle(const ServiceRequest& request) const;

  /// Handle() under the mutex of the request's top-level prefix. The
  /// case-study backends are single-threaded, and this registry owns the
  /// one mutex per prefix, so calls into a backend never overlap however
  /// many serve loops (its own, or others failing over to it) call in.
  /// Nested mounts ("cleo" and "cleo/es2") share their top-level mutex.
  Result<ServiceResponse> HandleSerialized(const ServiceRequest& request) const;

  /// Every mounted endpoint, fully qualified.
  std::vector<std::string> Endpoints() const;

 private:
  std::map<std::string, std::shared_ptr<WebService>> mounts_;
  std::map<std::string, std::unique_ptr<std::mutex>, std::less<>>
      mount_locks_;
};

}  // namespace dflow::core

#endif  // DFLOW_CORE_WEB_SERVICE_H_
