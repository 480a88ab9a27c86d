#ifndef THALI_SERVE_ROUTER_H_
#define THALI_SERVE_ROUTER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "serve/server.h"

namespace thali {
namespace serve {

// Multi-model router: a registry of named serve::Server instances (one
// per model, each with its own worker pool, queues and metrics) plus a
// routing rule for requests that do not pin a model:
//
//   * a default model (the first registered, unless overridden), and
//   * an optional percentage A/B split diverting a fixed fraction of
//     default-routed traffic to a second model (canary / baseline
//     comparison — e.g. yolov4-thali vs the SSD baseline).
//
// The split is counter-based, not random: request k of every 100 goes to
// B iff k < percent_to_b, so traffic shares are exact and deterministic
// (reproducible load tests). Explicit model ids bypass the split.
//
// Hot weight reload delegates to Server::ReloadWeights — the versioned
// blob swap is per-model, workers pick it up between batches, in-flight
// requests finish on the weights they started with.
//
// Thread-safety: AddModel/SetDefault/SetAbSplit are registration-time
// calls guarded by a mutex; Route is safe concurrently with them.
// Servers live until the router is destroyed, so a routed Server* stays
// valid for the caller's submit.
class ModelRouter {
 public:
  ModelRouter() = default;
  ~ModelRouter() { ShutdownAll(); }

  ModelRouter(const ModelRouter&) = delete;
  ModelRouter& operator=(const ModelRouter&) = delete;

  // Builds and registers a named model server. The first model added
  // is the default route. kInvalidArgument on a duplicate name.
  Status AddModel(const std::string& name, const Server::Options& options,
                  const Server::DetectorFactory& factory);

  // Diverts `percent_to_b` of every 100 default-routed requests to model
  // `b_name` (0 clears the split). kNotFound if unregistered,
  // kInvalidArgument outside [0, 100].
  Status SetAbSplit(const std::string& b_name, int percent_to_b);

  // Resolves a request's model id: "" routes via default + A/B split; a
  // name routes to that model (kNotFound if absent).
  StatusOr<Server*> Route(const std::string& model_id);

  // Direct lookup without advancing the A/B counter; nullptr if absent.
  Server* Find(const std::string& name);

  // Stages new weights for `name` (see Server::ReloadWeights).
  Status ReloadWeights(const std::string& name,
                       const std::string& weights_path);

  std::vector<std::string> ModelNames() const;

  // Aggregated stats for the STATS op: one JSON object keyed by model
  // name, each value a ServerMetrics snapshot plus live lane depths.
  std::string StatsJson() const;

  // Shuts down every registered server (idempotent; also run by the
  // destructor).
  void ShutdownAll();

 private:
  struct Entry {
    std::string name;
    std::unique_ptr<Server> server;
  };

  Entry* FindLocked(const std::string& name);
  const Entry* FindLocked(const std::string& name) const;

  mutable std::mutex mu_;
  std::vector<Entry> models_;        // guarded by mu_ (pointers stable:
                                     // Server objects are heap-owned)
  std::string ab_model_;             // guarded by mu_; "" = no split
  int ab_percent_ = 0;               // guarded by mu_
  std::atomic<uint64_t> ab_counter_{0};
};

}  // namespace serve
}  // namespace thali

#endif  // THALI_SERVE_ROUTER_H_
