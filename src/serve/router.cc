#include "serve/router.h"

#include <utility>

#include "base/string_util.h"

namespace thali {
namespace serve {

ModelRouter::Entry* ModelRouter::FindLocked(const std::string& name) {
  for (Entry& e : models_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const ModelRouter::Entry* ModelRouter::FindLocked(
    const std::string& name) const {
  for (const Entry& e : models_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Status ModelRouter::AddModel(const std::string& name,
                             const Server::Options& options,
                             const Server::DetectorFactory& factory) {
  if (name.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (FindLocked(name) != nullptr) {
      return Status::InvalidArgument("duplicate model name: " + name);
    }
  }
  // Build outside the lock: detector construction is seconds of work and
  // Route must stay responsive while a canary spins up.
  StatusOr<std::unique_ptr<Server>> server = Server::Create(options, factory);
  if (!server.ok()) return server.status();

  std::lock_guard<std::mutex> lock(mu_);
  if (FindLocked(name) != nullptr) {
    return Status::InvalidArgument("duplicate model name: " + name);
  }
  models_.push_back(Entry{name, std::move(server).value()});
  return Status::OK();
}

Status ModelRouter::SetAbSplit(const std::string& b_name, int percent_to_b) {
  if (percent_to_b < 0 || percent_to_b > 100) {
    return Status::InvalidArgument("percent_to_b must be in [0, 100]");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (percent_to_b == 0) {
    ab_model_.clear();
    ab_percent_ = 0;
    return Status::OK();
  }
  if (FindLocked(b_name) == nullptr) {
    return Status::NotFound("unknown model: " + b_name);
  }
  ab_model_ = b_name;
  ab_percent_ = percent_to_b;
  return Status::OK();
}

StatusOr<Server*> ModelRouter::Route(const std::string& model_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (models_.empty()) return Status::FailedPrecondition("no models");
  if (!model_id.empty()) {
    Entry* e = FindLocked(model_id);
    if (e == nullptr) return Status::NotFound("unknown model: " + model_id);
    return e->server.get();
  }
  std::string name = models_.front().name;
  if (ab_percent_ > 0) {
    const uint64_t k =
        ab_counter_.fetch_add(1, std::memory_order_relaxed) % 100;
    if (k < static_cast<uint64_t>(ab_percent_)) name = ab_model_;
  }
  Entry* e = FindLocked(name);
  if (e == nullptr) return Status::NotFound("unknown model: " + name);
  return e->server.get();
}

Server* ModelRouter::Find(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = FindLocked(name);
  return e == nullptr ? nullptr : e->server.get();
}

Status ModelRouter::ReloadWeights(const std::string& name,
                                  const std::string& weights_path) {
  Server* server = Find(name);
  if (server == nullptr) return Status::NotFound("unknown model: " + name);
  return server->ReloadWeights(weights_path);
}

std::vector<std::string> ModelRouter::ModelNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const Entry& e : models_) names.push_back(e.name);
  return names;
}

std::string ModelRouter::StatsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string json = "{";
  json += StrFormat("\"default_model\": \"%s\", ",
                    models_.empty() ? "" : models_.front().name.c_str());
  json += StrFormat("\"ab_model\": \"%s\", \"ab_percent\": %d, ",
                    ab_model_.c_str(), ab_percent_);
  json += "\"models\": {";
  for (size_t i = 0; i < models_.size(); ++i) {
    const Entry& e = models_[i];
    json += StrFormat(
        "\"%s\": {\"weights_generation\": %lld, "
        "\"interactive_depth\": %zu, \"batch_depth\": %zu, \"metrics\": %s}",
        e.name.c_str(),
        static_cast<long long>(e.server->weights_generation()),
        e.server->LaneDepth(Priority::kInteractive),
        e.server->LaneDepth(Priority::kBatch),
        e.server->metrics().Snapshot().ToJson().c_str());
    if (i + 1 < models_.size()) json += ", ";
  }
  json += "}}";
  return json;
}

void ModelRouter::ShutdownAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : models_) e.server->Shutdown();
}

}  // namespace serve
}  // namespace thali
