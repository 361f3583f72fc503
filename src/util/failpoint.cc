#include "util/failpoint.h"

#include <mutex>
#include <random>
#include <unordered_map>

namespace ajd {

FailpointConfig FailpointConfig::EveryNth(uint64_t n, uint64_t start_after) {
  FailpointConfig c;
  c.kind = Kind::kEveryNth;
  c.n = n == 0 ? 1 : n;
  c.start_after = start_after;
  return c;
}

FailpointConfig FailpointConfig::Probability(double p, uint64_t seed) {
  FailpointConfig c;
  c.kind = Kind::kProbability;
  c.probability = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  c.seed = seed;
  return c;
}

FailpointConfig FailpointConfig::OneShot(uint64_t after) {
  FailpointConfig c;
  c.kind = Kind::kOneShot;
  c.start_after = after;
  return c;
}

struct FailpointRegistry::Impl {
  struct Point {
    bool armed = false;
    FailpointConfig config;
    uint64_t evals = 0;     // since last Arm
    uint64_t triggers = 0;  // since last Arm
    bool one_shot_fired = false;
    std::mt19937_64 rng;
  };

  mutable std::mutex mu;
  std::unordered_map<std::string, Point> points;
};

FailpointRegistry::FailpointRegistry() : impl_(new Impl) {}
FailpointRegistry::~FailpointRegistry() { delete impl_; }

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry* registry = new FailpointRegistry;
  return *registry;
}

void FailpointRegistry::Arm(const std::string& name, FailpointConfig config) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Impl::Point& p = impl_->points[name];
  p.armed = true;
  p.config = config;
  p.evals = 0;
  p.triggers = 0;
  p.one_shot_fired = false;
  p.rng.seed(config.seed);
}

void FailpointRegistry::Disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->points.find(name);
  if (it != impl_->points.end()) it->second.armed = false;
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, p] : impl_->points) {
    (void)name;
    p.armed = false;
  }
}

bool FailpointRegistry::ShouldFail(const char* name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->points.find(name);
  if (it == impl_->points.end() || !it->second.armed) return false;
  Impl::Point& p = it->second;
  const uint64_t eval = ++p.evals;
  bool fire = false;
  switch (p.config.kind) {
    case FailpointConfig::Kind::kEveryNth:
      fire = eval > p.config.start_after &&
             (eval - p.config.start_after) % p.config.n == 0;
      break;
    case FailpointConfig::Kind::kProbability: {
      std::uniform_real_distribution<double> dist(0.0, 1.0);
      fire = dist(p.rng) < p.config.probability;
      break;
    }
    case FailpointConfig::Kind::kOneShot:
      fire = !p.one_shot_fired && eval > p.config.start_after;
      if (fire) p.one_shot_fired = true;
      break;
  }
  if (fire) ++p.triggers;
  return fire;
}

uint64_t FailpointRegistry::Evaluations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->points.find(name);
  return it == impl_->points.end() ? 0 : it->second.evals;
}

uint64_t FailpointRegistry::Triggers(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->points.find(name);
  return it == impl_->points.end() ? 0 : it->second.triggers;
}

const std::vector<std::string>& FailpointRegistry::Catalog() {
  static const std::vector<std::string> catalog = {
      failpoints::kRelationAppendReserve,
      failpoints::kRelationAppendStage,
      failpoints::kRelationIntern,
      failpoints::kCsvBatch,
      failpoints::kEngineComputePartition,
      failpoints::kEngineBatchTask,
      failpoints::kEngineCatchupExtend,
      failpoints::kEngineCatchupPublish,
      failpoints::kStreamingIngestBatch,
      failpoints::kPersistManifestAppend,
      failpoints::kPersistCompactRename,
  };
  return catalog;
}

}  // namespace ajd
