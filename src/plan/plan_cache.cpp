#include "plan/plan_cache.hpp"

#include <algorithm>
#include <utility>

namespace pup::plan {

PlanCache::Entry* PlanCache::touch(sim::Machine& machine,
                                   const PlanKey& key) {
  ++stats_.lookups;
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    machine.annotate_event("plan.cache.miss");
    return nullptr;
  }
  ++stats_.hits;
  machine.annotate_event("plan.cache.hit");
  entries_.splice(entries_.begin(), entries_, it->second);
  it->second = entries_.begin();
  entries_.begin()->last_used = stats_.lookups;
  return &*entries_.begin();
}

void PlanCache::insert(sim::Machine& machine, Entry entry) {
  while (entries_.size() >= capacity_) {
    auto last = std::prev(entries_.end());
    machine.annotate_event("plan.cache.evict");
    ++stats_.evictions;
    const std::int64_t age = stats_.lookups - last->last_used;
    stats_.last_eviction_age = age;
    stats_.max_eviction_age = std::max(stats_.max_eviction_age, age);
    index_.erase(last->key);
    entries_.erase(last);
  }
  entry.last_used = stats_.lookups;
  entries_.push_front(std::move(entry));
  index_[entries_.front().key] = entries_.begin();
}

std::shared_ptr<const PackPlan> PlanCache::pack_plan(
    sim::Machine& machine, const dist::Distribution& dist, int elem_width,
    const PackOptions& options,
    std::optional<dist::Distribution> result_dist) {
  const PlanKey key =
      pack_plan_key(dist, elem_width, options, result_dist, machine.cost());
  const std::lock_guard<std::mutex> lock(mu_);
  if (Entry* hit = touch(machine, key)) {
    PUP_CHECK(hit->pack != nullptr, "plan kind mismatch for equal keys");
    return hit->pack;
  }
  Entry entry;
  entry.key = key;
  entry.pack = std::make_shared<const PackPlan>(compile_pack_plan(
      machine, dist, elem_width, options, std::move(result_dist)));
  auto plan = entry.pack;
  insert(machine, std::move(entry));
  return plan;
}

std::shared_ptr<const UnpackPlan> PlanCache::unpack_plan(
    sim::Machine& machine, const dist::Distribution& mask_dist,
    const dist::Distribution& vector_dist, int elem_width,
    const UnpackOptions& options) {
  const PlanKey key =
      unpack_plan_key(mask_dist, vector_dist, elem_width, options,
                      machine.cost());
  const std::lock_guard<std::mutex> lock(mu_);
  if (Entry* hit = touch(machine, key)) {
    PUP_CHECK(hit->unpack != nullptr, "plan kind mismatch for equal keys");
    return hit->unpack;
  }
  Entry entry;
  entry.key = key;
  entry.unpack = std::make_shared<const UnpackPlan>(compile_unpack_plan(
      machine, mask_dist, vector_dist, elem_width, options));
  auto plan = entry.unpack;
  insert(machine, std::move(entry));
  return plan;
}

std::size_t PlanCache::invalidate(sim::Machine& machine,
                                  const dist::Distribution& dist) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    // Match every distribution the key was compiled against, not just the
    // source layout: a redistribution invalidates plans whose pinned pack
    // result or unpack vector layout named the old distribution too.
    if (it->references(dist)) {
      machine.annotate_event("plan.cache.invalidate");
      index_.erase(it->key);
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidations += static_cast<std::int64_t>(dropped);
  return dropped;
}

void PlanCache::clear(sim::Machine& machine) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    machine.annotate_event("plan.cache.invalidate");
  }
  stats_.invalidations += static_cast<std::int64_t>(entries_.size());
  entries_.clear();
  index_.clear();
}

}  // namespace pup::plan
