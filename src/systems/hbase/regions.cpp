#include "systems/hbase/regions.hpp"

namespace lisa::systems::hbase {

void RegionServer::add_region(const std::string& name) {
  Region region;
  region.name = name;
  regions_[name] = std::move(region);
}

void RegionServer::start_compaction(const std::string& name, std::int64_t duration_ms) {
  const auto it = regions_.find(name);
  if (it == regions_.end()) return;
  it->second.compacting = true;
  loop_.schedule_after(duration_ms, [this, name] {
    const auto found = regions_.find(name);
    if (found != regions_.end()) found->second.compacting = false;
  });
}

bool RegionServer::split_region(const std::string& name, bool check) {
  const auto it = regions_.find(name);
  if (it == regions_.end()) return false;
  Region& region = it->second;
  if (check && region.compacting) {
    ++stats_.splits_rejected;
    return false;
  }
  if (region.compacting) ++stats_.splits_during_compaction;
  ++stats_.splits_ok;
  // Daughters replace the parent.
  const int generation = region.generation + 1;
  const std::string base = region.name;
  regions_.erase(it);
  for (const char* suffix : {"-a", "-b"}) {
    Region daughter;
    daughter.name = base + suffix;
    daughter.generation = generation;
    regions_[daughter.name] = std::move(daughter);
  }
  return true;
}

bool RegionServer::request_split(const std::string& name) {
  return split_region(name, guards_.split_checks_compaction);
}

bool RegionServer::balancer_split(const std::string& name) {
  return split_region(name, guards_.balancer_checks_compaction);
}

void RegionServer::start_flush(const std::string& name, std::int64_t duration_ms) {
  const auto it = regions_.find(name);
  if (it == regions_.end()) return;
  it->second.flushing = true;
  loop_.schedule_after(duration_ms, [this, name] {
    const auto found = regions_.find(name);
    if (found != regions_.end()) found->second.flushing = false;
  });
}

bool RegionServer::roll_wal(const std::string& name, bool check) {
  const auto it = regions_.find(name);
  if (it == regions_.end()) return false;
  if (check && it->second.flushing) {
    ++stats_.rolls_rejected;
    return false;
  }
  if (it->second.flushing) ++stats_.rolls_during_flush;
  ++stats_.wal_rolls;
  return true;
}

bool RegionServer::request_wal_roll(const std::string& name) {
  return roll_wal(name, guards_.manual_roll_checks_flush);
}

bool RegionServer::timer_wal_roll(const std::string& name) {
  return roll_wal(name, guards_.timer_roll_checks_flush);
}

void RegionServer::cache_location(const std::string& row, const std::string& region_name) {
  meta_cache_[row] = CacheEntry{region_name, false};
}

void RegionServer::invalidate(const std::string& row) {
  const auto it = meta_cache_.find(row);
  if (it != meta_cache_.end()) it->second.stale = true;
}

bool RegionServer::route_one(const std::string& row, bool check) {
  const auto it = meta_cache_.find(row);
  if (it == meta_cache_.end()) return false;
  if (it->second.stale) {
    if (check) {
      it->second.stale = false;  // refresh instead of routing
      ++stats_.refreshes;
      return false;
    }
    ++stats_.routed_stale;
  }
  ++stats_.routed;
  return true;
}

bool RegionServer::route_get(const std::string& row) {
  return route_one(row, guards_.routing_checks_stale);
}

std::size_t RegionServer::route_batch(const std::vector<std::string>& rows) {
  std::size_t routed = 0;
  for (const std::string& row : rows)
    if (route_one(row, guards_.batch_routing_checks_stale)) ++routed;
  return routed;
}

}  // namespace lisa::systems::hbase
