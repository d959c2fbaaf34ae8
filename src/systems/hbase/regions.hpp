// Mini-HBase region server: region lifecycle (compaction, split), write-ahead
// log rolling, and the client-side meta cache.
//
// Native analogs of three corpus cases:
//   * HBASE-SP1/SP2 — a region must not split while compacting,
//   * HBASE-W1/W2  — the WAL must not roll while the region is flushing,
//   * HBASE-M1/M2  — requests must not route through stale meta entries.
// Each guarding check is individually togglable, mirroring the historical
// partial coverage.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "systems/sim/event_loop.hpp"

namespace lisa::systems::hbase {

struct RegionGuards {
  bool split_checks_compaction = true;   // client split path
  bool balancer_checks_compaction = true;
  bool manual_roll_checks_flush = true;  // manual WAL roll
  bool timer_roll_checks_flush = true;
  bool routing_checks_stale = true;      // single-get routing
  bool batch_routing_checks_stale = true;
};

struct RegionStats {
  std::uint64_t splits_ok = 0;
  std::uint64_t splits_during_compaction = 0;  // incident: lost store files
  std::uint64_t splits_rejected = 0;
  std::uint64_t wal_rolls = 0;
  std::uint64_t rolls_during_flush = 0;        // incident: lost edits
  std::uint64_t rolls_rejected = 0;
  std::uint64_t routed = 0;
  std::uint64_t routed_stale = 0;              // incident: NSRE storms
  std::uint64_t refreshes = 0;
};

class RegionServer {
 public:
  RegionServer(EventLoop& loop, RegionGuards guards = {})
      : loop_(loop), guards_(guards) {}

  // -- Region lifecycle ---------------------------------------------------

  void add_region(const std::string& name);
  /// Starts a major compaction lasting `duration_ms` of virtual time.
  void start_compaction(const std::string& name, std::int64_t duration_ms);

  /// Client-requested split; returns true if the split executed.
  bool request_split(const std::string& name);
  /// Balancer-initiated split (the second trigger path).
  bool balancer_split(const std::string& name);
  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }

  // -- WAL ------------------------------------------------------------

  /// Starts a memstore flush lasting `duration_ms`.
  void start_flush(const std::string& name, std::int64_t duration_ms);
  bool request_wal_roll(const std::string& name);  // manual path
  bool timer_wal_roll(const std::string& name);    // size/periodic path

  // -- Meta cache -------------------------------------------------------

  void cache_location(const std::string& row, const std::string& region_name);
  /// Marks a row's cache entry stale (region moved).
  void invalidate(const std::string& row);
  bool route_get(const std::string& row);                 // single-get path
  std::size_t route_batch(const std::vector<std::string>& rows);  // multi path

  [[nodiscard]] const RegionStats& stats() const { return stats_; }

 private:
  struct Region {
    std::string name;
    bool compacting = false;
    bool flushing = false;
    int generation = 0;  // bumped by splits
  };
  struct CacheEntry {
    std::string region_name;
    bool stale = false;
  };

  bool split_region(const std::string& name, bool check);
  bool roll_wal(const std::string& name, bool check);
  bool route_one(const std::string& row, bool check);

  EventLoop& loop_;
  RegionGuards guards_;
  RegionStats stats_;
  std::map<std::string, Region> regions_;
  std::map<std::string, CacheEntry> meta_cache_;
};

}  // namespace lisa::systems::hbase
