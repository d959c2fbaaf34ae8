// Mini-HBase snapshot store with TTL enforcement.
//
// The HBASE-27671/28704/29296 incident class replays here: snapshots carry a
// TTL relative to the virtual clock; each serving operation (restore, export,
// scan) can individually enforce or skip the expiration check, mirroring the
// real system's inconsistent coverage across code paths.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "systems/sim/event_loop.hpp"

namespace lisa::systems::hbase {

enum class SnapshotStatus { kOk, kNotFound, kExpired };

struct SnapshotStats {
  std::uint64_t served_ok = 0;
  std::uint64_t expired_served = 0;   // the incident symptom: stale data out
  std::uint64_t expired_rejected = 0;
  std::uint64_t not_found = 0;
};

/// Per-operation expiration-check coverage. The "latest version" of the
/// incident corpus corresponds to {restore: true, export: true, scan: false}.
struct CheckCoverage {
  bool restore = true;
  bool export_op = true;
  bool scan = true;
};

class SnapshotStore {
 public:
  explicit SnapshotStore(EventLoop& loop, CheckCoverage coverage = {})
      : loop_(loop), coverage_(coverage) {}

  /// Creates a snapshot with `ttl_ms` time-to-live from now (0 = never
  /// expires).
  void create_snapshot(const std::string& name, std::int64_t ttl_ms,
                       std::vector<std::string> rows);

  /// True if the snapshot exists and its TTL has elapsed.
  [[nodiscard]] bool is_expired(const std::string& name) const;

  // The three serving operations. Each consults the expiration check only if
  // its coverage flag is set — skipped checks serve stale data silently.
  SnapshotStatus restore(const std::string& name);
  SnapshotStatus export_snapshot(const std::string& name);
  /// Returns the snapshot rows on success (the scan result).
  std::pair<SnapshotStatus, std::vector<std::string>> scan(const std::string& name);

  [[nodiscard]] const SnapshotStats& stats() const { return stats_; }

 private:
  struct Snapshot {
    std::int64_t created_ms = 0;
    std::int64_t ttl_ms = 0;
    std::vector<std::string> rows;
  };

  SnapshotStatus serve(const std::string& name, bool check_expiration);

  EventLoop& loop_;
  CheckCoverage coverage_;
  std::map<std::string, Snapshot> snapshots_;
  SnapshotStats stats_;
};

}  // namespace lisa::systems::hbase
