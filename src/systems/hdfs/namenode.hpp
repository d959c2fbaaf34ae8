// Mini-HDFS: an active namenode, an observer namenode fed by block reports
// over the message bus, and a client read path.
//
// The HDFS-13924/16732/17768 incident class replays here: when block reports
// to the observer are delayed, observer reads return blocks without
// locations. With `check_locations` enabled (the fix), such reads redirect to
// the active namenode; with it disabled, clients receive empty location
// lists and fail.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "systems/sim/network.hpp"

namespace lisa::systems::hdfs {

struct BlockInfo {
  std::int64_t block_id = 0;
  std::vector<std::string> locations;  // datanode names
};

struct HdfsStats {
  std::uint64_t reads_served = 0;
  std::uint64_t reads_redirected = 0;   // stale observer → active
  std::uint64_t empty_location_reads = 0;  // the incident symptom
  std::uint64_t block_reports_applied = 0;
};

/// The active namenode: source of truth for block → location mappings.
class ActiveNameNode {
 public:
  /// Adds a file whose single block lives on `locations`.
  void add_file(const std::string& path, std::int64_t block_id,
                std::vector<std::string> locations);

  [[nodiscard]] std::optional<BlockInfo> get_block(const std::string& path) const;
  [[nodiscard]] const std::map<std::string, BlockInfo>& files() const { return files_; }

 private:
  std::map<std::string, BlockInfo> files_;
};

/// The observer: serves reads from its own (possibly stale) replica of the
/// block map, updated by block-report messages.
class ObserverNameNode {
 public:
  ObserverNameNode(EventLoop& loop, MessageBus& bus, std::string name);

  /// Active pushes a block report; it arrives after the bus delay plus
  /// `extra_delay_ms` (models a delayed block report).
  void receive_report_later(const ActiveNameNode& active, const std::string& path,
                            std::int64_t extra_delay_ms);

  /// Observer-side read. With `check_locations`, blocks without locations
  /// raise a redirect (returns nullopt and bumps reads_redirected) instead of
  /// being returned empty.
  std::optional<BlockInfo> read(const std::string& path, bool check_locations);

  /// Batched listing — the path HDFS-17768 found unprotected. `check_locations`
  /// mirrors whether the fix covers this path.
  std::vector<BlockInfo> batched_listing(const std::vector<std::string>& paths,
                                         bool check_locations);

  [[nodiscard]] const HdfsStats& stats() const { return stats_; }

 private:
  EventLoop& loop_;
  MessageBus& bus_;
  std::string name_;
  std::map<std::string, BlockInfo> replica_;
  HdfsStats stats_;
};

}  // namespace lisa::systems::hdfs
