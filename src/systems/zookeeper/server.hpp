// Mini-ZooKeeper: a coordination service with sessions, a data tree,
// ephemeral nodes, and watches, running on the discrete-event simulator.
//
// This is the native substrate the incident examples exercise. Two historical
// bugs can be re-enabled through the config so the Fig. 2 scenario replays
// exactly:
//   * fix_zk1208 = false  — ephemeral creation does not check whether the
//     owner session is CLOSING; creations that land in the close window leave
//     stale nodes behind (ZOOKEEPER-1208/1496).
//   * fix_sync_blocking = false — snapshot serialization performs its disk
//     writes while holding the tree lock, stalling every concurrent write for
//     the duration (ZOOKEEPER-2201/3531).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "systems/sim/event_loop.hpp"

namespace lisa::systems::zk {

enum class ZkStatus {
  kOk,
  kSessionExpired,
  kSessionClosing,
  kNodeExists,
  kNoNode,
};

enum class SessionState { kConnected, kClosing, kClosed };

struct ZkConfig {
  std::int64_t session_timeout_ms = 6000;
  /// The close path collects ephemerals, then deletes them after this delay —
  /// the CLOSING window the ZK-1208 race lands in.
  std::int64_t close_linger_ms = 20;
  std::int64_t disk_write_ms = 5;  // per-record snapshot write cost
  bool fix_zk1208 = true;          // reject creates on closing sessions
  bool fix_sync_blocking = true;   // serialize outside the tree lock
};

struct WatchEvent {
  std::string path;
  std::string type;  // "created" | "deleted" | "changed"
};

struct ZkStats {
  std::uint64_t creates_ok = 0;
  std::uint64_t creates_rejected = 0;
  std::uint64_t sessions_expired = 0;
  std::uint64_t watches_fired = 0;
  std::uint64_t stale_ephemerals_detected = 0;  // survived their session
  std::int64_t write_stall_ms = 0;  // time writers spent blocked on the lock
  std::uint64_t snapshots_taken = 0;
};

class ZooKeeperServer {
 public:
  ZooKeeperServer(EventLoop& loop, ZkConfig config = {});

  // -- Session lifecycle ----------------------------------------------------

  /// Opens a session; returns its id. The session expires unless touched
  /// within session_timeout_ms.
  std::int64_t create_session(const std::string& owner);

  /// Heartbeat; returns false if the session is gone or closing.
  bool touch_session(std::int64_t session_id);

  /// Initiates the two-phase close: the session is CLOSING while its
  /// ephemeral nodes are collected; deletion completes close_linger_ms later.
  void close_session(std::int64_t session_id);

  [[nodiscard]] std::size_t live_sessions() const;

  // -- Data tree --------------------------------------------------------

  /// Creates a node. Ephemeral nodes are owned by `session_id` and must be
  /// cleaned up when it closes.
  ZkStatus create(std::int64_t session_id, const std::string& path, const std::string& data,
                  bool ephemeral);

  [[nodiscard]] std::optional<std::string> get_data(const std::string& path) const;
  [[nodiscard]] std::vector<std::string> get_children(const std::string& prefix) const;
  ZkStatus delete_node(const std::string& path);
  [[nodiscard]] bool exists(const std::string& path) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  // -- Watches ---------------------------------------------------------

  using WatchCallback = std::function<void(const WatchEvent&)>;
  void watch(const std::string& path, WatchCallback callback);

  // -- Maintenance -------------------------------------------------------

  /// Serializes the whole tree to a snapshot "file"; with the sync-blocking
  /// bug enabled this stalls concurrent writers for disk_write_ms per node.
  std::size_t take_snapshot();

  /// Scans for ephemeral nodes whose owner session no longer exists — the
  /// visible symptom of the ZK-1208 class of bugs.
  [[nodiscard]] std::vector<std::string> find_stale_ephemerals();

  [[nodiscard]] const ZkStats& stats() const { return stats_; }
  [[nodiscard]] const ZkConfig& config() const { return config_; }

 private:
  struct Session {
    std::int64_t id;
    std::string owner;
    SessionState state = SessionState::kConnected;
    std::int64_t last_touch_ms = 0;
  };
  struct Node {
    std::string data;
    std::int64_t ephemeral_owner = 0;  // 0 = persistent
    std::int64_t created_ms = 0;
  };

  void schedule_expiry_sweep();
  void fire_watches(const std::string& path, const std::string& type);
  void finish_close(std::int64_t session_id, std::vector<std::string> collected);

  EventLoop& loop_;
  ZkConfig config_;
  ZkStats stats_;
  std::int64_t next_session_id_ = 1;
  std::map<std::int64_t, Session> sessions_;
  std::map<std::string, Node> nodes_;
  std::multimap<std::string, WatchCallback> watches_;
  bool tree_locked_ = false;  // models the serialization monitor
};

}  // namespace lisa::systems::zk
