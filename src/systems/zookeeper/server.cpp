#include "systems/zookeeper/server.hpp"

namespace lisa::systems::zk {

ZooKeeperServer::ZooKeeperServer(EventLoop& loop, ZkConfig config)
    : loop_(loop), config_(config) {
  schedule_expiry_sweep();
}

void ZooKeeperServer::schedule_expiry_sweep() {
  loop_.schedule_after(config_.session_timeout_ms / 2, [this] {
    const std::int64_t now = loop_.now();
    std::vector<std::int64_t> expired;
    for (const auto& [id, session] : sessions_) {
      if (session.state == SessionState::kConnected &&
          now - session.last_touch_ms > config_.session_timeout_ms)
        expired.push_back(id);
    }
    for (const std::int64_t id : expired) {
      ++stats_.sessions_expired;
      close_session(id);
    }
    schedule_expiry_sweep();
  });
}

std::int64_t ZooKeeperServer::create_session(const std::string& owner) {
  const std::int64_t id = next_session_id_++;
  sessions_[id] = Session{id, owner, SessionState::kConnected, loop_.now()};
  return id;
}

bool ZooKeeperServer::touch_session(std::int64_t session_id) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.state != SessionState::kConnected) return false;
  it->second.last_touch_ms = loop_.now();
  return true;
}

void ZooKeeperServer::close_session(std::int64_t session_id) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.state != SessionState::kConnected) return;
  it->second.state = SessionState::kClosing;
  // Phase 1: collect this session's ephemeral nodes NOW. Anything created
  // after this point but before phase 2 is missed — the ZK-1208 window.
  std::vector<std::string> collected;
  for (const auto& [path, node] : nodes_)
    if (node.ephemeral_owner == session_id) collected.push_back(path);
  loop_.schedule_after(config_.close_linger_ms,
                       [this, session_id, collected = std::move(collected)]() mutable {
                         finish_close(session_id, std::move(collected));
                       });
}

void ZooKeeperServer::finish_close(std::int64_t session_id, std::vector<std::string> collected) {
  for (const std::string& path : collected) {
    if (nodes_.erase(path) > 0) fire_watches(path, "deleted");
  }
  const auto it = sessions_.find(session_id);
  if (it != sessions_.end()) it->second.state = SessionState::kClosed;
}

std::size_t ZooKeeperServer::live_sessions() const {
  std::size_t count = 0;
  for (const auto& [id, session] : sessions_)
    if (session.state == SessionState::kConnected) ++count;
  return count;
}

ZkStatus ZooKeeperServer::create(std::int64_t session_id, const std::string& path,
                                 const std::string& data, bool ephemeral) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.state == SessionState::kClosed) {
    ++stats_.creates_rejected;
    return ZkStatus::kSessionExpired;
  }
  // The low-level semantics of ZK-1208: no ephemeral node may be created on a
  // closing session. With the fix disabled the create slips into the close
  // window and the node outlives its session.
  if (config_.fix_zk1208 && ephemeral && it->second.state == SessionState::kClosing) {
    ++stats_.creates_rejected;
    return ZkStatus::kSessionClosing;
  }
  if (nodes_.count(path) > 0) {
    ++stats_.creates_rejected;
    return ZkStatus::kNodeExists;
  }
  // Writers queue behind the tree lock during (buggy) snapshot serialization.
  if (tree_locked_) stats_.write_stall_ms += config_.disk_write_ms;
  nodes_[path] = Node{data, ephemeral ? session_id : 0, loop_.now()};
  ++stats_.creates_ok;
  fire_watches(path, "created");
  return ZkStatus::kOk;
}

std::optional<std::string> ZooKeeperServer::get_data(const std::string& path) const {
  const auto it = nodes_.find(path);
  if (it == nodes_.end()) return std::nullopt;
  return it->second.data;
}

std::vector<std::string> ZooKeeperServer::get_children(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, node] : nodes_) {
    if (path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0 &&
        path[prefix.size()] == '/')
      out.push_back(path);
  }
  return out;
}

ZkStatus ZooKeeperServer::delete_node(const std::string& path) {
  if (nodes_.erase(path) == 0) return ZkStatus::kNoNode;
  fire_watches(path, "deleted");
  return ZkStatus::kOk;
}

bool ZooKeeperServer::exists(const std::string& path) const { return nodes_.count(path) > 0; }

void ZooKeeperServer::watch(const std::string& path, WatchCallback callback) {
  watches_.emplace(path, std::move(callback));
}

void ZooKeeperServer::fire_watches(const std::string& path, const std::string& type) {
  const auto range = watches_.equal_range(path);
  std::vector<WatchCallback> to_fire;
  for (auto it = range.first; it != range.second; ++it) to_fire.push_back(it->second);
  watches_.erase(range.first, range.second);  // one-shot, like real ZooKeeper
  for (WatchCallback& callback : to_fire) {
    ++stats_.watches_fired;
    callback(WatchEvent{path, type});
  }
}

std::size_t ZooKeeperServer::take_snapshot() {
  ++stats_.snapshots_taken;
  const std::size_t count = nodes_.size();
  const std::int64_t write_cost =
      static_cast<std::int64_t>(count) * config_.disk_write_ms;
  if (!config_.fix_sync_blocking) {
    // Buggy shape (ZK-2201): every record written while the tree lock is
    // held; writers that arrive during this window stall.
    tree_locked_ = true;
    loop_.schedule_after(write_cost, [this] { tree_locked_ = false; });
  }
  // Fixed shape: state is copied under the lock (treated as instantaneous
  // here) and written outside — writers never observe the lock held.
  return count;
}

std::vector<std::string> ZooKeeperServer::find_stale_ephemerals() {
  std::vector<std::string> out;
  for (const auto& [path, node] : nodes_) {
    if (node.ephemeral_owner == 0) continue;
    const auto it = sessions_.find(node.ephemeral_owner);
    if (it == sessions_.end() || it->second.state == SessionState::kClosed) {
      out.push_back(path);
      ++stats_.stale_ephemerals_detected;
    }
  }
  return out;
}

}  // namespace lisa::systems::zk
