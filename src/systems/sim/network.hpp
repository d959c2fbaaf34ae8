// Simulated message bus with configurable latency, jitter, and loss.
//
// Endpoints register by name; send() schedules delivery on the event loop.
// Delays and drops are drawn from a seeded Rng, so histories replay exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "support/rng.hpp"
#include "systems/sim/event_loop.hpp"

namespace lisa::systems {

struct Message {
  std::string from;
  std::string to;
  std::string type;
  std::string payload;
  std::int64_t sent_at_ms = 0;
};

struct NetworkOptions {
  std::int64_t base_delay_ms = 1;
  std::int64_t jitter_ms = 0;    // uniform extra delay in [0, jitter_ms]
  double drop_rate = 0.0;        // probability a message is lost
  std::uint64_t seed = 42;
};

class MessageBus {
 public:
  using Receiver = std::function<void(const Message&)>;

  MessageBus(EventLoop& loop, NetworkOptions options = {})
      : loop_(loop), options_(options), rng_(options.seed) {}

  /// Registers (or replaces) the receiver for `endpoint`.
  void register_endpoint(const std::string& endpoint, Receiver receiver);

  /// Queues a message. Returns false if it was dropped by loss injection
  /// (delivery to unknown endpoints is counted separately at delivery time).
  bool send(const std::string& from, const std::string& to, const std::string& type,
            const std::string& payload);

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t dead_lettered() const { return dead_lettered_; }

 private:
  EventLoop& loop_;
  NetworkOptions options_;
  support::Rng rng_;
  std::map<std::string, Receiver> endpoints_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t dead_lettered_ = 0;
};

}  // namespace lisa::systems
