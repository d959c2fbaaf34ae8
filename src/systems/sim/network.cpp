#include "systems/sim/network.hpp"

namespace lisa::systems {

void MessageBus::register_endpoint(const std::string& endpoint, Receiver receiver) {
  endpoints_[endpoint] = std::move(receiver);
}

bool MessageBus::send(const std::string& from, const std::string& to, const std::string& type,
                      const std::string& payload) {
  if (options_.drop_rate > 0.0 && rng_.next_bool(options_.drop_rate)) {
    ++dropped_;
    return false;
  }
  std::int64_t delay = options_.base_delay_ms;
  if (options_.jitter_ms > 0)
    delay += static_cast<std::int64_t>(rng_.next_below(
        static_cast<std::uint64_t>(options_.jitter_ms) + 1));
  Message message{from, to, type, payload, loop_.now()};
  loop_.schedule_after(delay, [this, message = std::move(message)] {
    const auto it = endpoints_.find(message.to);
    if (it == endpoints_.end()) {
      ++dead_lettered_;
      return;
    }
    ++delivered_;
    it->second(message);
  });
  return true;
}

}  // namespace lisa::systems
