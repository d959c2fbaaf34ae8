// Stack-based bytecode VM for MiniLang — the fast execution engine.
//
// Observationally equivalent to the tree-walking Interp (enforced by
// differential property tests). Only the benches and the tests run it; the
// gate, concolic replay and schedule exploration all run Interp.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "minilang/bytecode.hpp"
#include "minilang/interp.hpp"
#include "minilang/value.hpp"

namespace lisa::minilang {

class Vm {
 public:
  /// `module` (and the Program it borrows) must outlive the VM.
  explicit Vm(const Module& module);

  /// Calls a compiled function by name. Throws MiniThrow for uncaught
  /// MiniLang exceptions and InterpError for engine errors.
  Value call(const std::string& function, std::vector<Value> args);

  /// Runs one @test function; mirrors Interp::run_test.
  bool run_test(const std::string& test_name);
  std::pair<int, int> run_all_tests();
  [[nodiscard]] const std::string& last_error() const { return last_error_; }

  [[nodiscard]] std::string take_output() { return std::exchange(output_, std::string()); }
  void set_now_ms(std::int64_t ms) { now_ms_ = ms; }
  [[nodiscard]] std::int64_t now_ms() const { return now_ms_; }
  void set_blocking_latency_ms(std::int64_t ms) { blocking_latency_ms_ = ms; }
  void set_fuel(std::int64_t fuel) { fuel_limit_ = fuel; }
  void set_observer(ExecObserver* observer) { observer_ = observer; }

  /// Instructions executed since construction (throughput metric).
  [[nodiscard]] std::int64_t instructions_executed() const { return executed_; }

 private:
  struct Frame {
    const Chunk* chunk;
    std::size_t ip;
    std::size_t base;          // stack index of slot 0
    int sync_base;             // sync depth on entry
    std::size_t handler_base;  // handler-stack size on entry
  };
  struct Handler {
    std::size_t frame_index;
    std::size_t ip;
    std::size_t stack_size;
    int catch_slot;
    int sync_depth;
  };

  Value run(int chunk_index, std::vector<Value> args);
  void unwind(Value thrown);
  [[noreturn]] void engine_error(const std::string& message);

  const Module& module_;
  std::vector<Value> stack_;
  std::vector<Frame> frames_;
  std::vector<Handler> handlers_;
  std::string output_;
  std::string last_error_;
  std::int64_t now_ms_ = 0;
  std::int64_t blocking_latency_ms_ = 5;
  std::int64_t fuel_limit_ = 20'000'000;
  std::int64_t executed_ = 0;
  int sync_depth_ = 0;
  std::uint64_t next_object_id_ = 1;
  ExecObserver* observer_ = nullptr;
};

}  // namespace lisa::minilang
