// Per-program facts shared by every contract checked against one program.
//
// Nothing the checker derives from a program depends on which contract
// asks, so the gate pays for each commit's facts once, not once per stored
// contract: one Screener (call graph, summaries, CFG cache, slice engine),
// built on first use, and one schedule exploration per
// (max_schedules, schedule_seed). The lazily built parts are mutable behind
// a const interface: one instance serves one gate call on one thread.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "concolic/schedule.hpp"
#include "staticcheck/screener.hpp"

namespace lisa::core {

class ProgramFacts {
 public:
  /// `program` must outlive the facts. `use_summaries` must match the
  /// CheckOptions of every check the facts serve.
  ProgramFacts(const minilang::Program& program, bool use_summaries)
      : program_(&program), use_summaries_(use_summaries) {}

  [[nodiscard]] const minilang::Program& program() const { return *program_; }
  [[nodiscard]] bool use_summaries() const { return use_summaries_; }

  /// The shared screener, built (summaries included) on first use.
  [[nodiscard]] const staticcheck::Screener& screener() const;

  /// The summary build time on the first call after the screener was built,
  /// 0 otherwise, so per-report summary_ms values sum to the one build.
  [[nodiscard]] double take_summary_ms() const;

  /// The exploration of every spawning @test. The first call per
  /// (max_schedules, seed) runs the explorer, charging `budget`; later calls
  /// return the memoized result and charge nothing.
  [[nodiscard]] const concolic::ScheduleExplorationResult& explore(
      int max_schedules, std::uint64_t seed, support::Budget* budget) const;

 private:
  const minilang::Program* program_;
  bool use_summaries_;
  mutable std::optional<staticcheck::Screener> screener_;
  mutable bool summary_ms_taken_ = false;
  mutable std::map<std::pair<int, std::uint64_t>, concolic::ScheduleExplorationResult>
      explorations_;
};

}  // namespace lisa::core
