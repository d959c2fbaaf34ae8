#include "lisa/program_facts.hpp"

namespace lisa::core {

const staticcheck::Screener& ProgramFacts::screener() const {
  if (!screener_.has_value()) screener_.emplace(*program_, use_summaries_);
  return *screener_;
}

double ProgramFacts::take_summary_ms() const {
  if (!screener_.has_value() || screener_->summaries() == nullptr || summary_ms_taken_)
    return 0.0;
  summary_ms_taken_ = true;
  return screener_->summaries()->stats().elapsed_ms;
}

const concolic::ScheduleExplorationResult& ProgramFacts::explore(
    int max_schedules, std::uint64_t seed, support::Budget* budget) const {
  const std::pair<int, std::uint64_t> key{max_schedules, seed};
  if (const auto found = explorations_.find(key); found != explorations_.end())
    return found->second;
  concolic::ScheduleExplorer explorer(*program_, {max_schedules, seed, budget});
  return explorations_.emplace(key, explorer.explore()).first->second;
}

}  // namespace lisa::core
