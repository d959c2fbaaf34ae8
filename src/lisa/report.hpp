// Human-readable report rendering.
//
// CI systems consume the JSON artifacts (to_json() on each result type);
// humans get Markdown: the violation triage document a developer reads when
// the gate blocks their commit, with the contract, the unguarded path, the
// counterexample state, and the proposed fix location.
#pragma once

#include <string>

#include "lisa/ci_gate.hpp"
#include "lisa/pipeline.hpp"

namespace lisa::core {

/// Renders one contract check as Markdown (### heading level).
[[nodiscard]] std::string render_markdown(const ContractCheckReport& report,
                                          const SemanticContract* contract = nullptr);

/// Renders a full pipeline run (proposal, contracts, verdicts, timings).
[[nodiscard]] std::string render_markdown(const PipelineResult& result);

/// Renders a gate decision as the comment a CI bot would post on the commit.
[[nodiscard]] std::string render_markdown(const GateDecision& decision);

}  // namespace lisa::core
