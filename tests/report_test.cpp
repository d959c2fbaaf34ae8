// Tests for Markdown report rendering.
#include <gtest/gtest.h>

#include "lisa/report.hpp"
#include "minilang/sema.hpp"

namespace lisa::core {
namespace {

PipelineResult zk_result() {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  return Pipeline().run(*ticket, ticket->patched_source);
}

TEST(Report, PipelineMarkdownContainsContractAndVerdicts) {
  const PipelineResult result = zk_result();
  const std::string markdown = render_markdown(result);
  EXPECT_NE(markdown.find("## LISA pipeline report"), std::string::npos);
  EXPECT_NE(markdown.find("create_ephemeral_node("), std::string::npos);
  EXPECT_NE(markdown.find("❌ violated"), std::string::npos);
  EXPECT_NE(markdown.find("✅ verified"), std::string::npos);
  EXPECT_NE(markdown.find("batch_create"), std::string::npos);
  EXPECT_NE(markdown.find("**FAIL**"), std::string::npos);
  EXPECT_NE(markdown.find("Timings:"), std::string::npos);
}

TEST(Report, StageTimingsAreConsistent) {
  const PipelineResult result = zk_result();
  const StageTimings& timings = result.timings;
  // total is the derived sum of the three stage spans...
  EXPECT_NEAR(timings.total_ms,
              timings.infer_ms + timings.translate_ms + timings.check_ms, 0.05);
  // ...and screening/summaries are shares of the check stage, not extra
  // time on top of it (the double-counting this invariant guards against).
  EXPECT_LE(timings.screen_ms + timings.summary_ms, timings.check_ms + 0.05);
  EXPECT_TRUE(timings.consistent());
  EXPECT_GT(timings.total_ms, 0.0);
}

TEST(Report, ContractMarkdownShowsCounterexample) {
  const PipelineResult result = zk_result();
  ASSERT_FALSE(result.reports.empty());
  const std::string markdown =
      render_markdown(result.reports[0], &result.contracts[0]);
  EXPECT_NE(markdown.find("reachable with"), std::string::npos);
  EXPECT_NE(markdown.find("is_closing"), std::string::npos);
}

TEST(Report, GateDecisionMarkdownBlockedAndAdmitted) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-1208-ephemeral-create");
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(*ticket);
  TranslationResult translation = translate(proposal, ticket->system);
  ContractStore store;
  store.add_all(std::move(translation.contracts));
  CheckOptions options;
  options.run_concolic = false;
  const CiGate gate(options);

  const GateDecision blocked = gate.evaluate(ticket->patched_source, store);
  const std::string blocked_md = render_markdown(blocked);
  EXPECT_NE(blocked_md.find("⛔ Commit blocked"), std::string::npos);
  EXPECT_NE(blocked_md.find("semantics learned from past incidents"), std::string::npos);

  const GateDecision admitted = gate.evaluate("fn unrelated() { print(1); }", store);
  const std::string admitted_md = render_markdown(admitted);
  EXPECT_NE(admitted_md.find("✅ Commit admitted"), std::string::npos);
}

TEST(Report, StructuralViolationsRendered) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find("zk-2201-sync-serialize");
  const PipelineResult result = Pipeline().run(*ticket, ticket->patched_source);
  const std::string markdown = render_markdown(result);
  EXPECT_NE(markdown.find("structural:"), std::string::npos);
  EXPECT_NE(markdown.find("serialize_acls"), std::string::npos);
}

}  // namespace
}  // namespace lisa::core
