// Golden pin of concolic replay over the whole corpus.
//
// For every corpus case, every version (buggy, patched, latest), every
// contract the pipeline checks with concolic replay — once as the pipeline
// runs by default and once with static screening off, so that contracts the
// screener settles are replayed too — and every test the checker selected
// for it, the test re-runs the replay the checker runs
// (one Engine per contract, the selected tests in order) and renders each
// RunResult: pass/fail, per-hit statement, function, call chain, trace
// condition π, instantiated contract and witness, and the branch and
// statement counters. The rendering must equal tests/golden/concolic_runs.txt
// byte for byte. On a mismatch the actual rendering is written to
// concolic_runs.actual in the working directory, for review and, when a
// change is intended, for replacing the golden file.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "concolic/engine.hpp"
#include "corpus/ticket.hpp"
#include "lisa/pipeline.hpp"
#include "minilang/sema.hpp"

namespace lisa {
namespace {

std::string formula_text(const smt::FormulaPtr& f) {
  return f != nullptr ? f->to_string() : "<null>";
}

void render_run(const std::string& test, const concolic::RunResult& run, std::ostream& out) {
  out << "    test " << test << " passed=" << run.test_passed
      << " branches=" << run.branches_total << "/" << run.branches_recorded
      << " stmts=" << run.stmts_executed << " hits=" << run.hits.size() << "\n";
  for (const concolic::TargetHit& hit : run.hits) {
    out << "      hit stmt=" << hit.stmt_id << " fn=" << hit.function << " chain=";
    for (std::size_t i = 0; i < hit.call_chain.size(); ++i)
      out << (i > 0 ? ">" : "") << hit.call_chain[i];
    out << " instantiable=" << hit.instantiable << " concrete=" << hit.concrete_violation
        << " symbolic=" << hit.symbolic_violation << "\n";
    out << "        pi: " << formula_text(hit.trace_condition) << "\n";
    out << "        P: " << formula_text(hit.instantiated_contract) << "\n";
    if (!hit.witness.empty()) out << "        witness: " << hit.witness << "\n";
  }
}

void render_version(const corpus::FailureTicket& ticket, const char* version,
                    const std::string& source, bool screened, std::ostream& out) {
  core::CheckOptions options;
  options.static_screen = screened;
  const core::Pipeline pipeline(inference::MockLlmOptions{}, options);
  const core::PipelineResult result = pipeline.run(ticket, source);
  const minilang::Program program = minilang::parse_checked(source);
  for (const core::ContractCheckReport& report : result.reports) {
    if (report.dynamic.selected_tests.empty()) continue;
    const core::SemanticContract* contract = nullptr;
    for (const core::SemanticContract& candidate : result.contracts)
      if (candidate.id == report.contract_id) contract = &candidate;
    ASSERT_NE(contract, nullptr) << report.contract_id;
    out << ticket.case_id << " " << version << (screened ? " screened " : " unscreened ")
        << contract->id << "\n";
    concolic::Engine engine(program);
    concolic::CheckConfig config;
    config.target_fragment = contract->target_fragment;
    config.contract = contract->condition;
    for (const std::string& test : report.dynamic.selected_tests)
      render_run(test, engine.run_test(test, config), out);
  }
}

TEST(ConcolicGolden, CorpusReplayMatchesGolden) {
  std::ostringstream actual;
  for (const corpus::FailureTicket& ticket : corpus::Corpus::all()) {
    for (const bool screened : {true, false}) {
      render_version(ticket, "buggy", ticket.buggy_source, screened, actual);
      render_version(ticket, "patched", ticket.patched_source, screened, actual);
      if (!ticket.latest_source.empty())
        render_version(ticket, "latest", ticket.latest_source, screened, actual);
    }
  }
  std::ifstream golden_file(LISA_TESTS_DIR "/golden/concolic_runs.txt");
  std::stringstream golden;
  golden << golden_file.rdbuf();
  if (actual.str() != golden.str()) {
    std::ofstream("concolic_runs.actual") << actual.str();
    FAIL() << "concolic replay differs from tests/golden/concolic_runs.txt; the actual "
              "rendering is in concolic_runs.actual";
  }
}

}  // namespace
}  // namespace lisa
