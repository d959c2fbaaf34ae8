// Schedule exploration: serial replay blindness, witness determinism,
// budget exhaustion as typed inconclusives, chaos injection, the gate
// policy that an undrained schedule space blocks a commit, and the fiber
// scheduler's parity with the OS-thread scheduler it replaced.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "concolic/schedule.hpp"
#include "corpus/ticket.hpp"
#include "inference/mock_llm.hpp"
#include "lisa/checker.hpp"
#include "lisa/ci_gate.hpp"
#include "lisa/contract.hpp"
#include "minilang/interp.hpp"
#include "minilang/sema.hpp"
#include "obs/provenance.hpp"
#include "support/budget.hpp"
#include "support/faultpoint.hpp"

namespace {

using namespace lisa;

const corpus::FailureTicket& ticket_or_die(const std::string& case_id) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find(case_id);
  EXPECT_NE(ticket, nullptr) << case_id;
  return *ticket;
}

/// The three schedule-explored corpus cases (two atomicity, one liveness).
const std::vector<std::string>& explored_case_ids() {
  static const std::vector<std::string> ids{
      "zk-session-close-race", "hbase-counter-race", "cass-flush-notify"};
  return ids;
}

TEST(ScheduleWitness, CompactRoundTripPreservesEveryField) {
  concolic::ScheduleWitness witness;
  witness.test = "test_concurrent_increments_all_land";
  witness.seed = 0x5eedULL + 17;
  witness.decisions = {0, 0, 1, 1, 2, 2, 1};
  witness.outcome = "assert-failure";
  witness.detail = "assertion failed: no increment lost; schedule [0,0,1]";
  const concolic::ScheduleWitness loaded =
      concolic::ScheduleWitness::from_compact(witness.to_compact());
  EXPECT_EQ(loaded.test, witness.test);
  EXPECT_EQ(loaded.seed, witness.seed);
  EXPECT_EQ(loaded.decisions, witness.decisions);
  EXPECT_EQ(loaded.outcome, witness.outcome);
  // detail is the last field, so free-form text (even with ';') survives.
  EXPECT_EQ(loaded.detail, witness.detail);
  EXPECT_EQ(loaded.to_compact(), witness.to_compact());
}

TEST(ScheduleExplorer, CatchesAtomicityBugsSerialReplayMisses) {
  // The central claim: on every buggy schedule-explored case the embedded
  // tests pass under serial replay (one interleaving, spawn runs inline),
  // yet the explorer finds a violating schedule and captures a witness.
  for (const std::string& case_id : explored_case_ids()) {
    const corpus::FailureTicket& ticket = ticket_or_die(case_id);
    const minilang::Program program = minilang::parse_checked(ticket.buggy_source);

    minilang::Interp serial(program);
    const auto [passed, failed] = serial.run_all_tests();
    EXPECT_GT(passed, 0) << case_id;
    EXPECT_EQ(failed, 0) << case_id << ": serial replay should be blind — "
                         << serial.last_error();

    concolic::ScheduleExplorer explorer(program, {});
    const concolic::ScheduleExplorationResult result = explorer.explore();
    EXPECT_TRUE(result.violation_found) << case_id;
    ASSERT_FALSE(result.witnesses.empty()) << case_id;
    const concolic::ScheduleWitness& witness = result.witnesses.front();
    EXPECT_FALSE(witness.test.empty()) << case_id;
    EXPECT_FALSE(witness.decisions.empty()) << case_id;
    EXPECT_TRUE(witness.outcome == "assert-failure" || witness.outcome == "hang")
        << case_id << ": " << witness.outcome;
  }
}

TEST(ScheduleExplorer, PatchedCasesExploreConclusivelyWithNoViolation) {
  for (const std::string& case_id : explored_case_ids()) {
    const corpus::FailureTicket& ticket = ticket_or_die(case_id);
    const minilang::Program program = minilang::parse_checked(ticket.patched_source);
    concolic::ScheduleExplorer explorer(program, {});
    const concolic::ScheduleExplorationResult result = explorer.explore();
    EXPECT_FALSE(result.violation_found) << case_id;
    EXPECT_TRUE(result.conclusive) << case_id << ": " << result.inconclusive_reason;
    EXPECT_GT(result.schedules_explored, 1) << case_id;
    EXPECT_GT(result.tests_with_threads, 0) << case_id;
  }
}

TEST(ScheduleExplorer, MissedNotifyManifestsAsHangWitness) {
  const corpus::FailureTicket& ticket = ticket_or_die("cass-flush-notify");
  const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
  concolic::ScheduleExplorer explorer(program, {});
  const concolic::ScheduleExplorationResult result = explorer.explore();
  ASSERT_FALSE(result.witnesses.empty());
  EXPECT_EQ(result.witnesses.front().outcome, "hang");
  EXPECT_NE(result.witnesses.front().detail.find("waiting"), std::string::npos)
      << result.witnesses.front().detail;
}

/// Records the interleaved execution as "t<id>:<function>:<line>;" so two
/// replays can be compared byte-for-byte.
class TraceRecorder final : public minilang::ExecObserver {
 public:
  void attach(minilang::Interp* interp) { interp_ = interp; }
  void on_stmt(const minilang::FuncDecl& fn, const minilang::Stmt& stmt) override {
    trace_ += "t" + std::to_string(interp_->current_thread_id()) + ":" + fn.name +
              ":" + std::to_string(stmt.loc.line) + ";";
  }
  [[nodiscard]] const std::string& trace() const { return trace_; }

 private:
  minilang::Interp* interp_ = nullptr;
  std::string trace_;
};

TEST(ScheduleExplorer, WitnessReplayIsByteIdenticalAcrossFiftyRuns) {
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
  concolic::ScheduleExplorer explorer(program, {});
  const concolic::ScheduleExplorationResult explored = explorer.explore();
  ASSERT_FALSE(explored.witnesses.empty());
  const concolic::ScheduleWitness& witness = explored.witnesses.front();

  std::string first_trace;
  std::string first_error;
  for (int run = 0; run < 50; ++run) {
    TraceRecorder recorder;
    const minilang::ScheduleRunResult result =
        explorer.replay(witness, [&](minilang::Interp& interp) {
          recorder.attach(&interp);
          interp.set_observer(&recorder);
        });
    // The witness re-derives the identical failing trace, every time.
    EXPECT_FALSE(result.test_passed) << "run " << run;
    EXPECT_EQ(result.error, witness.detail) << "run " << run;
    if (run == 0) {
      first_trace = recorder.trace();
      first_error = result.error;
      EXPECT_FALSE(first_trace.empty());
    } else {
      ASSERT_EQ(recorder.trace(), first_trace) << "run " << run;
      ASSERT_EQ(result.error, first_error) << "run " << run;
    }
  }
}

TEST(ScheduleExplorer, StaleWitnessDegradesDeterministically) {
  // A witness whose decisions no longer apply (recorded against the buggy
  // source, replayed against the patch) falls back to lowest-id scheduling:
  // the run completes and reports "not reproduced" instead of crashing.
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const minilang::Program buggy = minilang::parse_checked(ticket.buggy_source);
  concolic::ScheduleExplorer buggy_explorer(buggy, {});
  const concolic::ScheduleExplorationResult explored = buggy_explorer.explore();
  ASSERT_FALSE(explored.witnesses.empty());

  const minilang::Program patched = minilang::parse_checked(ticket.patched_source);
  concolic::ScheduleExplorer patched_explorer(patched, {});
  const minilang::ScheduleRunResult first =
      patched_explorer.replay(explored.witnesses.front());
  const minilang::ScheduleRunResult second =
      patched_explorer.replay(explored.witnesses.front());
  EXPECT_TRUE(first.test_passed) << first.error;
  EXPECT_EQ(first.test_passed, second.test_passed);
  EXPECT_EQ(first.error, second.error);
  const obs::Narration narration =
      concolic::narrate_schedule(patched, explored.witnesses.front());
  EXPECT_FALSE(narration.reproduced);
  EXPECT_NE(narration.detail.find("stale witness"), std::string::npos)
      << narration.detail;
}

TEST(ScheduleExplorer, NonSpawningTestIsVacuouslyConclusive) {
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
  concolic::ScheduleExplorer explorer(program, {});
  EXPECT_FALSE(explorer.test_spawns("test_single_increment_lands"));
  EXPECT_TRUE(explorer.test_spawns("test_concurrent_increments_all_land"));
  const concolic::ScheduleExplorationResult result =
      explorer.explore_test("test_single_increment_lands");
  EXPECT_TRUE(result.conclusive);
  EXPECT_EQ(result.schedules_explored, 0);
  EXPECT_EQ(result.tests_with_threads, 0);
}

TEST(ScheduleExplorer, BoundExhaustionIsTypedInconclusive) {
  // Too small a bound on a correct program: never a silent pass. The DFS
  // cannot drain the space, the random phase finds nothing, and the result
  // says so in a typed reason.
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const minilang::Program program = minilang::parse_checked(ticket.patched_source);
  concolic::ScheduleExploreOptions options;
  options.max_schedules = 4;
  concolic::ScheduleExplorer explorer(program, options);
  const concolic::ScheduleExplorationResult result = explorer.explore();
  EXPECT_FALSE(result.violation_found);
  EXPECT_FALSE(result.conclusive);
  EXPECT_NE(result.inconclusive_reason.find("not exhausted"), std::string::npos)
      << result.inconclusive_reason;
  EXPECT_LE(result.schedules_explored, 4);
}

TEST(ScheduleExplorer, BudgetExhaustionIsTypedAndCharged) {
  const corpus::FailureTicket& ticket = ticket_or_die("zk-session-close-race");
  const minilang::Program program = minilang::parse_checked(ticket.patched_source);
  support::BudgetLimits limits;
  limits.max_schedules = 3;
  support::Budget budget(limits);
  concolic::ScheduleExploreOptions options;
  options.budget = &budget;
  concolic::ScheduleExplorer explorer(program, options);
  const concolic::ScheduleExplorationResult result = explorer.explore();
  EXPECT_FALSE(result.conclusive);
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(support::budget_resource_name(budget.exhausted_resource()),
            std::string("schedules"));
  EXPECT_EQ(result.inconclusive_reason, budget.exhausted_reason());
  // The denied charge stops exploration before the run happens.
  EXPECT_EQ(result.schedules_explored, 3);
}

TEST(ScheduleExplorer, FaultpointForcesNarratedInconclusive) {
  support::FaultRegistry::instance().configure("schedule.explore=fail");
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
  concolic::ScheduleExplorer explorer(program, {});
  const concolic::ScheduleExplorationResult result = explorer.explore();
  support::FaultRegistry::instance().clear();
  EXPECT_FALSE(result.conclusive);
  EXPECT_FALSE(result.violation_found);
  EXPECT_NE(result.inconclusive_reason.find("fault injected: schedule.explore"),
            std::string::npos)
      << result.inconclusive_reason;
}

TEST(ScheduleNarration, StepsCarryOffMainThreadMarkers) {
  const corpus::FailureTicket& ticket = ticket_or_die("zk-session-close-race");
  const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
  concolic::ScheduleExplorer explorer(program, {});
  const concolic::ScheduleExplorationResult explored = explorer.explore();
  ASSERT_FALSE(explored.witnesses.empty());
  const obs::Narration narration =
      concolic::narrate_schedule(program, explored.witnesses.front());
  EXPECT_EQ(narration.kind, "schedule-replay");
  EXPECT_TRUE(narration.reproduced) << narration.detail;
  ASSERT_FALSE(narration.steps.empty());
  bool off_main = false;
  for (const obs::NarrationStep& step : narration.steps)
    if (step.thread != 0) off_main = true;
  EXPECT_TRUE(off_main);
  EXPECT_NE(narration.detail.find("replayed"), std::string::npos);
}

core::ContractStore contracts_for(const corpus::FailureTicket& ticket) {
  const inference::SemanticsProposal proposal = inference::MockLlm().infer(ticket);
  core::TranslationResult translation = core::translate(proposal, ticket.system);
  core::ContractStore store;
  store.add_all(std::move(translation.contracts));
  return store;
}

TEST(GateSchedule, InconclusiveExplorationBlocksUnlessDowngraded) {
  // Gate policy: an undrained schedule space is "no violation found so far",
  // not a pass. It blocks by default and is downgradable only through the
  // explicit --schedule-warn-only escape hatch (which still flags the run).
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  const core::ContractStore store = contracts_for(ticket);
  core::CheckOptions options;
  options.max_schedules = 4;  // far below the ~1.2k the patch needs
  const core::CiGate gate(options);

  const core::GateDecision blocked = gate.evaluate(ticket.patched_source, store);
  EXPECT_FALSE(blocked.allowed);
  EXPECT_EQ(blocked.schedule_inconclusive, 1);
  bool narrated = false;
  for (const std::string& violation : blocked.violations)
    if (violation.find("schedule exploration inconclusive") != std::string::npos)
      narrated = true;
  EXPECT_TRUE(narrated);

  core::GateRunOptions downgraded;
  downgraded.schedule_warn_only = true;
  const core::GateDecision warned =
      gate.evaluate(ticket.patched_source, store, downgraded);
  EXPECT_TRUE(warned.allowed);
  EXPECT_TRUE(warned.needs_attention);
  EXPECT_EQ(warned.schedule_inconclusive, 1);
}

TEST(GateSchedule, ViolatingInterleavingBlocksWithLedgerRecordedWitness) {
  // Acceptance shape for the whole feature: the buggy commit is blocked, the
  // decision carries the witness, and the ledger's narration replays it.
  const corpus::FailureTicket& ticket = ticket_or_die("zk-session-close-race");
  const core::ContractStore store = contracts_for(ticket);
  obs::ProvenanceLedger ledger;
  core::GateRunOptions run_options;
  run_options.ledger = &ledger;
  const core::GateDecision decision =
      core::CiGate(core::CheckOptions{}).evaluate(ticket.buggy_source, store, run_options);
  EXPECT_FALSE(decision.allowed);
  ASSERT_FALSE(decision.reports.empty());
  const core::ContractCheckReport& report = decision.reports.front();
  EXPECT_GT(report.schedule_violations, 0);
  ASSERT_FALSE(report.schedule_witness.empty());
  const concolic::ScheduleWitness witness =
      concolic::ScheduleWitness::from_compact(report.schedule_witness);
  EXPECT_FALSE(witness.decisions.empty());
  const obs::ContractCapture* capture = ledger.find(report.contract_id);
  ASSERT_NE(capture, nullptr);
  EXPECT_EQ(capture->schedule_witness, report.schedule_witness);
  EXPECT_EQ(capture->narration.kind, "schedule-replay");
  EXPECT_TRUE(capture->narration.reproduced);
}

/// Golden values recorded with the earlier one-OS-thread-per-MiniLang-
/// thread scheduler. The fiber scheduler must reproduce the DFS exactly:
/// the same schedule counts, the same witnesses, the same gate reports.
/// The report sums count one explored contract per program: the other
/// tickets' atomic / eventually contracts have no target in it.
struct ScheduleGolden {
  std::string case_id;
  int buggy_schedules;
  std::string buggy_witness;
  int patched_schedules;
  int buggy_report_sum;    // schedules_explored summed over the gate's reports
  int patched_report_sum;  // (full 24-contract store, as `lisa gate` runs it)
};

const std::vector<ScheduleGolden>& schedule_goldens() {
  static const std::vector<ScheduleGolden> goldens{
      {"zk-session-close-race", 2,
       "test=test_concurrent_create_and_close;seed=0;decisions=0,0,1,1,1,2,2,2;"
       "outcome=assert-failure;detail=assertion failed: no ephemeral survives a closed session",
       32, 2, 32},
      {"hbase-counter-race", 2,
       "test=test_concurrent_increments_all_land;seed=0;decisions=0,0,1,1,2,2,1;"
       "outcome=assert-failure;detail=assertion failed: no increment lost",
       1209, 2, 1209},
      {"cass-flush-notify", 5,
       "test=test_concurrent_signal_wakes_waiter;seed=0;decisions=0,0,1,2,2,1,1;"
       "outcome=hang;detail=schedule hang: no runnable thread; t0 joining t2 waiting on obj:1",
       44, 5, 44},
  };
  return goldens;
}

const core::ContractStore& full_store() {
  static const core::ContractStore store = [] {
    core::ContractStore built;
    for (const corpus::FailureTicket& ticket : corpus::Corpus::all())
      built.add_all(
          core::translate(inference::MockLlm().infer(ticket), ticket.system).contracts);
    return built;
  }();
  return store;
}

int report_schedule_sum(const std::string& source) {
  core::CheckOptions options;
  options.run_concolic = false;  // as `lisa gate` runs it
  int sum = 0;
  for (const core::ContractCheckReport& report :
       core::CiGate(options).evaluate(source, full_store()).reports)
    sum += report.schedules_explored;
  return sum;
}

TEST(ScheduleWitness, OnlyTheContractTargetingTheProgramCarriesTheWitness) {
  // Exploration is contract-blind, so the witness belongs to the program's
  // own race: the other tickets' atomic / eventually contracts have no
  // target statement in it and are vacuous, in the gate and the checker.
  const corpus::FailureTicket& ticket = ticket_or_die("hbase-counter-race");
  core::CheckOptions options;
  options.run_concolic = false;  // as `lisa gate` runs it
  const core::GateDecision decision =
      core::CiGate(options).evaluate(ticket.buggy_source, full_store());
  EXPECT_FALSE(decision.allowed);
  std::vector<std::string> witnessed;
  for (const core::ContractCheckReport& report : decision.reports)
    if (!report.schedule_witness.empty()) witnessed.push_back(report.contract_id);
  EXPECT_EQ(witnessed, std::vector<std::string>{"hbase-counter-race#0"});

  const minilang::Program program = minilang::parse_checked(ticket.buggy_source);
  for (const core::SemanticContract& contract : full_store().all()) {
    if (contract.id != "zk-session-close-race#0" && contract.id != "cass-flush-notify#0")
      continue;
    const core::ContractCheckReport report = core::Checker().check(program, contract, options);
    EXPECT_EQ(report.target_statements, 0u) << contract.id;
    EXPECT_TRUE(report.schedule_witness.empty()) << contract.id;
    EXPECT_EQ(report.schedules_explored, 0) << contract.id;
    EXPECT_TRUE(report.passed()) << contract.id;
    EXPECT_TRUE(report.conclusive()) << contract.id;
  }
}

TEST(ScheduleParity, ExplorationMatchesTheOsThreadSchedulerGoldens) {
  for (const ScheduleGolden& golden : schedule_goldens()) {
    const corpus::FailureTicket& ticket = ticket_or_die(golden.case_id);
    const minilang::Program buggy = minilang::parse_checked(ticket.buggy_source);
    const concolic::ScheduleExplorationResult found =
        concolic::ScheduleExplorer(buggy, {}).explore();
    EXPECT_EQ(found.schedules_explored, golden.buggy_schedules) << golden.case_id;
    ASSERT_EQ(found.witnesses.size(), 1u) << golden.case_id;
    EXPECT_EQ(found.witnesses.front().to_compact(), golden.buggy_witness);

    const minilang::Program patched = minilang::parse_checked(ticket.patched_source);
    const concolic::ScheduleExplorationResult drained =
        concolic::ScheduleExplorer(patched, {}).explore();
    EXPECT_EQ(drained.schedules_explored, golden.patched_schedules) << golden.case_id;
    EXPECT_TRUE(drained.conclusive) << golden.case_id;
    EXPECT_TRUE(drained.witnesses.empty()) << golden.case_id;

    EXPECT_EQ(report_schedule_sum(ticket.buggy_source), golden.buggy_report_sum)
        << golden.case_id;
    EXPECT_EQ(report_schedule_sum(ticket.patched_source), golden.patched_report_sum)
        << golden.case_id;
  }
}

int os_thread_count() {
  int count = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++count;
  }
  return count;
}

/// Rotates through the runnable threads and checks at every decision that
/// the run has not created an OS thread.
class ThreadCountingController final : public minilang::ScheduleController {
 public:
  explicit ThreadCountingController(int expected) : expected_(expected) {}
  int pick(const std::vector<minilang::ThreadStatus>& runnable) override {
    EXPECT_EQ(os_thread_count(), expected_) << "decision " << picks_;
    ++picks_;
    return runnable[static_cast<std::size_t>(picks_) % runnable.size()].thread_id;
  }
  [[nodiscard]] int picks() const { return picks_; }

 private:
  int expected_;
  int picks_ = 0;
};

TEST(ScheduleFibers, ScheduledRunsCreateNoOsThread) {
  const int before = os_thread_count();
  for (const std::string& case_id : explored_case_ids()) {
    const corpus::FailureTicket& ticket = ticket_or_die(case_id);
    for (const std::string* source : {&ticket.buggy_source, &ticket.patched_source}) {
      const minilang::Program program = minilang::parse_checked(*source);
      const concolic::ScheduleExplorer explorer(program, {});
      for (const minilang::FuncDecl* test : program.functions_with("test")) {
        if (!explorer.test_spawns(test->name)) continue;
        minilang::Interp interp(program);
        ThreadCountingController controller(before);
        const minilang::ScheduleRunResult run =
            interp.run_scheduled_test(test->name, controller);
        EXPECT_GT(controller.picks(), 0) << case_id << " " << test->name;
        EXPECT_GT(run.switches, 0) << case_id << " " << test->name;
      }
    }
  }
  EXPECT_EQ(os_thread_count(), before);
}

/// Spawned threads throw inside `sync` bodies (the monitor is released on
/// the exception path, which yields) and yield inside MiniLang catch
/// bodies: every fiber switch on these paths happens with no C++ catch
/// handler active.
constexpr const char* kThrowingThreadsSource = R"ml(
struct Ledger { applied: int; handled: int; }

fn apply_then_fail(l: Ledger) {
  try {
    sync (l) {
      l.applied = l.applied + 1;
      throw "apply failed";
    }
  } catch (e) {
    sync (l) {
      let h = l.handled;
      l.handled = h + 1;
    }
  }
}

fn apply_then_count(l: Ledger) {
  try {
    sync (l) {
      l.applied = l.applied + 1;
      throw "apply failed";
    }
  } catch (e) {
    let h = l.handled;
    l.handled = h + 1;
  }
}

fn fail_inside_sync(l: Ledger) {
  sync (l) {
    l.applied = l.applied + 1;
    throw "escaped sync";
  }
}

@test
fn test_every_failed_apply_is_handled() {
  let l = new Ledger { applied: 0, handled: 0 };
  spawn apply_then_fail(l);
  spawn apply_then_fail(l);
  join_all();
  assert(l.applied == 2, "every sync body ran");
  assert(l.handled == 2, "every catch body ran");
}

@test
fn test_unsynchronized_handlers_lose_counts() {
  let l = new Ledger { applied: 0, handled: 0 };
  spawn apply_then_count(l);
  spawn apply_then_count(l);
  join_all();
  assert(l.applied == 2, "every sync body ran");
  assert(l.handled == 2, "no handled count lost");
}

@test
fn test_escaping_throw_fails_the_schedule() {
  let l = new Ledger { applied: 0, handled: 0 };
  spawn fail_inside_sync(l);
  sync (l) {
    l.handled = l.handled + 1;
  }
  join_all();
}
)ml";

TEST(ScheduleFibers, ThrowsInSyncBodiesAndYieldsInCatchBodiesMatchSerialReplay) {
  const minilang::Program program = minilang::parse_checked(kThrowingThreadsSource);
  // Serial-replay oracle: spawned roots run inline, so both tests pass.
  minilang::Interp serial(program);
  EXPECT_TRUE(serial.run_test("test_every_failed_apply_is_handled")) << serial.last_error();
  EXPECT_TRUE(serial.run_test("test_unsynchronized_handlers_lose_counts"))
      << serial.last_error();

  concolic::ScheduleExplorer explorer(program, {});
  // Every interleaving of the synchronized handlers has the serial outcome.
  const concolic::ScheduleExplorationResult safe =
      explorer.explore_test("test_every_failed_apply_is_handled");
  EXPECT_TRUE(safe.conclusive) << safe.inconclusive_reason;
  EXPECT_FALSE(safe.violation_found)
      << (safe.witnesses.empty() ? "" : safe.witnesses.front().to_compact());
  EXPECT_EQ(safe.schedules_explored, 712);  // as under the OS-thread scheduler

  // The unsynchronized handlers lose an update under one interleaving; the
  // witness is the one the OS-thread scheduler found and replays exactly.
  const concolic::ScheduleExplorationResult racy =
      explorer.explore_test("test_unsynchronized_handlers_lose_counts");
  ASSERT_EQ(racy.witnesses.size(), 1u);
  const concolic::ScheduleWitness& witness = racy.witnesses.front();
  EXPECT_EQ(witness.to_compact(),
            "test=test_unsynchronized_handlers_lose_counts;seed=0;"
            "decisions=0,0,1,1,1,1,1,1,2,2,2,2,2,2,1;"
            "outcome=assert-failure;detail=assertion failed: no handled count lost");
  for (int run = 0; run < 3; ++run) {
    const minilang::ScheduleRunResult replayed = explorer.replay(witness);
    EXPECT_FALSE(replayed.test_passed);
    EXPECT_EQ(replayed.error, witness.detail);
  }

  // A throw that escapes a spawned thread's sync body fails the schedule
  // with the exception serial replay reports, tagged with the thread.
  EXPECT_FALSE(serial.run_test("test_escaping_throw_fails_the_schedule"));
  const concolic::ScheduleExplorationResult escaped =
      explorer.explore_test("test_escaping_throw_fails_the_schedule");
  ASSERT_EQ(escaped.witnesses.size(), 1u);
  EXPECT_EQ(escaped.witnesses.front().outcome, "exception");
  EXPECT_EQ(escaped.witnesses.front().detail, "thread t1: " + serial.last_error());
  EXPECT_EQ(escaped.witnesses.front().to_compact(), "test=test_escaping_throw_fails_the_schedule;seed=0;decisions=0,0,0,0,0;"
            "outcome=exception;detail=thread t1: escaped sync");
}

}  // namespace
