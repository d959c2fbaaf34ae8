// Tests for the bytecode compiler and VM, including differential checks
// against the tree-walking interpreter (the reference semantics) over the
// whole incident corpus.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>

#include "corpus/ticket.hpp"
#include "minilang/compiler.hpp"
#include "minilang/interp.hpp"
#include "minilang/sema.hpp"
#include "minilang/vm.hpp"

namespace lisa::minilang {
namespace {

struct Compiled {
  Program program;
  Module module;
};

Compiled compile_source(const std::string& source) {
  Compiled out{parse_checked(source), {}};
  out.module = compile(out.program);
  return out;
}

Value vm_call(const Compiled& compiled, const std::string& fn, std::vector<Value> args = {}) {
  Vm vm(compiled.module);
  return vm.call(fn, std::move(args));
}

TEST(Vm, ArithmeticAndLocals) {
  const Compiled c = compile_source(
      "fn main() -> int { let a = 6; let b = 7; let s = a * b; return s - 2; }");
  EXPECT_EQ(vm_call(c, "main").as_int(), 40);
}

TEST(Vm, BranchesAndLoops) {
  const Compiled c = compile_source(R"(
fn collatz_steps(n: int) -> int {
  let steps = 0;
  let x = n;
  while (x != 1) {
    if (x % 2 == 0) {
      x = x / 2;
    } else {
      x = 3 * x + 1;
    }
    steps = steps + 1;
  }
  return steps;
}
)");
  EXPECT_EQ(vm_call(c, "collatz_steps", {Value::of_int(6)}).as_int(), 8);
  EXPECT_EQ(vm_call(c, "collatz_steps", {Value::of_int(1)}).as_int(), 0);
}

TEST(Vm, ShortCircuitDoesNotEvaluateRhs) {
  const Compiled c = compile_source(
      "fn main() -> bool { let x = 0; return x != 0 && 10 / x > 1; }");
  EXPECT_FALSE(vm_call(c, "main").as_bool());
}

TEST(Vm, BreakAndContinue) {
  const Compiled c = compile_source(R"(
fn main() -> int {
  let total = 0;
  let i = 0;
  while (true) {
    i = i + 1;
    if (i > 10) { break; }
    if (i % 2 == 0) { continue; }
    total = total + i;
  }
  return total;
}
)");
  EXPECT_EQ(vm_call(c, "main").as_int(), 25);
}

TEST(Vm, StructsFieldsAndReferenceSemantics) {
  const Compiled c = compile_source(R"(
struct P { x: int; tags: list<string>; }
fn bump(p: P) { p.x = p.x + 1; }
fn main() -> int {
  let p = new P { x: 3 };
  bump(p);
  push(p.tags, "a");
  push(p.tags, "b");
  return p.x * 100 + len(p.tags);
}
)");
  EXPECT_EQ(vm_call(c, "main").as_int(), 402);
}

TEST(Vm, ExceptionsTryCatchAcrossCalls) {
  const Compiled c = compile_source(R"(
fn inner(n: int) -> int {
  if (n > 2) { throw "too big: " + n; }
  return n * 10;
}
fn middle(n: int) -> int { return inner(n) + 1; }
fn main(n: int) -> string {
  try {
    let v = middle(n);
    return "ok " + v;
  } catch (e) {
    return "caught " + e;
  }
}
)");
  EXPECT_EQ(vm_call(c, "main", {Value::of_int(2)}).as_string(), "ok 21");
  EXPECT_EQ(vm_call(c, "main", {Value::of_int(5)}).as_string(), "caught too big: 5");
}

TEST(Vm, UncaughtThrowEscapesAndVmRemainsUsable) {
  const Compiled c = compile_source(R"(
fn boom() { throw "kaboom"; }
fn fine() -> int { return 7; }
)");
  Vm vm(c.module);
  EXPECT_THROW(vm.call("boom", {}), MiniThrow);
  EXPECT_EQ(vm.call("fine", {}).as_int(), 7);
}

TEST(Vm, NullDerefUnwindsToHandler) {
  const Compiled c = compile_source(R"(
struct S { x: int; }
fn main() -> string {
  let s: S? = null;
  try {
    return "got " + s.x;
  } catch (e) {
    return "npe";
  }
}
)");
  EXPECT_EQ(vm_call(c, "main").as_string(), "npe");
}

TEST(Vm, DivideByZeroUnwinds) {
  const Compiled c = compile_source(R"(
fn main(d: int) -> int {
  try {
    return 10 / d;
  } catch (e) {
    return 0 - 1;
  }
}
)");
  EXPECT_EQ(vm_call(c, "main", {Value::of_int(2)}).as_int(), 5);
  EXPECT_EQ(vm_call(c, "main", {Value::of_int(0)}).as_int(), -1);
}

// `/` and `%` go through one checked helper in both engines: a zero divisor
// and INT64_MIN / -1 raise a catchable ArithmeticException instead of
// trapping, and every result agrees with the interpreter.
TEST(Vm, DivisionAgreesWithInterpreterAtTheEdges) {
  const Compiled c = compile_source(R"(
fn div(a: int, b: int) -> string {
  try {
    return str(a / b);
  } catch (e) {
    return e;
  }
}
fn mod(a: int, b: int) -> string {
  try {
    return str(a % b);
  } catch (e) {
    return e;
  }
}
)");
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> operands[] = {
      {kMin, -1}, {kMin, 1}, {kMin, kMin}, {kMax, -1}, {7, -2}, {-7, 2}, {5, 0}, {kMin, 0}};
  for (const auto& [a, b] : operands) {
    for (const char* fn : {"div", "mod"}) {
      Interp interp(c.program);
      const Value expected = interp.call(fn, {Value::of_int(a), Value::of_int(b)});
      EXPECT_EQ(vm_call(c, fn, {Value::of_int(a), Value::of_int(b)}).as_string(),
                expected.as_string())
          << fn << "(" << a << ", " << b << ")";
    }
  }
  Interp interp(c.program);
  EXPECT_EQ(interp.call("div", {Value::of_int(kMin), Value::of_int(-1)}).as_string(),
            "ArithmeticException: overflow");
  EXPECT_EQ(interp.call("mod", {Value::of_int(kMin), Value::of_int(-1)}).as_string(), "0");
  EXPECT_EQ(interp.call("div", {Value::of_int(5), Value::of_int(0)}).as_string(),
            "ArithmeticException: divide by zero");
}

TEST(Vm, SyncDepthRestoredOnReturnAndThrow) {
  const Compiled c = compile_source(R"(
struct L { id: int; }
fn leaves_sync_by_return(l: L) -> int {
  sync (l) {
    return 1;
  }
}
fn leaves_sync_by_throw(l: L) {
  sync (l) {
    throw "out";
  }
}
fn main() -> int {
  let l = new L { id: 1 };
  let a = leaves_sync_by_return(l);
  try {
    leaves_sync_by_throw(l);
  } catch (e) {
    a = a + 1;
  }
  // If sync depth leaked, this blocking call would look "inside sync".
  write_record(l, "x");
  return a;
}
)");
  struct DepthCheck : ExecObserver {
    int max_depth = 0;
    void on_blocking(const std::string&, int sync_depth) override {
      max_depth = std::max(max_depth, sync_depth);
    }
  } check;
  Vm vm(c.module);
  vm.set_observer(&check);
  EXPECT_EQ(vm.call("main", {}).as_int(), 2);
  EXPECT_EQ(check.max_depth, 0);
}

TEST(Vm, BreakOutOfSyncInsideLoopBalances) {
  const Compiled c = compile_source(R"(
struct L { id: int; }
fn main() -> int {
  let l = new L { id: 1 };
  let i = 0;
  while (i < 5) {
    sync (l) {
      if (i == 2) { break; }
    }
    i = i + 1;
  }
  write_record(l, "after");
  return i;
}
)");
  struct DepthCheck : ExecObserver {
    int depth_at_blocking = -1;
    void on_blocking(const std::string&, int sync_depth) override {
      depth_at_blocking = sync_depth;
    }
  } check;
  Vm vm(c.module);
  vm.set_observer(&check);
  EXPECT_EQ(vm.call("main", {}).as_int(), 2);
  EXPECT_EQ(check.depth_at_blocking, 0);
}

TEST(Vm, FuelLimitStopsRunaways) {
  const Compiled c = compile_source("fn main() { while (true) { advance_clock(1); } }");
  Vm vm(c.module);
  vm.set_fuel(50'000);
  EXPECT_THROW(vm.call("main", {}), InterpError);
}

TEST(Vm, VirtualClockAndBlockingLatency) {
  const Compiled c = compile_source(R"(
fn main() -> int {
  let t0 = now();
  advance_clock(100);
  fsync_log(t0);
  return now() - t0;
}
)");
  Vm vm(c.module);
  vm.set_blocking_latency_ms(9);
  EXPECT_EQ(vm.call("main", {}).as_int(), 109);
}

TEST(Vm, DisassemblerListsInstructions) {
  const Compiled c = compile_source("fn f(x: int) -> int { return x + 1; }");
  const std::string listing = disassemble(c.module, c.module.chunks[0]);
  EXPECT_NE(listing.find("fn f"), std::string::npos);
  EXPECT_NE(listing.find("add"), std::string::npos);
  EXPECT_NE(listing.find("return"), std::string::npos);
}

TEST(Vm, BreakJumpsPastTryPopBalancesHandlers) {
  // `break` inside a try inside a loop must unwind the handler it skips;
  // otherwise a later throw would resurrect the dead handler.
  const Compiled c = compile_source(R"(
fn main() -> string {
  let i = 0;
  while (i < 3) {
    try {
      if (i == 1) { break; }
    } catch (e) {
      return "inner caught: " + e;
    }
    i = i + 1;
  }
  throw "after loop";
}
)");
  Vm vm(c.module);
  try {
    vm.call("main", {});
    ADD_FAILURE() << "expected MiniThrow";
  } catch (const MiniThrow& thrown) {
    // Must escape uncaught — NOT be caught by the loop's stale handler.
    EXPECT_EQ(thrown.value().as_string(), "after loop");
  }
}

TEST(Vm, ContinueInsideSyncBalancesMonitors) {
  const Compiled c = compile_source(R"(
struct L { id: int; }
fn main() -> int {
  let l = new L { id: 1 };
  let i = 0;
  let work = 0;
  while (i < 4) {
    i = i + 1;
    sync (l) {
      if (i % 2 == 0) { continue; }
      work = work + 1;
    }
  }
  fsync_log(l);
  return work;
}
)");
  struct DepthCheck : ExecObserver {
    int depth_at_blocking = -1;
    void on_blocking(const std::string&, int sync_depth) override {
      depth_at_blocking = sync_depth;
    }
  } check;
  Vm vm(c.module);
  vm.set_observer(&check);
  EXPECT_EQ(vm.call("main", {}).as_int(), 2);
  EXPECT_EQ(check.depth_at_blocking, 0);  // monitors released by continue
}

TEST(Vm, NestedTryRethrowReachesOuter) {
  const Compiled c = compile_source(R"(
fn main() -> string {
  try {
    try {
      throw "inner";
    } catch (e) {
      throw "re: " + e;
    }
  } catch (e2) {
    return e2;
  }
}
)");
  EXPECT_EQ(vm_call(c, "main").as_string(), "re: inner");
}

TEST(Vm, HandlerInCallerCatchesCalleeThrow) {
  const Compiled c = compile_source(R"(
fn deep(n: int) -> int {
  if (n == 0) { throw "bottom"; }
  return deep(n - 1);
}
fn main() -> string {
  try {
    deep(5);
    return "no throw";
  } catch (e) {
    return "caught " + e;
  }
}
)");
  EXPECT_EQ(vm_call(c, "main").as_string(), "caught bottom");
}

TEST(Vm, ReturnInsideTryDropsFrameHandlers) {
  const Compiled c = compile_source(R"(
fn leaves_try() -> int {
  try {
    return 1;
  } catch (e) {
    return 2;
  }
}
fn main() -> string {
  let v = leaves_try();
  throw "escape " + v;
}
)");
  Vm vm(c.module);
  try {
    vm.call("main", {});
    ADD_FAILURE() << "expected MiniThrow";
  } catch (const MiniThrow& thrown) {
    EXPECT_EQ(thrown.value().as_string(), "escape 1");
  }
}

// ---------------------------------------------------------------------------
// Differential: the VM must agree with the interpreter on the full corpus.
// ---------------------------------------------------------------------------

class CorpusDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusDifferential, VmMatchesInterpreterOnAllTests) {
  const corpus::FailureTicket* ticket = corpus::Corpus::find(GetParam());
  ASSERT_NE(ticket, nullptr);
  for (const std::string* source :
       {&ticket->buggy_source, &ticket->patched_source, &ticket->latest_source}) {
    if (source->empty()) continue;
    const Program program = parse_checked(*source);
    const Module module = compile(program);
    for (const FuncDecl* test : program.functions_with("test")) {
      Interp interp(program);
      Vm vm(module);
      const bool interp_ok = interp.run_test(test->name);
      const bool vm_ok = vm.run_test(test->name);
      EXPECT_EQ(interp_ok, vm_ok) << ticket->case_id << " " << test->name << "\ninterp: "
                                  << interp.last_error() << "\nvm: " << vm.last_error();
      EXPECT_EQ(interp.take_output(), vm.take_output())
          << ticket->case_id << " " << test->name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, CorpusDifferential, ::testing::ValuesIn([] {
                           std::vector<std::string> ids;
                           for (const auto& ticket : corpus::Corpus::all())
                             ids.push_back(ticket.case_id);
                           return ids;
                         }()));

}  // namespace
}  // namespace lisa::minilang
