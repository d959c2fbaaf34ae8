#include "minilang/interp.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "minilang/builtins.hpp"
#include "minilang/printer.hpp"
#include "support/faultpoint.hpp"

namespace lisa::minilang {

const std::unordered_set<std::string>& blocking_builtins() {
  // Models the serialization / disk / network calls that the ZK-2201 class of
  // incidents performs while holding a monitor.
  static const std::unordered_set<std::string> names = {
      "write_record", "flush_to_disk", "fsync_log", "network_send", "block_io",
  };
  return names;
}

const char* schedule_op_name(ScheduleOp::Kind kind) {
  switch (kind) {
    case ScheduleOp::Kind::kStart: return "start";
    case ScheduleOp::Kind::kSpawn: return "spawn";
    case ScheduleOp::Kind::kSyncEnter: return "sync-enter";
    case ScheduleOp::Kind::kSyncExit: return "sync-exit";
    case ScheduleOp::Kind::kFieldRead: return "field-read";
    case ScheduleOp::Kind::kFieldWrite: return "field-write";
    case ScheduleOp::Kind::kBlocking: return "blocking";
    case ScheduleOp::Kind::kWait: return "wait";
    case ScheduleOp::Kind::kNotify: return "notify";
    case ScheduleOp::Kind::kJoin: return "join";
  }
  return "?";
}

namespace {

/// Unwind signal for threads of a torn-down schedule (deadlock, failure, or
/// early teardown). Deliberately not a MiniThrow/InterpError subtype so no
/// MiniLang `try` or engine catch site can swallow it.
struct ScheduleAborted {};

/// Deterministic monitor identity: object identity for objects, value
/// identity for primitives (two threads syncing on the string "log" contend
/// for the same monitor, matching how the lockset analysis names monitors).
std::string monitor_key_of(const Value& v) {
  if (v.is_object()) return "obj:" + std::to_string(v.as_object()->object_id);
  if (v.is_string()) return "str:" + v.as_string();
  if (v.is_int()) return "int:" + std::to_string(v.as_int());
  return "val:" + v.to_display();
}

/// Fiber stacks: 8 MiB, the size of the default pthread stack they replace,
/// mapped MAP_NORESERVE so that only touched pages cost memory, above a
/// PROT_NONE guard of 64 KiB, a multiple of every Linux page size.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;
constexpr std::size_t kGuardBytes = std::size_t{64} << 10;

/// Most spawned threads alive at once in one scheduled run. Like the call
/// depth limit it bounds what an untrusted program can make the gate
/// allocate: every live thread holds a stack.
constexpr std::size_t kMaxLiveThreads = 64;

/// Stacks of exited fibers, kept per OS thread so that repeated schedules
/// map nothing. Never more than kMaxLiveThreads: a run holds at most that
/// many at once.
struct StackPool {
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  std::vector<char*> free;
  ~StackPool() {
    for (char* stack : free) munmap(stack - kGuardBytes, kGuardBytes + kStackBytes);
  }
};
thread_local StackPool t_stacks;

/// The lowest usable address of a stack, or nullptr when mapping failed.
char* acquire_stack() {
  if (!t_stacks.free.empty()) {
    char* stack = t_stacks.free.back();
    t_stacks.free.pop_back();
    return stack;
  }
  void* base = mmap(nullptr, kGuardBytes + kStackBytes, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (base == MAP_FAILED) return nullptr;
  char* stack = static_cast<char*>(base) + kGuardBytes;
  if (mprotect(stack, kStackBytes, PROT_READ | PROT_WRITE) == 0) return stack;
  munmap(base, kGuardBytes + kStackBytes);
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Cooperative scheduler
// ---------------------------------------------------------------------------
//
// Every spawned MiniLang thread is a stackful fiber (ucontext) on the OS
// thread that called run_scheduled_test; thread 0, the test body, runs on
// that thread's own stack. Exactly one fiber runs at any instant and control
// moves only by a direct swapcontext at a yield point, so the interpreter
// needs no synchronization and a decision sequence fixes the whole run.
// Teardown is sequential: an aborting schedule switches through every
// remaining thread in id order so that each unwinds its frames, then
// returns to thread 0.
//
// No fiber switches while inside a C++ catch handler: the runtime keeps its
// caught-exception stack per OS thread, so two fibers interleaving their
// handlers would end each other's exceptions.
class Interp::Scheduler final : public SchedulerHooks {
 public:
  enum class TState { kRunnable, kBlockedMonitor, kWaiting, kNotified, kJoining };

  struct TRec {
    int id = 0;
    TState state = TState::kRunnable;
    ScheduleOp pending;       // the operation this thread performs when scheduled
    std::string blocked_on;   // monitor key for kBlockedMonitor/kWaiting/kNotified
    int wait_depth = 0;       // reentry depth to restore when a wait() resumes
    Interp::ThreadCtx ctx;
    Scheduler* owner = nullptr;
    const FuncDecl* root = nullptr;  // spawned thread root and its arguments
    std::vector<Value> args;
    char* stack = nullptr;    // fiber stack; null for thread 0 (the caller's stack)
    ucontext_t uc{};          // registers while switched out
    const void* stack_bottom = nullptr;  // bounds for ASan; thread 0 learns its own
    std::size_t stack_size = kStackBytes;
    void* tsan_fiber = nullptr;
  };

  Scheduler(Interp& interp, ScheduleController& controller)
      : interp_(interp), controller_(controller), saved_ctx_(interp.ctx_) {
    auto main_rec = std::make_unique<TRec>();
    main_rec->pending = {ScheduleOp::Kind::kStart, ""};
#if defined(__SANITIZE_THREAD__)
    main_rec->tsan_fiber = __tsan_get_current_fiber();
#endif
    live_.push_back(main_rec.get());
    threads_.push_back(std::move(main_rec));
    interp_.ctx_ = &threads_[0]->ctx;
  }

  ~Scheduler() override {
    finalize_teardown();
    interp_.ctx_ = saved_ctx_;
  }

  // --- yield points (called by the running thread) --------------------------

  void yield(ScheduleOp op) {
    TRec& self = current();
    self.pending = std::move(op);
    reschedule(self);
  }

  void spawn(const FuncDecl& fn, std::vector<Value> args) {
    TRec& self = current();
    if (live_.size() > kMaxLiveThreads)  // live_ also holds thread 0
      throw InterpError("thread limit exceeded: spawn " + fn.name + " with " +
                        std::to_string(kMaxLiveThreads) + " spawned threads alive");
    auto rec = std::make_unique<TRec>();
    if (support::faultpoint("interp.thread_stack") == support::FaultAction::kNone)
      rec->stack = acquire_stack();
    if (rec->stack == nullptr) throw InterpError("cannot map a stack to spawn " + fn.name);
    rec->id = rec->ctx.id = static_cast<int>(threads_.size());
    rec->pending = {ScheduleOp::Kind::kStart, fn.name};
    rec->owner = this;
    rec->root = &fn;
    rec->args = std::move(args);
    rec->stack_bottom = rec->stack;
    getcontext(&rec->uc);
    rec->uc.uc_stack.ss_sp = rec->stack;
    rec->uc.uc_stack.ss_size = kStackBytes;
    const auto bits = reinterpret_cast<std::uintptr_t>(rec.get());
    makecontext(&rec->uc, reinterpret_cast<void (*)()>(&fiber_entry), 2,
                static_cast<unsigned>(bits >> 32), static_cast<unsigned>(bits));
#if defined(__SANITIZE_THREAD__)
    rec->tsan_fiber = __tsan_create_fiber(0);
#endif
    live_.push_back(rec.get());
    threads_.push_back(std::move(rec));
    ++result_.threads_spawned;
    self.pending = {ScheduleOp::Kind::kSpawn, fn.name};
    reschedule(self);
  }

  void sync_enter(const std::string& key) {
    TRec& self = current();
    self.pending = {ScheduleOp::Kind::kSyncEnter, "m:" + key};
    for (;;) {
      reschedule(self);  // preemption point before acquisition
      const auto it = monitors_.find(key);
      if (it == monitors_.end()) {
        monitors_[key] = {self.id, 1};
        break;
      }
      if (it->second.first == self.id) {
        ++it->second.second;  // reentrant acquisition
        break;
      }
      self.state = TState::kBlockedMonitor;
      self.blocked_on = key;
    }
    self.state = TState::kRunnable;
    self.blocked_on.clear();
  }

  void sync_exit(const std::string& key) {
    TRec& self = current();
    const auto it = monitors_.find(key);
    if (it != monitors_.end() && it->second.first == self.id && --it->second.second == 0)
      monitors_.erase(it);
    self.pending = {ScheduleOp::Kind::kSyncExit, "m:" + key};
    reschedule(self);
  }

  // --- builtin-reachable operations (SchedulerHooks) -----------------------

  void wait_on(const Value& monitor) override {
    const std::string key = monitor_key_of(monitor);
    TRec& self = current();
    // First a *runnable* yield before joining the waitset: this is the
    // check-to-wait window. A notify scheduled into it finds no waiter and
    // is lost — the missed-notify failure mode; without this gap the
    // preceding guard read and the wait would be one uninterrupted step.
    self.pending = {ScheduleOp::Kind::kWait, "m:" + key};
    reschedule(self);
    // Release the monitor fully if held, remembering the depth to restore on
    // wakeup. Waiting *without* holding the monitor is deliberately allowed:
    // that unguarded check-then-wait is exactly the missed-notify bug shape
    // the corpus models (Java would throw IllegalMonitorStateException).
    self.wait_depth = 0;
    const auto it = monitors_.find(key);
    if (it != monitors_.end() && it->second.first == self.id) {
      self.wait_depth = it->second.second;
      monitors_.erase(it);
    }
    self.state = TState::kWaiting;
    self.blocked_on = key;
    self.pending = {ScheduleOp::Kind::kWait, "m:" + key};
    reschedule(self);
    // Resumed: a notify moved us to kNotified and the runnable test held the
    // monitor free, so reacquisition at the remembered depth cannot fail.
    if (self.wait_depth > 0) monitors_[key] = {self.id, self.wait_depth};
    self.state = TState::kRunnable;
    self.blocked_on.clear();
    self.wait_depth = 0;
  }

  void notify(const Value& monitor, bool all) override {
    const std::string key = monitor_key_of(monitor);
    TRec& self = current();
    // Wake waiters in thread-id order (deterministic FIFO). A notify with no
    // waiter is lost — the missed-notify failure mode, not an error.
    for (TRec* rec : live_) {
      if (rec->state == TState::kWaiting && rec->blocked_on == key) {
        rec->state = TState::kNotified;
        if (!all) break;
      }
    }
    self.pending = {ScheduleOp::Kind::kNotify, "m:" + key};
    reschedule(self);
  }

  void join_all() override {
    TRec& self = current();
    self.pending = {ScheduleOp::Kind::kJoin, ""};
    while (unfinished_other_count(self.id) > 0) {
      self.state = TState::kJoining;
      reschedule(self);
      self.state = TState::kRunnable;
    }
  }

  /// Tears down stragglers and returns the outcome. Called on thread 0 by
  /// run_scheduled_test after the test body has unwound.
  ScheduleRunResult finalize() {
    finalize_teardown();
    return result_;
  }

 private:
  TRec& current() { return *threads_[static_cast<std::size_t>(active_)]; }

  /// Unfinished threads other than `self_id`.
  [[nodiscard]] int unfinished_other_count(int self_id) const {
    int count = 0;
    for (const TRec* rec : live_)
      if (rec->id != self_id) ++count;
    return count;
  }

  [[nodiscard]] bool runnable(const TRec& t) const {
    switch (t.state) {
      case TState::kRunnable:
        return true;
      case TState::kBlockedMonitor: {
        const auto it = monitors_.find(t.blocked_on);
        return it == monitors_.end() || it->second.first == t.id;
      }
      case TState::kNotified: {
        if (t.wait_depth == 0) return true;
        return monitors_.find(t.blocked_on) == monitors_.end();
      }
      case TState::kJoining:
        return unfinished_other_count(t.id) == 0;
      case TState::kWaiting:
        return false;
    }
    return false;
  }

  static const char* state_name(TState state) {
    switch (state) {
      case TState::kRunnable: return "runnable";
      case TState::kBlockedMonitor: return "blocked";
      case TState::kWaiting: return "waiting";
      case TState::kNotified: return "notified";
      case TState::kJoining: return "joining";
    }
    return "?";
  }

  void record_hang() {
    result_.hung = true;
    std::string detail = "schedule hang: no runnable thread;";
    for (const TRec* rec : live_) {
      detail += " t" + std::to_string(rec->id) + " " + state_name(rec->state);
      if (!rec->blocked_on.empty()) detail += " on " + rec->blocked_on;
    }
    if (result_.error.empty()) result_.error = detail;
  }

  /// The thread to unwind next in a teardown: the lowest-id unfinished
  /// thread other than `self_id`, or thread 0 (the caller's native context)
  /// when nobody is left.
  [[nodiscard]] int abort_next(int self_id) const {
    for (const TRec* rec : live_)
      if (rec->id != self_id) return rec->id;
    return 0;
  }

  /// Picks the thread that runs after `self_id` yields or exits, consulting
  /// the controller only when the choice is real. A hang or a pruned run
  /// starts the teardown and returns the first thread to unwind.
  int choose_next(int self_id) {
    std::vector<ThreadStatus> runnable_now;  // live_ is in id order already
    for (const TRec* rec : live_)
      if (runnable(*rec)) runnable_now.push_back({rec->id, rec->pending});
    if (runnable_now.empty()) {
      // Deadlock or missed notify: unfinished threads, none can proceed.
      if (!live_.empty()) {
        record_hang();
        aborting_ = true;
      }
      return abort_next(self_id);
    }
    int next = runnable_now.front().thread_id;
    if (runnable_now.size() > 1) {
      ++result_.decisions;
      const int picked = controller_.pick(runnable_now);
      if (picked == ScheduleController::kPruneRun) {
        // The controller proved this interleaving redundant: tear the
        // schedule down with no verdict (sequential, like a hang abort).
        result_.pruned = true;
        aborting_ = true;
        return abort_next(self_id);
      }
      for (const ThreadStatus& status : runnable_now)
        if (status.thread_id == picked) next = picked;
    }
    // Every grant is observed, even a forced single-runnable one, so
    // sleep-set wake rules see the complete op stream.
    for (const ThreadStatus& status : runnable_now)
      if (status.thread_id == next) controller_.observe(status);
    return next;
  }

  /// Core handoff: choose the next thread and switch to it; returns when
  /// some thread switches back to `self`. Throws ScheduleAborted when the
  /// schedule is being torn down.
  void reschedule(TRec& self) {
    if (aborting_) throw ScheduleAborted{};
    const int next = choose_next(self.id);
    if (next != self.id) transfer(self, next, /*exiting=*/false);
    if (aborting_) throw ScheduleAborted{};
  }

  /// Suspends `from` and resumes thread `to`. An exiting fiber is never
  /// resumed; its stack returns to the pool once `to` runs.
  void transfer(TRec& from, int to, bool exiting) {
    active_ = to;
    TRec& target = *threads_[static_cast<std::size_t>(to)];
    interp_.ctx_ = &target.ctx;
    ++result_.switches;
    switched_from_ = &from;
    from_exited_ = exiting;
    void* fake_stack = nullptr;
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(exiting ? nullptr : &fake_stack, target.stack_bottom,
                                   target.stack_size);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(target.tsan_fiber, 0);
#endif
    swapcontext(&from.uc, &target.uc);
    arrived(fake_stack);
  }

  /// First step after every switch: completes the sanitizer handshake and
  /// recycles the stack of a fiber that has just exited.
  void arrived([[maybe_unused]] void* fake_stack) {
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, &switched_from_->stack_bottom,
                                    &switched_from_->stack_size);
#endif
    if (!from_exited_) return;
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(switched_from_->tsan_fiber);
#endif
    t_stacks.free.push_back(switched_from_->stack);
    threads_[static_cast<std::size_t>(switched_from_->id)].reset();
    from_exited_ = false;
  }

  /// Entry of every spawned fiber; makecontext passes the TRec pointer as
  /// two 32-bit halves. Ends in a switch away that never returns.
  static void fiber_entry(unsigned high, unsigned low) {
    auto* self = reinterpret_cast<TRec*>(std::uintptr_t{high} << 32 | low);
    Scheduler& sched = *self->owner;
    sched.arrived(nullptr);
    sched.transfer(*self, sched.thread_main(*self), /*exiting=*/true);
  }

  /// Runs a spawned thread's root and returns the thread to switch to next.
  /// The outcome is settled after the catch handlers have exited.
  int thread_main(TRec& self) {
    bool failed = false;
    std::string error;
    if (!aborting_) {  // a thread first entered by a teardown never runs
      try {
        interp_.call_function<Value>(*self.root, std::move(self.args));
      } catch (const ScheduleAborted&) {
        // Torn down mid-run; the teardown continues below.
      } catch (const MiniThrow& thrown) {
        failed = true;
        error = "thread t" + std::to_string(self.id) + ": " + thrown.value().to_display();
      } catch (const StepLimitExceeded& limit) {
        failed = true;
        result_.degraded = true;
        error = limit.what();
      } catch (const InterpError& engine_error) {
        failed = true;
        error = "thread t" + std::to_string(self.id) + ": " + engine_error.what();
      }
    }
    std::erase(live_, &self);
    if (failed) {
      // A failing thread decides the schedule: record it and stop scheduling
      // (sequential teardown unwinds the remaining threads one at a time).
      if (result_.error.empty()) result_.error = error;
      aborting_ = true;
    }
    return aborting_ ? abort_next(self.id) : choose_next(self.id);
  }

  /// Tears down any still-running threads (the exception paths) by
  /// switching through them from thread 0. Idempotent; called by finalize()
  /// and the destructor.
  void finalize_teardown() {
    TRec& main = *threads_[0];
    std::erase(live_, &main);  // the main thread has unwound
    if (live_.empty()) return;
    aborting_ = true;
    transfer(main, abort_next(0), /*exiting=*/false);
  }

  Interp& interp_;
  ScheduleController& controller_;
  Interp::ThreadCtx* saved_ctx_ = nullptr;
  std::vector<std::unique_ptr<TRec>> threads_;  // index == thread id; null once exited
  std::vector<TRec*> live_;  // unfinished threads in id order: all that is scanned
  std::unordered_map<std::string, std::pair<int, int>> monitors_;  // key -> (owner, depth)
  int active_ = 0;
  bool aborting_ = false;
  TRec* switched_from_ = nullptr;  // the fiber that made the latest switch,
  bool from_exited_ = false;       // and whether it has exited
  ScheduleRunResult result_;
};

Interp::Interp(const Program& program) : program_(program) {}

namespace {

template <class Slot>
constexpr bool kShadowed = std::is_same_v<Slot, Shadowed>;

// Slot access for the two walks.
Value& val(Value& v) { return v; }
const Value& val(const Value& v) { return v; }
Value& val(Shadowed& s) { return s.value; }
const Value& val(const Shadowed& s) { return s.value; }
Value untagged(Value v) { return v; }
Value untagged(Shadowed s) { return std::move(s.value); }

bool is_comparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

/// Every binary operator but && and ||, on evaluated operands.
Value binary_value(BinOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case BinOp::kEq: return Value::of_bool(lhs.equals(rhs));
    case BinOp::kNe: return Value::of_bool(!lhs.equals(rhs));
    case BinOp::kAdd:
      if (lhs.is_string() || rhs.is_string())
        return Value::of_string(lhs.to_display() + rhs.to_display());
      if (lhs.is_int() && rhs.is_int()) return Value::of_int(lhs.as_int() + rhs.as_int());
      throw InterpError("'+' on incompatible operands");
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv:
    case BinOp::kMod: {
      if (!lhs.is_int() || !rhs.is_int()) throw InterpError("arithmetic on non-int");
      const std::int64_t a = lhs.as_int();
      const std::int64_t b = rhs.as_int();
      switch (op) {
        case BinOp::kSub: return Value::of_int(a - b);
        case BinOp::kMul: return Value::of_int(a * b);
        default: {
          const CheckedQuotient quotient = checked_divide(a, b, op == BinOp::kMod);
          if (quotient.error != nullptr) throw MiniThrow(Value::of_string(quotient.error));
          return Value::of_int(quotient.value);
        }
      }
    }
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      if (lhs.is_string() && rhs.is_string()) {
        const int cmp = lhs.as_string().compare(rhs.as_string());
        switch (op) {
          case BinOp::kLt: return Value::of_bool(cmp < 0);
          case BinOp::kLe: return Value::of_bool(cmp <= 0);
          case BinOp::kGt: return Value::of_bool(cmp > 0);
          default: return Value::of_bool(cmp >= 0);
        }
      }
      if (!lhs.is_int() || !rhs.is_int()) throw InterpError("comparison on incompatible types");
      const std::int64_t a = lhs.as_int();
      const std::int64_t b = rhs.as_int();
      switch (op) {
        case BinOp::kLt: return Value::of_bool(a < b);
        case BinOp::kLe: return Value::of_bool(a <= b);
        case BinOp::kGt: return Value::of_bool(a > b);
        default: return Value::of_bool(a >= b);
      }
    }
    default:
      throw InterpError("unreachable binary operator");
  }
}

/// StateAccess over the executing frame's scope stack (interp.hpp).
template <class Slot>
class FrameStateAccess final : public StateAccess {
 public:
  FrameStateAccess(std::vector<std::unordered_map<std::string, Slot>>& scopes, int sync_depth)
      : scopes_(scopes), sync_depth_(sync_depth) {}

  Value* lookup(const std::string& name) override {
    Slot* slot = find_local(scopes_, name);
    return slot != nullptr ? &val(*slot) : nullptr;
  }

  std::vector<std::string> local_names() const override {
    std::vector<std::string> names;
    for (const auto& scope : scopes_)
      for (const auto& [name, value] : scope) names.push_back(name);
    return names;
  }

  int sync_depth() const override { return sync_depth_; }

  /// The innermost slot named `name`, or nullptr.
  static Slot* find_local(std::vector<std::unordered_map<std::string, Slot>>& scopes,
                          const std::string& name) {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      const auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }

 private:
  std::vector<std::unordered_map<std::string, Slot>>& scopes_;
  int sync_depth_;
};

}  // namespace

template <class Slot>
void Interp::burn_fuel() {
  if (++fuel_used_ > fuel_limit_) throw StepLimitExceeded(fuel_limit_);
  if constexpr (kShadowed<Slot>)
    if (fuel_used_ % kShadowStepStride == 0) shadow_->charge_steps(kShadowStepStride);
}

bool Interp::truthy(const Value& v, const Expr& where) const {
  if (!v.is_bool())
    throw InterpError("condition is not a bool: " + expr_text(where));
  return v.as_bool();
}

Value Interp::call(const std::string& function, std::vector<Value> args) {
  const FuncDecl* fn = program_.find_function(function);
  if (fn == nullptr) throw InterpError("unknown function: " + function);
  fuel_used_ = 0;
  return call_function<Value>(*fn, std::move(args));
}

Value Interp::call_shadowed(const std::string& function, ShadowPolicy& policy) {
  const FuncDecl* fn = program_.find_function(function);
  if (fn == nullptr) throw InterpError("unknown function: " + function);
  fuel_used_ = 0;
  next_object_id_ = 1;
  shadow_ = &policy;
  try {
    Value result = call_function<Shadowed>(*fn, {});
    shadow_ = nullptr;
    return result;
  } catch (...) {
    shadow_ = nullptr;
    throw;
  }
}

template <class Slot>
Value Interp::call_function(const FuncDecl& fn, std::vector<Slot> args) {
  if (args.size() != fn.params.size())
    throw InterpError("arity mismatch calling " + fn.name + ": expected " +
                      std::to_string(fn.params.size()) + ", got " +
                      std::to_string(args.size()));
  if (++ctx_->call_depth > 256) {
    --ctx_->call_depth;
    throw InterpError("call depth limit exceeded in " + fn.name);
  }
  if (observer_ != nullptr) observer_->on_call(fn);
  if (fn.has_annotation("blocking")) {
    if (sched_ != nullptr)
      sched_->yield({ScheduleOp::Kind::kBlocking, "io:" + fn.name});
    now_ms_ += blocking_latency_ms_;
    if (observer_ != nullptr) observer_->on_blocking(fn.name, ctx_->sync_depth);
  }
  Frame<Slot> frame;
  frame.scopes.emplace_back();
  for (std::size_t i = 0; i < args.size(); ++i)
    frame.scopes.back()[fn.params[i].name] = std::move(args[i]);
  Value return_value;
  const FuncDecl* caller_fn = ctx_->current_fn;
  ctx_->current_fn = &fn;
  if constexpr (kShadowed<Slot>) shadow_->enter(fn);
  try {
    exec_block(fn.body, frame, return_value);
  } catch (...) {
    if constexpr (kShadowed<Slot>) shadow_->leave();
    ctx_->current_fn = caller_fn;
    --ctx_->call_depth;
    throw;
  }
  if constexpr (kShadowed<Slot>) shadow_->leave();
  ctx_->current_fn = caller_fn;
  --ctx_->call_depth;
  return return_value;
}

template <class Slot>
Interp::Flow Interp::exec_block(const std::vector<StmtPtr>& stmts, Frame<Slot>& frame,
                                Value& return_value) {
  frame.scopes.emplace_back();
  Flow flow = Flow::kNormal;
  for (const StmtPtr& stmt : stmts) {
    flow = exec_stmt(*stmt, frame, return_value);
    if (flow != Flow::kNormal) break;
  }
  frame.scopes.pop_back();
  return flow;
}

template <class Slot>
bool Interp::branch(const Expr& guard, Frame<Slot>& frame) {
  const Slot condition = eval(guard, frame);
  const bool taken = truthy(val(condition), guard);
  if constexpr (kShadowed<Slot>) shadow_->branch(condition);
  return taken;
}

template <class Slot>
Interp::Flow Interp::exec_stmt(const Stmt& stmt, Frame<Slot>& frame, Value& return_value) {
  burn_fuel<Slot>();
  if (observer_ != nullptr) {
    static const FuncDecl kNoFunc{};
    const FuncDecl& owner = ctx_->current_fn != nullptr ? *ctx_->current_fn : kNoFunc;
    observer_->on_stmt(owner, stmt);
    if (observer_->wants_state()) {
      FrameStateAccess<Slot> state(frame.scopes, ctx_->sync_depth);
      observer_->on_state(owner, stmt, state);
    }
  }
  if constexpr (kShadowed<Slot>) {
    FrameStateAccess<Slot> state(frame.scopes, ctx_->sync_depth);
    shadow_->on_stmt(stmt, state);
  }
  switch (stmt.kind) {
    case Stmt::Kind::kLet:
      frame.scopes.back()[stmt.name] = eval(*stmt.expr, frame);
      return Flow::kNormal;
    case Stmt::Kind::kAssign:
      assign_lvalue(*stmt.expr, eval(*stmt.expr2, frame), frame);
      return Flow::kNormal;
    case Stmt::Kind::kIf:
      if (branch(*stmt.expr, frame)) return exec_block(stmt.body, frame, return_value);
      return exec_block(stmt.else_body, frame, return_value);
    case Stmt::Kind::kWhile:
      while (branch(*stmt.expr, frame)) {
        burn_fuel<Slot>();
        const Flow flow = exec_block(stmt.body, frame, return_value);
        if (flow == Flow::kReturn) return flow;
        if (flow == Flow::kBreak) break;
      }
      return Flow::kNormal;
    case Stmt::Kind::kReturn:
      if (stmt.expr) return_value = untagged(eval(*stmt.expr, frame));
      return Flow::kReturn;
    case Stmt::Kind::kThrow:
      throw MiniThrow(untagged(eval(*stmt.expr, frame)));
    case Stmt::Kind::kExpr:
      eval(*stmt.expr, frame);
      return Flow::kNormal;
    case Stmt::Kind::kSpawn: {
      const Expr& call = *stmt.expr;
      const FuncDecl* fn = program_.find_function(call.text);
      if (fn == nullptr)
        throw InterpError("spawn target must be a declared function: " + call.text);
      std::vector<Slot> args;
      args.reserve(call.args.size());
      for (const ExprPtr& arg : call.args) args.push_back(eval(*arg, frame));
      if (args.size() != fn->params.size())
        throw InterpError("arity mismatch spawning " + fn->name + ": expected " +
                          std::to_string(fn->params.size()) + ", got " +
                          std::to_string(args.size()));
      if constexpr (!kShadowed<Slot>) {
        if (sched_ != nullptr) {
          sched_->spawn(*fn, std::move(args));
          return Flow::kNormal;
        }
      }
      // Serial semantics: the thread root runs inline to completion at the
      // spawn point, so replay without the scheduler sees exactly one
      // interleaving. Only the schedule explorer quantifies over others.
      call_function(*fn, std::move(args));
      return Flow::kNormal;
    }
    case Stmt::Kind::kSync:
      return exec_sync(stmt, frame, return_value);
    case Stmt::Kind::kBlock:
      return exec_block(stmt.body, frame, return_value);
    case Stmt::Kind::kTry:
      return exec_try(stmt, frame, return_value);
    case Stmt::Kind::kBreak:
      return Flow::kBreak;
    case Stmt::Kind::kContinue:
      return Flow::kContinue;
  }
  return Flow::kNormal;
}

// exec_sync and exec_try stay out of exec_stmt: their locals would enlarge
// the frame that every statement pays for.
template <class Slot>
Interp::Flow Interp::exec_sync(const Stmt& stmt, Frame<Slot>& frame, Value& return_value) {
  const Slot monitor = eval(*stmt.expr, frame);
  const std::string key = sched_ != nullptr ? monitor_key_of(val(monitor)) : std::string();
  if (sched_ != nullptr) sched_->sync_enter(key);
  ++ctx_->sync_depth;
  Flow flow = Flow::kNormal;
  // An escaping exception is rethrown only after the monitor is
  // released: sync_exit may switch fibers, never inside a catch handler.
  std::exception_ptr escaped;
  try {
    flow = exec_block(stmt.body, frame, return_value);
  } catch (...) {
    escaped = std::current_exception();
  }
  --ctx_->sync_depth;
  if (sched_ != nullptr) sched_->sync_exit(key);
  if (escaped) std::rethrow_exception(escaped);
  return flow;
}

template <class Slot>
Interp::Flow Interp::exec_try(const Stmt& stmt, Frame<Slot>& frame, Value& return_value) {
  // The handler runs after the C++ catch handler has exited, because it
  // may yield and no fiber may switch inside a handler.
  const std::size_t depth = frame.scopes.size();
  std::optional<Value> caught;
  try {
    return exec_block(stmt.body, frame, return_value);
  } catch (const MiniThrow& thrown) {
    caught = thrown.value();
  }
  // The throw skipped the pops of every scope the try body opened.
  frame.scopes.resize(depth);
  frame.scopes.emplace_back();
  frame.scopes.back()[stmt.catch_var] = Slot{std::move(*caught)};
  Flow flow = Flow::kNormal;
  for (const StmtPtr& handler_stmt : stmt.else_body) {
    flow = exec_stmt(*handler_stmt, frame, return_value);
    if (flow != Flow::kNormal) break;
  }
  frame.scopes.pop_back();
  return flow;
}

template <class Slot>
void Interp::assign_lvalue(const Expr& lvalue, Slot value, Frame<Slot>& frame) {
  switch (lvalue.kind) {
    case Expr::Kind::kVar: {
      Slot* slot = FrameStateAccess<Slot>::find_local(frame.scopes, lvalue.text);
      if (slot == nullptr) throw InterpError("assignment to undeclared variable " + lvalue.text);
      *slot = std::move(value);
      return;
    }
    case Expr::Kind::kField: {
      const Slot base_slot = eval(*lvalue.args[0], frame);
      const Value& base = val(base_slot);
      if (base.is_null())
        throw MiniThrow(Value::of_string("NullPointerException: field write ." + lvalue.text));
      if (!base.is_object()) throw InterpError("field write on non-object");
      if (sched_ != nullptr)
        sched_->yield({ScheduleOp::Kind::kFieldWrite,
                       "f:" + std::to_string(base.as_object()->object_id) + "." + lvalue.text});
      base.as_object()->fields[lvalue.text] = untagged(std::move(value));
      return;
    }
    case Expr::Kind::kIndex: {
      const Slot base_slot = eval(*lvalue.args[0], frame);
      const Slot index_slot = eval(*lvalue.args[1], frame);
      const Value& base = val(base_slot);
      const Value& index = val(index_slot);
      if (base.is_list()) {
        auto& items = *base.as_list();
        const std::int64_t i = index.as_int();
        if (i < 0 || static_cast<std::size_t>(i) >= items.size())
          throw MiniThrow(Value::of_string("IndexOutOfBounds: " + std::to_string(i)));
        items[static_cast<std::size_t>(i)] = untagged(std::move(value));
        return;
      }
      if (base.is_map()) {
        const std::string key = index.is_string() ? index.as_string()
                                                  : std::to_string(index.as_int());
        (*base.as_map())[key] = untagged(std::move(value));
        return;
      }
      throw InterpError("index write on non-container");
    }
    default:
      throw InterpError("invalid assignment target");
  }
}

template <class Slot>
Slot Interp::eval(const Expr& expr, Frame<Slot>& frame) {
  burn_fuel<Slot>();
  switch (expr.kind) {
    case Expr::Kind::kIntLit: return Slot{Value::of_int(expr.int_value)};
    case Expr::Kind::kBoolLit: return Slot{Value::of_bool(expr.bool_value)};
    case Expr::Kind::kStrLit: return Slot{Value::of_string(expr.text)};
    case Expr::Kind::kNullLit: return Slot{Value::null()};
    case Expr::Kind::kVar: {
      Slot* slot = FrameStateAccess<Slot>::find_local(frame.scopes, expr.text);
      if (slot == nullptr) throw InterpError("unknown variable: " + expr.text);
      return *slot;
    }
    case Expr::Kind::kField: {
      const Slot base_slot = eval(*expr.args[0], frame);
      const Value& base = val(base_slot);
      if (base.is_null())
        throw MiniThrow(Value::of_string("NullPointerException: field read ." + expr.text));
      if (!base.is_object()) throw InterpError("field read on non-object: ." + expr.text);
      if (sched_ != nullptr)
        sched_->yield({ScheduleOp::Kind::kFieldRead,
                       "f:" + std::to_string(base.as_object()->object_id) + "." + expr.text});
      const Object& object = *base.as_object();
      const auto it = object.fields.find(expr.text);
      if (it == object.fields.end())
        throw InterpError("object " + object.struct_name + " has no field " + expr.text);
      if constexpr (kShadowed<Slot>)
        return Shadowed{it->second, shadow_->field_read(object, expr.text, it->second)};
      else
        return it->second;
    }
    case Expr::Kind::kIndex: {
      const Slot base_slot = eval(*expr.args[0], frame);
      const Slot index_slot = eval(*expr.args[1], frame);
      const Value& base = val(base_slot);
      const Value& index = val(index_slot);
      if (base.is_list()) {
        const auto& items = *base.as_list();
        const std::int64_t i = index.as_int();
        if (i < 0 || static_cast<std::size_t>(i) >= items.size())
          throw MiniThrow(Value::of_string("IndexOutOfBounds: " + std::to_string(i)));
        return Slot{items[static_cast<std::size_t>(i)]};
      }
      if (base.is_map()) {
        const std::string key = index.is_string() ? index.as_string()
                                                  : std::to_string(index.as_int());
        const auto& map = *base.as_map();
        const auto it = map.find(key);
        return Slot{it == map.end() ? Value::null() : it->second};
      }
      if (base.is_null())
        throw MiniThrow(Value::of_string("NullPointerException: index access"));
      throw InterpError("index on non-container");
    }
    case Expr::Kind::kUnary: {
      const Slot operand = eval(*expr.args[0], frame);
      if (expr.un_op == UnOp::kNot) {
        if (!val(operand).is_bool()) throw InterpError("'!' on non-bool");
        Slot out{Value::of_bool(!val(operand).as_bool())};
        if constexpr (kShadowed<Slot>) out.shadow = shadow_->negate(operand);
        return out;
      }
      if (!val(operand).is_int()) throw InterpError("unary '-' on non-int");
      return Slot{Value::of_int(-val(operand).as_int())};
    }
    case Expr::Kind::kBinary: return eval_binary(expr, frame);
    case Expr::Kind::kCall: {
      const FuncDecl* fn = program_.find_function(expr.text);
      if (fn != nullptr) {
        std::vector<Slot> args;
        args.reserve(expr.args.size());
        for (const ExprPtr& arg : expr.args) args.push_back(eval(*arg, frame));
        return Slot{call_function(*fn, std::move(args))};
      }
      return call_builtin(expr.text, expr, frame);
    }
    case Expr::Kind::kNew: {
      const StructDecl* decl = program_.find_struct(expr.text);
      if (decl == nullptr) throw InterpError("unknown struct: " + expr.text);
      auto object = std::make_shared<Object>();
      object->struct_name = expr.text;
      object->object_id = next_object_id_++;
      // Default-initialize every declared field, then apply initializers.
      for (const FieldDecl& field : decl->fields) {
        switch (field.type->kind) {
          case Type::Kind::kInt: object->fields[field.name] = Value::of_int(0); break;
          case Type::Kind::kBool: object->fields[field.name] = Value::of_bool(false); break;
          case Type::Kind::kString: object->fields[field.name] = Value::of_string(""); break;
          case Type::Kind::kList: object->fields[field.name] = Value::new_list(); break;
          case Type::Kind::kMap: object->fields[field.name] = Value::new_map(); break;
          default: object->fields[field.name] = Value::null(); break;
        }
      }
      for (std::size_t i = 0; i < expr.args.size(); ++i) {
        if (decl->find_field(expr.field_names[i]) == nullptr)
          throw InterpError("struct " + expr.text + " has no field " + expr.field_names[i]);
        object->fields[expr.field_names[i]] = untagged(eval(*expr.args[i], frame));
      }
      return Slot{Value::of_object(std::move(object))};
    }
  }
  throw InterpError("unreachable expression kind");
}

template <class Slot>
Slot Interp::eval_binary(const Expr& expr, Frame<Slot>& frame) {
  Slot lhs = eval(*expr.args[0], frame);
  if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
    // Short-circuit: when lhs decides, it is the result.
    if (truthy(val(lhs), *expr.args[0]) == (expr.bin_op == BinOp::kOr)) return lhs;
    const Slot rhs = eval(*expr.args[1], frame);
    Slot out{Value::of_bool(truthy(val(rhs), *expr.args[1]))};
    if constexpr (kShadowed<Slot>) out.shadow = shadow_->combine(expr.bin_op, lhs, rhs);
    return out;
  }
  const Slot rhs = eval(*expr.args[1], frame);
  Slot out{binary_value(expr.bin_op, val(lhs), val(rhs))};
  if constexpr (kShadowed<Slot>)
    if (is_comparison(expr.bin_op)) out.shadow = shadow_->combine(expr.bin_op, lhs, rhs);
  return out;
}

template <class Slot>
Slot Interp::call_builtin(const std::string& name, const Expr& expr, Frame<Slot>& frame) {
  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const ExprPtr& arg : expr.args) args.push_back(untagged(eval(*arg, frame)));
  if (sched_ != nullptr && blocking_builtins().count(name) > 0)
    sched_->yield({ScheduleOp::Kind::kBlocking, "io:" + name});
  BuiltinContext context;
  context.output = &output_;
  context.now_ms = &now_ms_;
  context.blocking_latency_ms = blocking_latency_ms_;
  context.observer = observer_;
  context.sync_depth = ctx_->sync_depth;
  context.sched = sched_;
  std::optional<Value> result = dispatch_builtin(name, args, context);
  if (!result.has_value()) throw InterpError("unknown function or builtin: " + name);
  return Slot{std::move(*result)};
}

bool Interp::run_test(const std::string& test_name) {
  last_error_.clear();
  step_limit_hit_ = false;
  try {
    call(test_name, {});
    return true;
  } catch (const MiniThrow& thrown) {
    last_error_ = thrown.value().to_display();
    return false;
  } catch (const StepLimitExceeded& limit) {
    step_limit_hit_ = true;
    last_error_ = limit.what();
    return false;
  } catch (const InterpError& error) {
    last_error_ = error.what();
    return false;
  }
}

ScheduleRunResult Interp::run_scheduled_test(const std::string& test_name,
                                             ScheduleController& controller) {
  last_error_.clear();
  step_limit_hit_ = false;
  ScheduleRunResult out;
  const FuncDecl* fn = program_.find_function(test_name);
  if (fn == nullptr) {
    out.error = "unknown test: " + test_name;
    return out;
  }
  fuel_used_ = 0;
  Scheduler scheduler(*this, controller);
  sched_ = &scheduler;
  bool main_ok = false;
  std::string main_error;
  try {
    call_function<Value>(*fn, {});
    scheduler.join_all();  // implicit join: finish threads still running
    main_ok = true;
  } catch (const ScheduleAborted&) {
    // Hang or spawned-thread failure; the scheduler recorded the cause.
  } catch (const MiniThrow& thrown) {
    main_error = thrown.value().to_display();
  } catch (const StepLimitExceeded& limit) {
    step_limit_hit_ = true;
    main_error = limit.what();
  } catch (const InterpError& error) {
    main_error = error.what();
  }
  // Finalize (which switches through every unfinished thread, unwinding
  // stragglers) must run before sched_ is cleared: threads parked inside
  // sync bodies call sched_->sync_exit while unwinding ScheduleAborted.
  out = scheduler.finalize();
  sched_ = nullptr;
  if (!main_error.empty()) out.error = main_error;
  step_limit_hit_ = out.degraded = out.degraded || step_limit_hit_;
  out.test_passed = main_ok && out.error.empty() && !out.hung && !out.degraded;
  last_error_ = out.error;
  return out;
}

std::pair<int, int> Interp::run_all_tests() {
  int passed = 0;
  int failed = 0;
  for (const FuncDecl* test : program_.functions_with("test")) {
    if (run_test(test->name))
      ++passed;
    else
      ++failed;
  }
  return {passed, failed};
}

}  // namespace lisa::minilang
