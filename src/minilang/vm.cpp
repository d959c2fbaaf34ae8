#include "minilang/vm.hpp"

#include "minilang/builtins.hpp"

namespace lisa::minilang {

Vm::Vm(const Module& module) : module_(module) {}

void Vm::engine_error(const std::string& message) {
  // Reset machine state so the VM is reusable after an engine error.
  stack_.clear();
  frames_.clear();
  handlers_.clear();
  sync_depth_ = 0;
  throw InterpError(message);
}

Value Vm::call(const std::string& function, std::vector<Value> args) {
  const int chunk = module_.chunk_of(function);
  if (chunk < 0) engine_error("unknown function: " + function);
  return run(chunk, std::move(args));
}

void Vm::unwind(Value thrown) {
  if (handlers_.empty()) {
    stack_.clear();
    frames_.clear();
    handlers_.clear();
    sync_depth_ = 0;
    throw MiniThrow(std::move(thrown));
  }
  const Handler handler = handlers_.back();
  handlers_.pop_back();
  frames_.resize(handler.frame_index + 1);
  stack_.resize(handler.stack_size);
  sync_depth_ = handler.sync_depth;
  Frame& frame = frames_.back();
  frame.ip = handler.ip;
  stack_[frame.base + static_cast<std::size_t>(handler.catch_slot)] = std::move(thrown);
}

Value Vm::run(int chunk_index, std::vector<Value> args) {
  const Chunk& entry = module_.chunks[static_cast<std::size_t>(chunk_index)];
  if (static_cast<int>(args.size()) != entry.arity)
    engine_error("arity mismatch calling " + entry.name);

  const std::size_t frame_floor = frames_.size();
  const std::size_t stack_floor = stack_.size();

  // Push the entry frame: arguments become slots, rest default to null.
  Frame frame;
  frame.chunk = &entry;
  frame.ip = 0;
  frame.base = stack_.size();
  frame.sync_base = sync_depth_;
  frame.handler_base = handlers_.size();
  for (Value& arg : args) stack_.push_back(std::move(arg));
  stack_.resize(frame.base + static_cast<std::size_t>(entry.slot_count));
  frames_.push_back(frame);
  if (entry.is_blocking) {
    now_ms_ += blocking_latency_ms_;
    if (observer_ != nullptr) observer_->on_blocking(entry.name, sync_depth_);
  }

  const auto pop = [&]() -> Value {
    Value v = std::move(stack_.back());
    stack_.pop_back();
    return v;
  };

  while (frames_.size() > frame_floor) {
    Frame& top = frames_.back();
    const Chunk& chunk = *top.chunk;
    if (top.ip >= chunk.code.size()) engine_error("ip out of range in " + chunk.name);
    if (++executed_ > fuel_limit_)
      engine_error("fuel exhausted: possible non-terminating MiniLang program");
    const Insn insn = chunk.code[top.ip++];
    switch (insn.op) {
      case Op::kPushInt:
        stack_.push_back(Value::of_int(module_.int_pool[static_cast<std::size_t>(insn.a)]));
        break;
      case Op::kPushBool:
        stack_.push_back(Value::of_bool(insn.a != 0));
        break;
      case Op::kPushStr:
        stack_.push_back(
            Value::of_string(module_.string_pool[static_cast<std::size_t>(insn.a)]));
        break;
      case Op::kPushNull:
        stack_.push_back(Value::null());
        break;
      case Op::kLoad:
        stack_.push_back(stack_[top.base + static_cast<std::size_t>(insn.a)]);
        break;
      case Op::kStore:
        stack_[top.base + static_cast<std::size_t>(insn.a)] = pop();
        break;
      case Op::kFieldGet: {
        const Value base = pop();
        const std::string& name = module_.name_pool[static_cast<std::size_t>(insn.a)];
        if (base.is_null()) {
          unwind(Value::of_string("NullPointerException: field read ." + name));
          break;
        }
        if (!base.is_object()) engine_error("field read on non-object: ." + name);
        const auto& fields = base.as_object()->fields;
        const auto it = fields.find(name);
        if (it == fields.end())
          engine_error("object " + base.as_object()->struct_name + " has no field " + name);
        stack_.push_back(it->second);
        break;
      }
      case Op::kFieldSet: {
        Value value = pop();
        const Value base = pop();
        const std::string& name = module_.name_pool[static_cast<std::size_t>(insn.a)];
        if (base.is_null()) {
          unwind(Value::of_string("NullPointerException: field write ." + name));
          break;
        }
        if (!base.is_object()) engine_error("field write on non-object");
        base.as_object()->fields[name] = std::move(value);
        break;
      }
      case Op::kIndexGet: {
        const Value index = pop();
        const Value base = pop();
        if (base.is_list()) {
          const auto& items = *base.as_list();
          const std::int64_t i = index.as_int();
          if (i < 0 || static_cast<std::size_t>(i) >= items.size()) {
            unwind(Value::of_string("IndexOutOfBounds: " + std::to_string(i)));
            break;
          }
          stack_.push_back(items[static_cast<std::size_t>(i)]);
        } else if (base.is_map()) {
          const std::string key =
              index.is_string() ? index.as_string() : std::to_string(index.as_int());
          const auto& map = *base.as_map();
          const auto it = map.find(key);
          stack_.push_back(it == map.end() ? Value::null() : it->second);
        } else if (base.is_null()) {
          unwind(Value::of_string("NullPointerException: index access"));
        } else {
          engine_error("index on non-container");
        }
        break;
      }
      case Op::kIndexSet: {
        Value value = pop();
        const Value index = pop();
        const Value base = pop();
        if (base.is_list()) {
          auto& items = *base.as_list();
          const std::int64_t i = index.as_int();
          if (i < 0 || static_cast<std::size_t>(i) >= items.size()) {
            unwind(Value::of_string("IndexOutOfBounds: " + std::to_string(i)));
            break;
          }
          items[static_cast<std::size_t>(i)] = std::move(value);
        } else if (base.is_map()) {
          const std::string key =
              index.is_string() ? index.as_string() : std::to_string(index.as_int());
          (*base.as_map())[key] = std::move(value);
        } else {
          engine_error("index write on non-container");
        }
        break;
      }
      case Op::kAdd: {
        const Value rhs = pop();
        const Value lhs = pop();
        if (lhs.is_string() || rhs.is_string())
          stack_.push_back(Value::of_string(lhs.to_display() + rhs.to_display()));
        else if (lhs.is_int() && rhs.is_int())
          stack_.push_back(Value::of_int(lhs.as_int() + rhs.as_int()));
        else
          engine_error("'+' on incompatible operands");
        break;
      }
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod: {
        const Value rhs = pop();
        const Value lhs = pop();
        if (!lhs.is_int() || !rhs.is_int()) engine_error("arithmetic on non-int");
        const std::int64_t a = lhs.as_int();
        const std::int64_t b = rhs.as_int();
        if (insn.op == Op::kSub) stack_.push_back(Value::of_int(a - b));
        else if (insn.op == Op::kMul) stack_.push_back(Value::of_int(a * b));
        else {
          const CheckedQuotient quotient = checked_divide(a, b, insn.op == Op::kMod);
          if (quotient.error != nullptr)
            unwind(Value::of_string(quotient.error));
          else
            stack_.push_back(Value::of_int(quotient.value));
        }
        break;
      }
      case Op::kEq:
      case Op::kNe: {
        const Value rhs = pop();
        const Value lhs = pop();
        const bool eq = lhs.equals(rhs);
        stack_.push_back(Value::of_bool(insn.op == Op::kEq ? eq : !eq));
        break;
      }
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe: {
        const Value rhs = pop();
        const Value lhs = pop();
        int cmp = 0;
        if (lhs.is_string() && rhs.is_string())
          cmp = lhs.as_string().compare(rhs.as_string()) < 0
                    ? -1
                    : (lhs.as_string() == rhs.as_string() ? 0 : 1);
        else if (lhs.is_int() && rhs.is_int())
          cmp = lhs.as_int() < rhs.as_int() ? -1 : (lhs.as_int() == rhs.as_int() ? 0 : 1);
        else
          engine_error("comparison on incompatible types");
        bool result = false;
        if (insn.op == Op::kLt) result = cmp < 0;
        else if (insn.op == Op::kLe) result = cmp <= 0;
        else if (insn.op == Op::kGt) result = cmp > 0;
        else result = cmp >= 0;
        stack_.push_back(Value::of_bool(result));
        break;
      }
      case Op::kNot: {
        const Value operand = pop();
        if (!operand.is_bool()) engine_error("'!' on non-bool");
        stack_.push_back(Value::of_bool(!operand.as_bool()));
        break;
      }
      case Op::kNeg: {
        const Value operand = pop();
        if (!operand.is_int()) engine_error("unary '-' on non-int");
        stack_.push_back(Value::of_int(-operand.as_int()));
        break;
      }
      case Op::kJump:
        top.ip = static_cast<std::size_t>(insn.a);
        break;
      case Op::kJumpIfFalse:
      case Op::kJumpIfTrue: {
        const Value condition = pop();
        if (!condition.is_bool()) engine_error("condition is not a bool");
        const bool jump_on = insn.op == Op::kJumpIfTrue;
        if (condition.as_bool() == jump_on) top.ip = static_cast<std::size_t>(insn.a);
        break;
      }
      case Op::kCall: {
        const Chunk& callee = module_.chunks[static_cast<std::size_t>(insn.a)];
        const std::size_t argc = static_cast<std::size_t>(insn.b);
        if (static_cast<int>(argc) != callee.arity)
          engine_error("arity mismatch calling " + callee.name);
        if (frames_.size() > 256) engine_error("call depth limit in " + callee.name);
        Frame next;
        next.chunk = &callee;
        next.ip = 0;
        next.base = stack_.size() - argc;
        next.sync_base = sync_depth_;
        next.handler_base = handlers_.size();
        stack_.resize(next.base + static_cast<std::size_t>(callee.slot_count));
        frames_.push_back(next);
        if (observer_ != nullptr) {
          const FuncDecl* decl = module_.program->find_function(callee.name);
          if (decl != nullptr) observer_->on_call(*decl);
        }
        if (callee.is_blocking) {
          now_ms_ += blocking_latency_ms_;
          if (observer_ != nullptr) observer_->on_blocking(callee.name, sync_depth_);
        }
        break;
      }
      case Op::kCallBuiltin: {
        const std::string& name = module_.name_pool[static_cast<std::size_t>(insn.a)];
        const std::size_t argc = static_cast<std::size_t>(insn.b);
        std::vector<Value> call_args;
        call_args.reserve(argc);
        for (std::size_t i = stack_.size() - argc; i < stack_.size(); ++i)
          call_args.push_back(std::move(stack_[i]));
        stack_.resize(stack_.size() - argc);
        BuiltinContext context;
        context.output = &output_;
        context.now_ms = &now_ms_;
        context.blocking_latency_ms = blocking_latency_ms_;
        context.observer = observer_;
        context.sync_depth = sync_depth_;
        try {
          std::optional<Value> result = dispatch_builtin(name, call_args, context);
          if (!result.has_value()) engine_error("unknown function or builtin: " + name);
          stack_.push_back(std::move(*result));
        } catch (const MiniThrow& thrown) {
          unwind(thrown.value());
        }
        break;
      }
      case Op::kNew: {
        const NewSpec& spec = module_.new_specs[static_cast<std::size_t>(insn.a)];
        const StructDecl* decl = module_.program->find_struct(spec.struct_name);
        if (decl == nullptr) engine_error("unknown struct: " + spec.struct_name);
        auto object = std::make_shared<Object>();
        object->struct_name = spec.struct_name;
        object->object_id = next_object_id_++;
        for (const FieldDecl& field : decl->fields) {
          switch (field.type->kind) {
            case Type::Kind::kInt: object->fields[field.name] = Value::of_int(0); break;
            case Type::Kind::kBool: object->fields[field.name] = Value::of_bool(false); break;
            case Type::Kind::kString:
              object->fields[field.name] = Value::of_string("");
              break;
            case Type::Kind::kList: object->fields[field.name] = Value::new_list(); break;
            case Type::Kind::kMap: object->fields[field.name] = Value::new_map(); break;
            default: object->fields[field.name] = Value::null(); break;
          }
        }
        // Initializer values are on the stack in field order.
        const std::size_t count = spec.fields.size();
        for (std::size_t i = 0; i < count; ++i) {
          object->fields[spec.fields[count - 1 - i]] = pop();
        }
        stack_.push_back(Value::of_object(std::move(object)));
        break;
      }
      case Op::kPop:
        stack_.pop_back();
        break;
      case Op::kReturn: {
        Value result = pop();
        const Frame done = frames_.back();
        frames_.pop_back();
        handlers_.resize(done.handler_base);  // drop this frame's handlers
        sync_depth_ = done.sync_base;         // release monitors held here
        stack_.resize(done.base);
        if (frames_.size() == frame_floor) {
          stack_.resize(stack_floor);
          return result;
        }
        stack_.push_back(std::move(result));
        break;
      }
      case Op::kThrow:
        unwind(pop());
        break;
      case Op::kTryPush: {
        Handler handler;
        handler.frame_index = frames_.size() - 1;
        handler.ip = static_cast<std::size_t>(insn.a);
        handler.stack_size = stack_.size();
        handler.catch_slot = insn.b;
        handler.sync_depth = sync_depth_;
        handlers_.push_back(handler);
        break;
      }
      case Op::kTryPop:
        if (handlers_.empty()) engine_error("try_pop with empty handler stack");
        handlers_.pop_back();
        break;
      case Op::kSyncEnter:
        stack_.pop_back();  // monitor value, evaluated for effect only
        ++sync_depth_;
        break;
      case Op::kSyncExit:
        --sync_depth_;
        break;
    }
  }
  engine_error("fell off frame loop");  // unreachable
}

bool Vm::run_test(const std::string& test_name) {
  last_error_.clear();
  try {
    call(test_name, {});
    return true;
  } catch (const MiniThrow& thrown) {
    last_error_ = thrown.value().to_display();
    return false;
  } catch (const InterpError& error) {
    last_error_ = error.what();
    return false;
  }
}

std::pair<int, int> Vm::run_all_tests() {
  int passed = 0;
  int failed = 0;
  for (const FuncDecl* test : module_.program->functions_with("test")) {
    if (run_test(test->name)) ++passed;
    else ++failed;
  }
  return {passed, failed};
}

}  // namespace lisa::minilang
