// Bytecode representation for the MiniLang VM.
//
// The tree-walking interpreter (interp.hpp) is the reference semantics; the
// VM (vm.hpp) compiles functions to a compact stack bytecode for fast test
// replay. Only the benches and the tests run it.
// The two engines are kept observationally equivalent by differential
// property tests over random programs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "minilang/ast.hpp"

namespace lisa::minilang {

enum class Op : std::uint8_t {
  kPushInt,     // a = constant-pool index of the integer
  kPushBool,    // a = 0/1
  kPushStr,     // a = string-pool index
  kPushNull,
  kLoad,        // a = local slot
  kStore,       // a = local slot (pops)
  kFieldGet,    // a = name-pool index
  kFieldSet,    // a = name-pool index (stack: object value → ∅)
  kIndexGet,    // stack: base index → value
  kIndexSet,    // stack: base index value → ∅
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kNot, kNeg,
  kJump,         // a = target ip
  kJumpIfFalse,  // a = target ip (pops condition)
  kJumpIfTrue,   // a = target ip (pops condition)
  kCall,         // a = function index, b = argc
  kCallBuiltin,  // a = name-pool index, b = argc
  kNew,          // a = new-spec index (field values on stack, in spec order)
  kPop,
  kReturn,       // pops return value (kPushNull'ed for void paths)
  kThrow,        // pops thrown value
  kTryPush,      // a = handler ip, b = catch-variable slot
  kTryPop,
  kSyncEnter,    // pops monitor value
  kSyncExit,
};

struct Insn {
  Op op;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
};

/// One compiled function.
struct Chunk {
  std::string name;
  int arity = 0;
  int slot_count = 0;  // locals including parameters
  std::vector<Insn> code;
  bool is_blocking = false;  // @blocking annotation
};

/// Object-construction descriptor for one `new T { ... }` site.
struct NewSpec {
  std::string struct_name;
  std::vector<std::string> fields;  // initializer field names, in stack order
};

/// A compiled program: chunks plus shared pools.
struct Module {
  std::vector<Chunk> chunks;
  std::map<std::string, int> function_index;   // name → chunk id
  std::vector<std::int64_t> int_pool;
  std::vector<std::string> string_pool;        // literals
  std::vector<std::string> name_pool;          // identifiers (fields/builtins)
  std::vector<NewSpec> new_specs;
  const Program* program = nullptr;            // for struct layouts (borrowed)

  [[nodiscard]] int chunk_of(const std::string& name) const {
    const auto it = function_index.find(name);
    return it == function_index.end() ? -1 : it->second;
  }
};

/// Human-readable disassembly of one chunk (for debugging and tests).
[[nodiscard]] std::string disassemble(const Module& module, const Chunk& chunk);

}  // namespace lisa::minilang
