#ifndef N2J_EXEC_BYTECODE_H_
#define N2J_EXEC_BYTECODE_H_

// Slot-addressed bytecode for ADL lambda bodies.
//
// Every iterator of the algebra (map, select, the join family, the
// quantifiers) evaluates a lambda parameter once per tuple. The
// interpreter walks the ExprPtr tree and resolves every variable
// reference through a string-keyed Environment per evaluation; the
// bytecode path lowers the lambda body once per operator invocation
// (compile.h) into a flat program over a register frame:
//
//   * variable references become frame-slot reads resolved at compile
//     time (lambda parameters occupy slots 0..n-1, let-bound variables
//     get fresh slots, free variables are captured by value into the
//     constant pool);
//   * field accesses carry a one-entry inline cache mapping the
//     observed TupleShape to a field index, seeded at compile time when
//     the input shape is statically known;
//   * and/or lower to short-circuit jumps, quantifiers to a structured
//     loop opcode whose body is a pc range of the same program.
//
// The VM evaluates one tuple per Run() with a reusable register frame:
// the happy path moves Values between slots (one atomic refcount bump
// per copy) and touches no Result<>, no Environment and no heap beyond
// what the produced values themselves need. Errors are the slow path:
// they abort the whole query, so the VM just parks a Status and bails.
//
// A Program is single-consumer: it belongs to one operator invocation
// (and to one worker under morsel parallelism — workers compile their
// own copy), which is what lets the inline caches be plain mutable
// fields with no synchronization. The compiler mirrors the interpreter
// exactly — same checks, same evaluation order, same error messages —
// so compiled and interpreted evaluation are observably identical; the
// differential fuzzer holds this to bit-for-bit equality.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adl/expr.h"
#include "adl/value.h"
#include "common/result.h"
#include "storage/database.h"

namespace n2j {

struct EvalStats;

enum class OpCode : uint8_t {
  kLoadConst,  // dst = consts[a]
  kMove,       // dst = regs[a]
  kField,      // dst = regs[a].names[b]  (derefs oids; inline cache)
  kProject,    // dst = regs[a][name_lists[b]]  (shape_caches[c]); with
               // flag kProjectField: dst = that projection's field
               // name_lists[b][d], the projected tuple never built
  kMakeTuple,  // dst = tuple(shapes[c]; operands[a..a+b))
  kConcat,     // dst = regs[a] o regs[b]
  kExcept,     // dst = regs[a] except name_lists[d] = operands[b..)
  kGuard,      // type check of regs[a] ahead of operand evaluation
  kMakeSet,    // dst = {operands[a..a+b)}
  kDeref,      // dst = *regs[a]
  kDerefField, // dst = (*regs[a]).names[b]  (deref(e).a; inline cache)
  kUnary,      // dst = UnOp(flag) regs[a]
  kBinary,     // dst = regs[a] BinOp(flag) regs[b]
  kAndProbe,   // if !regs[a] { dst = false; jump b }  (bool check)
  kOrProbe,    // if regs[a]  { dst = true;  jump b }  (bool check)
  kBoolMove,   // dst = regs[a], which must be bool
  kQuant,      // dst = exists/forall over regs[a]; body = next c instrs
  kAggregate,  // dst = AggKind(flag)(regs[a])
  kSetOp,      // dst = regs[a] ∪/∩/− regs[b]  (expr-level set operator)
  kMakeKey,    // dst = join key from operands[a..a+b)  (shapes[c])
};

/// kProject flag: the compiler folded `x[a1..an].ai` into one projection
/// that selects field ai (keeping the projection's own checks).
constexpr uint8_t kProjectField = 1;

/// One instruction. dst and the operand fields address registers or the
/// program's pools depending on the opcode (see OpCode). The cache
/// fields are the kField / kDerefField inline cache: programs are
/// per-operator and per-worker, so the cache is written without
/// synchronization.
struct Instr {
  OpCode op;
  uint8_t flag = 0;  // BinOp / UnOp / AggKind / quantifier-exists / ...
  uint16_t dst = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
  uint32_t d = 0;
  mutable const TupleShape* cache_shape = nullptr;
  mutable int cache_index = -1;
};

/// Resolved projection/update plan for one observed input shape; the
/// per-instruction cache behind kProject and kExcept.
struct ShapeCache {
  const TupleShape* in = nullptr;
  const TupleShape* out = nullptr;
  // kProject: source index per output field (-1 = missing field).
  // kExcept: target index per update in the output tuple.
  std::vector<int> index;
  bool complete = false;  // kProject: every field present
};

/// A compiled lambda body: flat code plus the pools it addresses.
struct Program {
  std::vector<Instr> code;
  std::vector<Value> consts;
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> name_lists;
  std::vector<const TupleShape*> shapes;
  std::vector<uint32_t> operands;  // gather lists (slot indices)
  // Indexed by Instr::c of kProject/kExcept; mutable per-instruction
  // caches (single-consumer, like the kField inline cache).
  mutable std::vector<ShapeCache> shape_caches;
  uint32_t num_regs = 0;
  uint32_t num_params = 0;
  uint32_t ret_slot = 0;

  /// Human-readable listing (stable format; golden-tested). Field
  /// accesses whose inline cache was seeded at compile time print the
  /// resolved index as `.name@index`.
  std::string Disassemble() const;
};

/// The evaluation frame: one register file bound to a program, reused
/// across Run() calls so per-tuple evaluation allocates nothing.
class Vm {
 public:
  Vm(const Program* prog, const Database* db, EvalStats* stats);

  void BindParam(size_t i, const Value& v) { regs_[i] = v; }
  /// Evaluates the program over the bound parameters. Returns the
  /// result slot — valid until the next Run(); the caller may move from
  /// it — or nullptr, in which case status() holds the error.
  Value* Run();
  const Status& status() const { return status_; }

 private:
  bool RunRange(size_t begin, size_t end);
  bool Fail(Status s) {
    status_ = std::move(s);
    return false;
  }

  const Program* prog_;
  const Database* db_;
  EvalStats* stats_;
  std::vector<Value> regs_;
  Status status_;
};

/// Value-level semantics of the scalar operators, shared by the tree
/// interpreter and the VM so the two agree on results and error
/// messages by construction. And/or short-circuit before evaluation and
/// never reach ApplyBinOp.
Result<Value> ApplyBinOp(BinOp op, const Value& l, const Value& r);
Result<Value> ApplyUnOp(UnOp op, const Value& in);
/// Includes the "aggregate over non-set" check.
Result<Value> ApplyAggregate(AggKind kind, const Value& in);
/// Tuple concatenation surfacing attribute-name conflicts as a
/// RuntimeError (Value::ConcatTuple treats them as internal errors).
Result<Value> ConcatTuplesChecked(const Value& l, const Value& r);

/// One-entry inline cache for repeated FindField over rows that mostly
/// share one interned shape — the non-bytecode sibling of the kField
/// cache, used by fixed-attribute hot loops (PNHL build/probe).
struct FieldCursor {
  const TupleShape* shape = nullptr;
  int index = -1;

  const Value* Find(const Value& tuple, std::string_view name) {
    const TupleShape* s = tuple.tuple_shape();
    if (s != shape) {
      shape = s;
      index = s->IndexOf(name);
    }
    return index < 0 ? nullptr
                     : &tuple.tuple_values()[static_cast<size_t>(index)];
  }
};

/// The same one-entry cache for a derived shape: the tuple's shape
/// extended with `name` is resolved once per input shape, instead of
/// once per row through the shape memo (a shared lock plus a copy of
/// the name key).
struct ShapeCursor {
  const TupleShape* in = nullptr;
  const TupleShape* out = nullptr;

  const TupleShape* Extended(const Value& tuple, const std::string& name) {
    const TupleShape* s = tuple.tuple_shape();
    if (s != in) {
      in = s;
      out = s->ExtendedWith(name);
    }
    return out;
  }
};

}  // namespace n2j

#endif  // N2J_EXEC_BYTECODE_H_
