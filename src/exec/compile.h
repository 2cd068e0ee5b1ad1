#ifndef N2J_EXEC_COMPILE_H_
#define N2J_EXEC_COMPILE_H_

// One-pass compiler from ADL lambda bodies to the bytecode of
// bytecode.h. Each iterating operator compiles its lambda(s) once per
// invocation (per worker frame under morsel parallelism), then runs
// the program once per tuple. Compilation either covers the whole body
// or refuses it: a CompiledLambda in the fallback state makes the
// caller use the tree interpreter for that operator, so a partially
// supported body never mixes the two engines inside one evaluation.
//
// Covered forms: const, var, table, let, field access, tuple
// project/construct/concat/except, set construct, deref, unary, binary
// (with and/or short-circuit jumps), quantifiers, aggregates, and the
// expression-level set operators. Set iterators (map/select/project/
// nest/joins/...) nested inside a lambda body fall back — they carry
// their own operator-level machinery (PNHL recognition, parallelism,
// physical join choice) that a straight-line program cannot replicate.
//
// Free variables are captured by value at compile time: during one
// operator's loop the enclosing Environment only grows by the
// operator's own loop variables (which are compiled as parameters), so
// every other binding is loop-invariant. Unresolvable variables or
// tables fail the compile and the interpreter reproduces the exact
// runtime error (or lack of one, under short-circuiting) lazily.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "adl/expr.h"
#include "exec/bytecode.h"

namespace n2j {

class Environment;
class Evaluator;

/// Shape of the first element when it is a tuple — the compile-time
/// seed for a lambda parameter's field-access inline caches.
const TupleShape* FirstElemShape(std::span<const Value> rows);
const TupleShape* FirstElemShape(const Value& set);

/// A lambda compiled for one operator invocation. Tri-state:
///   off      — Compile was never called (compiled evaluation disabled
///              or the operator input was empty); Run must not be used.
///   ok       — the body lowered fully; Run evaluates it.
///   fallback — the body contains a form the compiler does not cover;
///              the caller runs the interpreter per tuple and counts
///              EvalStats::interp_fallback_evals.
class CompiledLambda {
 public:
  /// Compiles `body` with `params` bound to slots 0..n-1. When the
  /// caller statically knows the tuple shape of the first parameter
  /// (e.g. from the first element of the input set), passing it seeds
  /// the field-access inline caches at compile time.
  void Compile(Evaluator& ev, const Expr& body,
               const std::vector<std::string>& params,
               const Environment& env,
               const TupleShape* param0_shape = nullptr);

  /// Compiles a join-key extractor: every key expression evaluated with
  /// `var` bound to the row, combined exactly like JoinKeyFromParts.
  void CompileKey(Evaluator& ev, const std::vector<ExprPtr>& keys,
                  const std::string& var, const Environment& env,
                  const TupleShape* param0_shape = nullptr);

  bool ok() const { return state_ == State::kOk; }
  bool fallback() const { return state_ == State::kFallback; }

  /// Evaluates over one tuple (two for join lambdas). Returns the
  /// result slot — the caller may move from it; it is rewritten by the
  /// next Run — or nullptr with the error in status(). Precondition:
  /// ok().
  Value* Run(const Value& p0) {
    vm_->BindParam(0, p0);
    return vm_->Run();
  }
  Value* Run(const Value& p0, const Value& p1) {
    vm_->BindParam(0, p0);
    vm_->BindParam(1, p1);
    return vm_->Run();
  }
  const Status& status() const { return vm_->status(); }

  const Program* program() const { return prog_.get(); }

 private:
  enum class State { kOff, kOk, kFallback };

  void Finish(Evaluator& ev, Program prog, uint32_t ret_slot);

  State state_ = State::kOff;
  std::unique_ptr<Program> prog_;
  std::unique_ptr<Vm> vm_;
};

/// A lambda compiled for column-batch evaluation: the same Program a
/// CompiledLambda would build, executed by the BatchVm over parameter
/// columns instead of one register frame per tuple. Same tri-state and
/// whole-body-or-refuse discipline; a fallback makes the caller run
/// that operator tuple-at-a-time. The vectorized shredded executor
/// compiles every range predicate, join key, and scalar output of a
/// flat node through this before committing to the batch pipeline.
class CompiledBatchLambda {
 public:
  /// Batch sibling of CompiledLambda::Compile; params occupy parameter
  /// columns 0..n-1.
  void Compile(Evaluator& ev, const Expr& body,
               const std::vector<std::string>& params,
               const Environment& env,
               const TupleShape* param0_shape = nullptr);

  /// Batch sibling of CompiledLambda::CompileKey, generalized to
  /// multi-variable key expressions (probe keys reference any bound
  /// variable of the pipeline, not just the range variable).
  void CompileKey(Evaluator& ev, const std::vector<ExprPtr>& keys,
                  const std::vector<std::string>& params,
                  const Environment& env,
                  const TupleShape* param0_shape = nullptr);

  bool ok() const { return state_ == State::kOk; }
  bool fallback() const { return state_ == State::kFallback; }

  /// The column frame. Fill ParamColumn(0..n-1), Run(n), read
  /// ResultColumn(). Precondition: ok().
  BatchVm& vm() { return *vm_; }
  const Status& status() const { return vm_->status(); }
  const Program* program() const { return prog_.get(); }

 private:
  enum class State { kOff, kOk, kFallback };

  void Finish(Evaluator& ev, Program prog, uint32_t ret_slot);

  State state_ = State::kOff;
  std::unique_ptr<Program> prog_;
  std::unique_ptr<BatchVm> vm_;
};

/// The compiled fragments one join-family operator invocation can use,
/// plus the probe loop's reusable scratch. Parallel join operators build
/// one per worker frame so every worker owns its programs (register
/// frames and inline caches are not shareable across threads) and its
/// scratch.
struct JoinLambdas {
  CompiledLambda left_key;   // key over the left/probe variable
  CompiledLambda right_key;  // key over the right/build variable
  CompiledLambda elem_key;   // membership-join element key k(v)
  CompiledLambda residual;   // residual conjunction p(x, y)
  CompiledLambda inner;      // nestjoin inner function f(x, y)

  // One left tuple's matches; cleared, not freed, between tuples.
  std::vector<const Value*> matches;
  // Membership join with an element key: per build key, the stamp of
  // the last left tuple that reached it (see MembershipJoin).
  std::vector<uint32_t> key_seen;
  // Nestjoin output shape, resolved once per left-tuple shape.
  ShapeCursor nest_shape;
  // Nestjoin whose inner is the bare right variable (IsIdentityInner):
  // the inner is neither compiled nor run. Set once per operator.
  bool identity_inner = false;
};

}  // namespace n2j

#endif  // N2J_EXEC_COMPILE_H_
