#ifndef N2J_EXEC_COMPILE_H_
#define N2J_EXEC_COMPILE_H_

// One lambda of an iterating operator, and the one-pass compiler from
// ADL lambda bodies to the bytecode of bytecode.h behind it. An
// operator binds each of its lambdas (map/select body, quantifier or
// join predicate, join key, nestjoin inner function) once per
// invocation — once per worker under morsel parallelism — and calls
// Lambda::Run once per tuple. The first Run chooses the engine for that
// lambda alone: with EvalOptions::compiled on it compiles the body and
// runs bytecode from then on; with it off ("off" means nothing else),
// or when the compiler refuses the body, Run interprets the tree. A
// compile covers the whole body or refuses it, so the two engines never
// mix inside one evaluation of one lambda, but two lambdas of one
// operator may each run on a different engine.
//
// Covered forms: const, var, table, let, field access, tuple
// project/construct/concat/except, set construct, deref, unary, binary
// (with and/or short-circuit jumps), quantifiers, aggregates, and the
// expression-level set operators. A body holding a set iterator
// (map/select/project/nest/joins/...) is refused — iterators carry
// their own operator-level machinery (PNHL recognition, parallelism,
// physical join choice) that a straight-line program cannot replicate.
//
// Free variables are captured by value when the body compiles, on the
// first Run: during one operator's loop the enclosing Environment only
// grows by the operator's own loop variables (which are compiled as
// parameters), so every other binding is loop-invariant. Unresolvable
// variables or tables refuse the compile and the interpreter reproduces
// the exact runtime error (or lack of one, under short-circuiting)
// lazily.

#include <memory>
#include <string>
#include <vector>

#include "adl/expr.h"
#include "exec/bytecode.h"

namespace n2j {

class Environment;
class Evaluator;

/// A lambda bound to its evaluator, environment, body and parameter
/// names. The evaluator, the environment, the body and the names are
/// borrowed and must outlive the Lambda; the names must be the same
/// strings on every Run (Environment memoizes lookups on their address).
/// A default-constructed Lambda is unbound and must not Run.
class Lambda {
 public:
  Lambda() = default;
  /// λ x . body
  Lambda(Evaluator& ev, Environment& env, const Expr& body,
         const std::string& x);
  /// λ x, y . body
  Lambda(Evaluator& ev, Environment& env, const Expr& body,
         const std::string& x, const std::string& y);
  /// The join-key form λ var . key: every key expression over `var`,
  /// combined exactly like JoinKeyFromParts.
  static Lambda Key(Evaluator& ev, Environment& env,
                    const std::vector<ExprPtr>& keys, const std::string& var);

  /// Evaluates over one tuple (two for a two-parameter lambda). Returns
  /// the result slot — the caller may move from it; the next Run
  /// rewrites it — or nullptr with the error in status(). The first
  /// call chooses the engine; when it compiles, the first argument's
  /// tuple shape seeds the field-access inline caches.
  Value* Run(const Value& x) {
    if (engine_ == Engine::kBytecode) {
      vm_->BindParam(0, x);
      return vm_->Run();
    }
    return RunSlow(x, nullptr);
  }
  Value* Run(const Value& x, const Value& y) {
    if (engine_ == Engine::kBytecode) {
      vm_->BindParam(0, x);
      vm_->BindParam(1, y);
      return vm_->Run();
    }
    return RunSlow(x, &y);
  }
  const Status& status() const {
    return engine_ == Engine::kBytecode ? vm_->status() : status_;
  }

  /// After the first Run: whether the body runs as bytecode, or was
  /// refused by the compiler and is interpreted (counted per Run in
  /// EvalStats::interp_fallback_evals). Both false before the first Run
  /// and when compiled evaluation is off.
  bool compiled() const { return engine_ == Engine::kBytecode; }
  bool refused() const { return engine_ == Engine::kRefused; }
  /// The compiled program, or nullptr unless compiled().
  const Program* program() const { return prog_.get(); }

 private:
  enum class Engine { kUnchosen, kBytecode, kInterpreter, kRefused };

  Value* RunSlow(const Value& x, const Value* y);
  void Compile(const TupleShape* x_shape);
  Value* Interpret(const Value& x, const Value* y);

  Evaluator* ev_ = nullptr;
  Environment* env_ = nullptr;
  const Expr* body_ = nullptr;                   // null in a multi-key form
  const std::vector<ExprPtr>* keys_ = nullptr;   // a multi-key form's parts
  const std::string* params_[2] = {nullptr, nullptr};
  Engine engine_ = Engine::kUnchosen;
  std::unique_ptr<Program> prog_;
  std::unique_ptr<Vm> vm_;
  Value result_;    // the interpreter's result slot
  Status status_;   // the interpreter's error
};

/// The lambdas one join-family operator invocation runs, plus the probe
/// loop's reusable scratch. Parallel join operators bind one per worker
/// frame so every worker owns its lambdas (register frames, inline
/// caches and interpreter environments are not shareable across
/// threads) and its scratch.
struct JoinLambdas {
  JoinLambdas() = default;
  /// Binds the residual conjunction p(x, y) and, for a nestjoin whose
  /// inner is not the bare right variable, the inner function f(x, y).
  /// `key` is left unbound for the caller.
  JoinLambdas(Evaluator& ev, Environment& env, const Expr& join,
              const Expr& residual);

  Lambda key;        // probe key: the left key, or the membership k(v)
  Lambda residual;   // residual conjunction p(x, y)
  Lambda inner;      // nestjoin inner function f(x, y)

  // One left tuple's matches; cleared, not freed, between tuples.
  std::vector<const Value*> matches;
  // Membership join with an element key: per build key, the stamp of
  // the last left tuple that reached it (see MembershipJoin).
  std::vector<uint32_t> key_seen;
  // Nestjoin output shape, resolved once per left-tuple shape.
  ShapeCursor nest_shape;
  // Nestjoin whose inner is the bare right variable (IsIdentityInner):
  // the inner is neither bound nor run. Set once per operator.
  bool identity_inner = false;
};

}  // namespace n2j

#endif  // N2J_EXEC_COMPILE_H_
