#include "exec/compile.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"
#include "exec/equi_join.h"
#include "exec/eval.h"
#include "obs/metrics.h"

namespace n2j {
namespace {

constexpr uint32_t kNoReg = 0xffffffffu;

/// RAII metrics probe around one lambda compilation. References into the
/// process-wide registry are resolved once (instruments live forever).
class CompileProbe {
 public:
  explicit CompileProbe(const CompiledLambda& lambda)
      : lambda_(lambda), t0_ns_(MonotonicNanos()) {}
  ~CompileProbe() {
    static obs::Counter& compiles =
        obs::MetricsRegistry::Global().GetCounter("n2j_lambda_compiles_total");
    static obs::Counter& fallbacks =
        obs::MetricsRegistry::Global().GetCounter(
            "n2j_lambda_compile_fallbacks_total");
    static obs::Histogram& latency =
        obs::MetricsRegistry::Global().GetHistogram("n2j_lambda_compile_ms");
    compiles.Add();
    if (lambda_.fallback()) fallbacks.Add();
    latency.Observe(static_cast<double>(MonotonicNanos() - t0_ns_) / 1e6);
  }

 private:
  const CompiledLambda& lambda_;
  int64_t t0_ns_;
};

class Compiler {
 public:
  Compiler(Evaluator& ev, const Environment& env) : ev_(ev), env_(env) {}

  Program prog;

  uint32_t AddParam(const std::string& name, const TupleShape* shape) {
    uint32_t slot = AllocReg(shape);
    scope_.emplace_back(name, slot);
    ++prog.num_params;
    return slot;
  }

  bool failed() const { return failed_; }

  uint32_t AllocReg(const TupleShape* shape = nullptr) {
    reg_shape_.push_back(shape);
    return prog.num_regs++;
  }

  size_t Emit(OpCode op, uint32_t dst, uint32_t a = 0, uint32_t b = 0,
              uint32_t c = 0, uint32_t d = 0, uint8_t flag = 0) {
    Instr ins;
    ins.op = op;
    ins.flag = flag;
    ins.dst = static_cast<uint16_t>(dst);
    ins.a = a;
    ins.b = b;
    ins.c = c;
    ins.d = d;
    prog.code.push_back(ins);
    return prog.code.size() - 1;
  }

  uint32_t AddConst(Value v) {
    prog.consts.push_back(std::move(v));
    return static_cast<uint32_t>(prog.consts.size() - 1);
  }
  uint32_t AddName(const std::string& n) {
    prog.names.push_back(n);
    return static_cast<uint32_t>(prog.names.size() - 1);
  }
  uint32_t AddNameList(const std::vector<std::string>& ns) {
    prog.name_lists.push_back(ns);
    return static_cast<uint32_t>(prog.name_lists.size() - 1);
  }
  uint32_t AddShape(const TupleShape* s) {
    prog.shapes.push_back(s);
    return static_cast<uint32_t>(prog.shapes.size() - 1);
  }
  uint32_t AddShapeCache() {
    prog.shape_caches.emplace_back();
    return static_cast<uint32_t>(prog.shape_caches.size() - 1);
  }
  uint32_t AddOperands(const std::vector<uint32_t>& regs) {
    uint32_t off = static_cast<uint32_t>(prog.operands.size());
    prog.operands.insert(prog.operands.end(), regs.begin(), regs.end());
    return off;
  }

  const TupleShape* ShapeOf(uint32_t reg) const { return reg_shape_[reg]; }

  uint32_t CompileNode(const Expr& e);

 private:
  uint32_t Fail() {
    failed_ = true;
    return kNoReg;
  }

  Evaluator& ev_;
  const Environment& env_;
  bool failed_ = false;
  std::vector<std::pair<std::string, uint32_t>> scope_;  // innermost last
  // Statically known tuple shape per register (nullptr = unknown). Used
  // to seed kField inline caches so shape-stable inputs never take a
  // cache miss, and to propagate shapes through project/construct.
  std::vector<const TupleShape*> reg_shape_;
};

uint32_t Compiler::CompileNode(const Expr& e) {
  if (failed_) return kNoReg;
  switch (e.kind()) {
    case ExprKind::kConst: {
      const Value& v = e.const_value();
      uint32_t dst = AllocReg(v.is_tuple() ? v.tuple_shape() : nullptr);
      Emit(OpCode::kLoadConst, dst, AddConst(v));
      return dst;
    }

    case ExprKind::kVar: {
      for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
        if (it->first == e.name()) return it->second;
      }
      // Free variable: loop-invariant during this operator invocation,
      // so capture the current binding by value. Unbound names fail the
      // compile; the interpreter then reproduces the "unbound variable"
      // error (or never reaches it under short-circuiting).
      const Value* v = env_.Lookup(e.name());
      if (v == nullptr) return Fail();
      uint32_t dst = AllocReg(v->is_tuple() ? v->tuple_shape() : nullptr);
      Emit(OpCode::kLoadConst, dst, AddConst(*v));
      return dst;
    }

    case ExprKind::kGetTable: {
      // Resolved through the evaluator's per-query table cache, so the
      // captured set shares the cached payload.
      Result<Value> t = ev_.ResolveTable(e.name());
      if (!t.ok()) return Fail();
      uint32_t dst = AllocReg();
      Emit(OpCode::kLoadConst, dst, AddConst(std::move(*t)));
      return dst;
    }

    case ExprKind::kLet: {
      uint32_t def = CompileNode(*e.child(0));
      if (failed_) return kNoReg;
      scope_.emplace_back(e.var(), def);
      uint32_t body = CompileNode(*e.child(1));
      scope_.pop_back();
      return body;
    }

    case ExprKind::kFieldAccess: {
      const Expr& base = *e.child(0);
      if (base.kind() == ExprKind::kTupleProject) {
        // x[a1..an].ai — e.g. a join key s1[pid].pid — folds into one
        // projection that selects field ai without building the
        // projected tuple; it keeps the projection's checks and errors.
        const std::vector<std::string>& names = base.names();
        auto at = std::find(names.begin(), names.end(), e.name());
        if (at != names.end()) {
          uint32_t src = CompileNode(*base.child(0));
          if (failed_) return kNoReg;
          uint32_t dst = AllocReg();
          Emit(OpCode::kProject, dst, src, AddNameList(names),
               AddShapeCache(), static_cast<uint32_t>(at - names.begin()),
               kProjectField);
          return dst;
        }
      }
      if (base.kind() == ExprKind::kDeref) {
        // deref(e).a — a path step through a reference — reads the one
        // field off the stored object instead of copying the object out
        // first. A deref's result shape is never static, so its inline
        // cache starts cold, as kField's would over the deref register.
        uint32_t src = CompileNode(*base.child(0));
        if (failed_) return kNoReg;
        uint32_t dst = AllocReg();
        Emit(OpCode::kDerefField, dst, src, AddName(e.name()));
        return dst;
      }
      uint32_t src = CompileNode(base);
      if (failed_) return kNoReg;
      uint32_t dst = AllocReg();
      size_t at = Emit(OpCode::kField, dst, src, AddName(e.name()));
      const TupleShape* s = ShapeOf(src);
      if (s != nullptr) {
        prog.code[at].cache_shape = s;
        prog.code[at].cache_index = s->IndexOf(e.name());
      }
      return dst;
    }

    case ExprKind::kTupleProject: {
      uint32_t src = CompileNode(*e.child(0));
      if (failed_) return kNoReg;
      uint32_t dst = AllocReg(TupleShape::Intern(e.names()));
      Emit(OpCode::kProject, dst, src, AddNameList(e.names()),
           AddShapeCache());
      return dst;
    }

    case ExprKind::kTupleConstruct: {
      std::vector<uint32_t> ops;
      ops.reserve(e.num_children());
      for (const ExprPtr& c : e.children()) {
        ops.push_back(CompileNode(*c));
        if (failed_) return kNoReg;
      }
      const TupleShape* shape = TupleShape::Intern(e.names());
      uint32_t dst = AllocReg(shape);
      Emit(OpCode::kMakeTuple, dst, AddOperands(ops),
           static_cast<uint32_t>(ops.size()), AddShape(shape));
      return dst;
    }

    case ExprKind::kTupleConcat: {
      uint32_t l = CompileNode(*e.child(0));
      uint32_t r = CompileNode(*e.child(1));
      if (failed_) return kNoReg;
      const TupleShape* ls = ShapeOf(l);
      const TupleShape* rs = ShapeOf(r);
      uint32_t dst = AllocReg(
          ls != nullptr && rs != nullptr ? ls->ConcatWith(rs) : nullptr);
      Emit(OpCode::kConcat, dst, l, r);
      return dst;
    }

    case ExprKind::kExcept: {
      uint32_t base = CompileNode(*e.child(0));
      if (failed_) return kNoReg;
      // The interpreter rejects a non-tuple base before evaluating any
      // update expression; the guard preserves that order.
      Emit(OpCode::kGuard, 0, base);
      std::vector<uint32_t> ops;
      ops.reserve(e.names().size());
      for (size_t i = 0; i < e.names().size(); ++i) {
        ops.push_back(CompileNode(*e.child(i + 1)));
        if (failed_) return kNoReg;
      }
      const TupleShape* out_shape = nullptr;
      if (const TupleShape* bs = ShapeOf(base)) {
        out_shape = bs;
        for (const std::string& n : e.names()) {
          if (out_shape->IndexOf(n) < 0) {
            out_shape = out_shape->ExtendedWith(n);
          }
        }
      }
      uint32_t dst = AllocReg(out_shape);
      Emit(OpCode::kExcept, dst, base, AddOperands(ops), AddShapeCache(),
           AddNameList(e.names()));
      return dst;
    }

    case ExprKind::kSetConstruct: {
      std::vector<uint32_t> ops;
      ops.reserve(e.num_children());
      for (const ExprPtr& c : e.children()) {
        ops.push_back(CompileNode(*c));
        if (failed_) return kNoReg;
      }
      uint32_t dst = AllocReg();
      Emit(OpCode::kMakeSet, dst, AddOperands(ops),
           static_cast<uint32_t>(ops.size()));
      return dst;
    }

    case ExprKind::kDeref: {
      uint32_t src = CompileNode(*e.child(0));
      if (failed_) return kNoReg;
      uint32_t dst = AllocReg();
      Emit(OpCode::kDeref, dst, src);
      return dst;
    }

    case ExprKind::kUnary: {
      uint32_t src = CompileNode(*e.child(0));
      if (failed_) return kNoReg;
      uint32_t dst = AllocReg();
      Emit(OpCode::kUnary, dst, src, 0, 0, 0,
           static_cast<uint8_t>(e.un_op()));
      return dst;
    }

    case ExprKind::kBinary: {
      BinOp op = e.bin_op();
      if (op == BinOp::kAnd || op == BinOp::kOr) {
        uint32_t l = CompileNode(*e.child(0));
        if (failed_) return kNoReg;
        uint32_t dst = AllocReg();
        size_t probe = Emit(
            op == BinOp::kAnd ? OpCode::kAndProbe : OpCode::kOrProbe, dst,
            l);
        uint32_t r = CompileNode(*e.child(1));
        if (failed_) return kNoReg;
        Emit(OpCode::kBoolMove, dst, r);
        // Short-circuit jumps past the rhs code and the final move.
        prog.code[probe].b = static_cast<uint32_t>(prog.code.size());
        return dst;
      }
      uint32_t l = CompileNode(*e.child(0));
      uint32_t r = CompileNode(*e.child(1));
      if (failed_) return kNoReg;
      uint32_t dst = AllocReg();
      Emit(OpCode::kBinary, dst, l, r, 0, 0, static_cast<uint8_t>(op));
      return dst;
    }

    case ExprKind::kQuantifier: {
      uint32_t range = CompileNode(*e.child(0));
      if (failed_) return kNoReg;
      uint32_t dst = AllocReg();
      uint32_t elem = AllocReg();
      size_t q =
          Emit(OpCode::kQuant, dst, range, elem, 0, 0,
               e.quant_kind() == QuantKind::kExists ? uint8_t{1}
                                                    : uint8_t{0});
      scope_.emplace_back(e.var(), elem);
      uint32_t pred = CompileNode(*e.child(1));
      scope_.pop_back();
      if (failed_) return kNoReg;
      prog.code[q].c = static_cast<uint32_t>(prog.code.size() - (q + 1));
      prog.code[q].d = pred;
      return dst;
    }

    case ExprKind::kAggregate: {
      uint32_t src = CompileNode(*e.child(0));
      if (failed_) return kNoReg;
      uint32_t dst = AllocReg();
      Emit(OpCode::kAggregate, dst, src, 0, 0, 0,
           static_cast<uint8_t>(e.agg_kind()));
      return dst;
    }

    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kDifference: {
      uint32_t l = CompileNode(*e.child(0));
      uint32_t r = CompileNode(*e.child(1));
      if (failed_) return kNoReg;
      uint32_t dst = AllocReg();
      uint8_t which = e.kind() == ExprKind::kUnion       ? 0
                      : e.kind() == ExprKind::kIntersect ? 1
                                                         : 2;
      Emit(OpCode::kSetOp, dst, l, r, 0, 0, which);
      return dst;
    }

    // Set iterators fall back to the interpreter: they carry their own
    // operator-level machinery (PNHL, parallel morsels, physical join
    // selection) that straight-line code cannot replicate.
    case ExprKind::kMap:
    case ExprKind::kSelect:
    case ExprKind::kProject:
    case ExprKind::kFlatten:
    case ExprKind::kNest:
    case ExprKind::kUnnest:
    case ExprKind::kProduct:
    case ExprKind::kJoin:
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin:
    case ExprKind::kNestJoin:
    case ExprKind::kDivide:
      return Fail();
  }
  return Fail();
}

/// Compiles the key expressions and combines them exactly like
/// JoinKeyFromParts.
/// Returns the result slot, or kNoReg when any key failed to compile.
uint32_t CompileKeyParts(Compiler& c, const std::vector<ExprPtr>& keys) {
  std::vector<uint32_t> parts;
  parts.reserve(keys.size());
  for (const ExprPtr& k : keys) {
    parts.push_back(c.CompileNode(*k));
    if (c.failed()) return kNoReg;
  }
  if (parts.size() == 1) return parts[0];
  // kMakeKey moves its operands out of their registers, so operands
  // must be distinct non-parameter slots (two bare-variable keys both
  // compile to the parameter slot).
  std::vector<uint32_t> ops;
  ops.reserve(parts.size());
  for (uint32_t p : parts) {
    if (p < c.prog.num_params ||
        std::find(ops.begin(), ops.end(), p) != ops.end()) {
      uint32_t m = c.AllocReg();
      c.Emit(OpCode::kMove, m, p);
      p = m;
    }
    ops.push_back(p);
  }
  uint32_t ret = c.AllocReg();
  c.Emit(OpCode::kMakeKey, ret, c.AddOperands(ops),
         static_cast<uint32_t>(ops.size()),
         c.AddShape(JoinKeyShape(ops.size())));
  return ret;
}

}  // namespace

void CompiledLambda::Finish(Evaluator& ev, Program prog, uint32_t ret_slot) {
  // dst is a 16-bit field; any body big enough to overflow it is no
  // longer a per-tuple lambda worth compiling.
  if (prog.num_regs > 0xffff) {
    state_ = State::kFallback;
    return;
  }
  prog.ret_slot = ret_slot;
  prog_ = std::make_unique<Program>(std::move(prog));
  vm_ = std::make_unique<Vm>(prog_.get(), &ev.db(), &ev.stats());
  state_ = State::kOk;
}

void CompiledLambda::Compile(Evaluator& ev, const Expr& body,
                             const std::vector<std::string>& params,
                             const Environment& env,
                             const TupleShape* param0_shape) {
  CompileProbe probe(*this);
  Compiler c(ev, env);
  for (size_t i = 0; i < params.size(); ++i) {
    c.AddParam(params[i], i == 0 ? param0_shape : nullptr);
  }
  uint32_t ret = c.CompileNode(body);
  if (c.failed()) {
    state_ = State::kFallback;
    return;
  }
  Finish(ev, std::move(c.prog), ret);
}

void CompiledLambda::CompileKey(Evaluator& ev,
                                const std::vector<ExprPtr>& keys,
                                const std::string& var,
                                const Environment& env,
                                const TupleShape* param0_shape) {
  CompileProbe probe(*this);
  Compiler c(ev, env);
  c.AddParam(var, param0_shape);
  uint32_t ret = CompileKeyParts(c, keys);
  if (c.failed()) {
    state_ = State::kFallback;
    return;
  }
  Finish(ev, std::move(c.prog), ret);
}

const TupleShape* FirstElemShape(std::span<const Value> rows) {
  if (rows.empty()) return nullptr;
  return rows[0].is_tuple() ? rows[0].tuple_shape() : nullptr;
}

const TupleShape* FirstElemShape(const Value& set) {
  if (!set.is_set()) return nullptr;
  return FirstElemShape(set.elements());
}

}  // namespace n2j
