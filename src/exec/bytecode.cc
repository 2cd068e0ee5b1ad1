#include "exec/bytecode.h"

#include <algorithm>
#include <span>

#include "common/str_util.h"
#include "exec/eval.h"

namespace n2j {

Result<Value> ApplyBinOp(BinOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv:
    case BinOp::kMod: {
      if (!l.is_numeric() || !r.is_numeric()) {
        return Status::RuntimeError("arithmetic on non-numeric values");
      }
      if (l.is_int() && r.is_int()) {
        int64_t a = l.int_value(), b = r.int_value();
        switch (op) {
          case BinOp::kAdd: return Value::Int(a + b);
          case BinOp::kSub: return Value::Int(a - b);
          case BinOp::kMul: return Value::Int(a * b);
          case BinOp::kDiv:
            if (b == 0) return Status::RuntimeError("division by zero");
            return Value::Int(a / b);
          case BinOp::kMod:
            if (b == 0) return Status::RuntimeError("modulo by zero");
            return Value::Int(a % b);
          default: break;
        }
      }
      double a = l.as_double(), b = r.as_double();
      switch (op) {
        case BinOp::kAdd: return Value::Double(a + b);
        case BinOp::kSub: return Value::Double(a - b);
        case BinOp::kMul: return Value::Double(a * b);
        case BinOp::kDiv:
          if (b == 0.0) return Status::RuntimeError("division by zero");
          return Value::Double(a / b);
        case BinOp::kMod:
          return Status::RuntimeError("modulo on non-integers");
        default: break;
      }
      return Status::Internal("bad arithmetic op");
    }

    case BinOp::kEq: return Value::Bool(l == r);
    case BinOp::kNe: return Value::Bool(l != r);
    case BinOp::kLt: return Value::Bool(l.Compare(r) < 0);
    case BinOp::kLe: return Value::Bool(l.Compare(r) <= 0);
    case BinOp::kGt: return Value::Bool(l.Compare(r) > 0);
    case BinOp::kGe: return Value::Bool(l.Compare(r) >= 0);

    case BinOp::kIn:
      if (!r.is_set()) return Status::RuntimeError("in: rhs not a set");
      return Value::Bool(r.SetContains(l));
    case BinOp::kContains:
      if (!l.is_set()) {
        return Status::RuntimeError("contains: lhs not a set");
      }
      return Value::Bool(l.SetContains(r));
    case BinOp::kSubset:
    case BinOp::kSubsetEq:
    case BinOp::kSupset:
    case BinOp::kSupsetEq: {
      if (!l.is_set() || !r.is_set()) {
        return Status::RuntimeError("set comparison on non-sets");
      }
      switch (op) {
        case BinOp::kSubset: return Value::Bool(l.IsSubsetOf(r, true));
        case BinOp::kSubsetEq: return Value::Bool(l.IsSubsetOf(r, false));
        case BinOp::kSupset: return Value::Bool(r.IsSubsetOf(l, true));
        case BinOp::kSupsetEq: return Value::Bool(r.IsSubsetOf(l, false));
        default: break;
      }
      return Status::Internal("bad set comparison");
    }

    case BinOp::kUnionOp:
    case BinOp::kIntersectOp:
    case BinOp::kDifferenceOp: {
      if (!l.is_set() || !r.is_set()) {
        return Status::RuntimeError("set operator on non-sets");
      }
      if (op == BinOp::kUnionOp) return l.SetUnion(r);
      if (op == BinOp::kIntersectOp) return l.SetIntersect(r);
      return l.SetDifference(r);
    }

    case BinOp::kAnd:
    case BinOp::kOr:
      break;  // short-circuited by the caller
  }
  return Status::Internal("unhandled binary op");
}

Result<Value> ApplyUnOp(UnOp op, const Value& in) {
  switch (op) {
    case UnOp::kNot:
      if (!in.is_bool()) {
        return Status::RuntimeError("not on non-bool");
      }
      return Value::Bool(!in.bool_value());
    case UnOp::kNeg:
      if (in.is_int()) return Value::Int(-in.int_value());
      if (in.is_double()) return Value::Double(-in.double_value());
      return Status::RuntimeError("negation on non-numeric");
    case UnOp::kIsEmpty:
      if (!in.is_set()) {
        return Status::RuntimeError("isempty on non-set");
      }
      return Value::Bool(in.set_size() == 0);
  }
  return Status::Internal("bad unary op");
}

Result<Value> ApplyAggregate(AggKind kind, const Value& in) {
  if (!in.is_set()) return Status::RuntimeError("aggregate over non-set");
  const std::vector<Value>& es = in.elements();
  switch (kind) {
    case AggKind::kCount:
      return Value::Int(static_cast<int64_t>(es.size()));
    case AggKind::kSum: {
      bool any_double = false;
      int64_t isum = 0;
      double dsum = 0;
      for (const Value& v : es) {
        if (!v.is_numeric()) {
          return Status::RuntimeError("sum over non-numeric set");
        }
        if (v.is_double()) any_double = true;
        dsum += v.as_double();
        if (v.is_int()) isum += v.int_value();
      }
      return any_double ? Value::Double(dsum) : Value::Int(isum);
    }
    case AggKind::kAvg: {
      if (es.empty()) return Value::Null();
      double dsum = 0;
      for (const Value& v : es) {
        if (!v.is_numeric()) {
          return Status::RuntimeError("avg over non-numeric set");
        }
        dsum += v.as_double();
      }
      return Value::Double(dsum / static_cast<double>(es.size()));
    }
    case AggKind::kMin:
    case AggKind::kMax: {
      if (es.empty()) return Value::Null();
      // Canonical sets are sorted, so min/max are the endpoints.
      return kind == AggKind::kMin ? es.front() : es.back();
    }
  }
  return Status::Internal("bad aggregate kind");
}

Result<Value> ConcatTuplesChecked(const Value& l, const Value& r) {
  if (!l.is_tuple() || !r.is_tuple()) {
    return Status::RuntimeError("tuple concatenation on non-tuples");
  }
  const TupleShape* combined = l.tuple_shape()->ConcatWith(r.tuple_shape());
  if (combined == nullptr) {
    for (const std::string& n : r.tuple_shape()->names()) {
      if (l.FindField(n) != nullptr) {
        return Status::RuntimeError("attribute naming conflict: " + n);
      }
    }
    return Status::RuntimeError("attribute naming conflict");
  }
  return l.ConcatTupleAs(combined, r);
}

namespace {

/// kProject's plan for one input shape, cached per instruction in `sc`:
/// the source index of each projected name. Returns the first missing
/// name (the interpreter's error), or nullptr.
const std::string* PlanProjection(ShapeCache& sc, const TupleShape* shape,
                                  const std::vector<std::string>& names) {
  if (shape != sc.in) {
    sc.in = shape;
    sc.out = TupleShape::Intern(names);
    sc.index.clear();
    sc.complete = true;
    for (const std::string& n : names) {
      int i = shape->IndexOf(n);
      if (i < 0) sc.complete = false;
      sc.index.push_back(i);
    }
  }
  if (!sc.complete) {
    for (size_t k = 0; k < sc.index.size(); ++k) {
      if (sc.index[k] < 0) return &names[k];
    }
  }
  return nullptr;
}

/// The kProject result for `in` under its resolved plan: the projected
/// tuple, or with kProjectField set the one field `ins.d` selects.
Value ProjectWithPlan(const Instr& ins, const ShapeCache& sc,
                      const Value& in) {
  if (ins.flag == kProjectField) {
    return in.field_value(static_cast<size_t>(sc.index[ins.d]));
  }
  // Mirrors Value::ProjectTuple's identity fast path.
  if (sc.out == sc.in) return in;
  std::span<const Value> src = in.tuple_values();
  Value* slots = nullptr;
  Value out = Value::NewTuple(sc.out, &slots);
  for (int i : sc.index) *slots++ = src[static_cast<size_t>(i)];
  return out;
}

/// `v`, or the object it names when it is an oid (one counted deref):
/// the implicit traversal of a field access through a reference.
/// nullptr with *err set when the oid dangles.
inline const Value* ThroughOid(const Database& db, EvalStats* stats,
                               const Value& v, Status* err) {
  if (!v.is_oid()) return &v;
  ++stats->derefs;
  const Value* obj = db.FindObject(v.oid_value());
  if (obj == nullptr) *err = ObjectStore::DanglingOid(v.oid_value());
  return obj;
}

/// Field names[ins.b] of `in` through kDerefField's one-entry inline
/// cache, with kField's checks (kField keeps its own inline copy);
/// nullptr with *err set when `in` is not a tuple or lacks the field.
inline const Value* CachedField(const Instr& ins, const std::string& name,
                                const Value& in, Status* err) {
  if (!in.is_tuple()) {
    *err = Status::RuntimeError("field access '" + name +
                                "' on non-tuple value");
    return nullptr;
  }
  const TupleShape* shape = in.tuple_shape();
  if (shape != ins.cache_shape) {
    ins.cache_shape = shape;
    ins.cache_index = shape->IndexOf(name);
  }
  if (ins.cache_index < 0) {
    *err = Status::RuntimeError("no field '" + name + "' in " +
                                in.ToString());
    return nullptr;
  }
  return &in.tuple_values()[static_cast<size_t>(ins.cache_index)];
}

/// kDeref: the object `ref` names, or nullptr with *err set.
inline const Value* DerefObject(const Database& db, EvalStats* stats,
                                const Value& ref, Status* err) {
  if (!ref.is_oid()) {
    *err = Status::RuntimeError("deref on non-oid value");
    return nullptr;
  }
  return ThroughOid(db, stats, ref, err);
}

/// kDerefField: deref(ref).name with the unfused pair's checks in order —
/// kDeref's, then kField's (which follows an oid-valued object once
/// more) — reading the field off the stored object.
inline const Value* DerefField(const Database& db, EvalStats* stats,
                               const Instr& ins, const std::string& name,
                               const Value& ref, Status* err) {
  const Value* obj = DerefObject(db, stats, ref, err);
  if (obj != nullptr) obj = ThroughOid(db, stats, *obj, err);
  return obj == nullptr ? nullptr : CachedField(ins, name, *obj, err);
}

}  // namespace

Vm::Vm(const Program* prog, const Database* db, EvalStats* stats)
    : prog_(prog), db_(db), stats_(stats) {
  regs_.resize(prog->num_regs);
}

Value* Vm::Run() {
  ++stats_->compiled_evals;
  if (!RunRange(0, prog_->code.size())) return nullptr;
  return &regs_[prog_->ret_slot];
}

bool Vm::RunRange(size_t begin, size_t end) {
  const Instr* code = prog_->code.data();
  Value* regs = regs_.data();
  size_t pc = begin;
  while (pc < end) {
    const Instr& ins = code[pc];
    switch (ins.op) {
      case OpCode::kLoadConst:
        regs[ins.dst] = prog_->consts[ins.a];
        break;

      case OpCode::kMove:
        regs[ins.dst] = regs[ins.a];
        break;

      case OpCode::kField: {
        const Value* in = &regs[ins.a];
        if (in->is_oid()) {
          ++stats_->derefs;
          in = db_->FindObject(in->oid_value());
          if (in == nullptr) {
            return Fail(ObjectStore::DanglingOid(regs[ins.a].oid_value()));
          }
        }
        const std::string& name = prog_->names[ins.b];
        if (!in->is_tuple()) {
          return Fail(Status::RuntimeError("field access '" + name +
                                           "' on non-tuple value"));
        }
        const TupleShape* shape = in->tuple_shape();
        if (shape != ins.cache_shape) {
          ins.cache_shape = shape;
          ins.cache_index = shape->IndexOf(name);
        }
        if (ins.cache_index < 0) {
          return Fail(Status::RuntimeError("no field '" + name + "' in " +
                                           in->ToString()));
        }
        regs[ins.dst] =
            in->tuple_values()[static_cast<size_t>(ins.cache_index)];
        break;
      }

      case OpCode::kDerefField: {
        const Value* f = DerefField(*db_, stats_, ins, prog_->names[ins.b],
                                    regs[ins.a], &status_);
        if (f == nullptr) return false;
        regs[ins.dst] = *f;
        break;
      }

      case OpCode::kProject: {
        const Value& in = regs[ins.a];
        if (!in.is_tuple()) {
          return Fail(Status::RuntimeError("tuple projection on non-tuple"));
        }
        ShapeCache& sc = prog_->shape_caches[ins.c];
        if (const std::string* missing = PlanProjection(
                sc, in.tuple_shape(), prog_->name_lists[ins.b])) {
          return Fail(
              Status::RuntimeError("no field '" + *missing + "' in tuple"));
        }
        regs[ins.dst] = ProjectWithPlan(ins, sc, in);
        break;
      }

      case OpCode::kMakeTuple: {
        Value* slots = nullptr;
        Value t = Value::NewTuple(prog_->shapes[ins.c], &slots);
        for (uint32_t i = 0; i < ins.b; ++i) {
          slots[i] = regs[prog_->operands[ins.a + i]];
        }
        regs[ins.dst] = std::move(t);
        break;
      }

      case OpCode::kConcat: {
        Result<Value> c = ConcatTuplesChecked(regs[ins.a], regs[ins.b]);
        if (!c.ok()) return Fail(c.status());
        regs[ins.dst] = std::move(*c);
        break;
      }

      case OpCode::kGuard:
        // Emitted between the base and the update operands of `except`
        // so the non-tuple check fires before the updates evaluate,
        // exactly like the interpreter.
        if (!regs[ins.a].is_tuple()) {
          return Fail(Status::RuntimeError("except on non-tuple"));
        }
        break;

      case OpCode::kExcept: {
        const Value& base = regs[ins.a];
        const std::vector<std::string>& names = prog_->name_lists[ins.d];
        ShapeCache& sc = prog_->shape_caches[ins.c];
        if (base.tuple_shape() != sc.in) {
          // Replay ExceptUpdate's sequential replace-or-append once per
          // observed shape (later updates may hit earlier appends).
          sc.in = base.tuple_shape();
          const TupleShape* shape = sc.in;
          sc.index.clear();
          for (const std::string& n : names) {
            int i = shape->IndexOf(n);
            if (i < 0) {
              shape = shape->ExtendedWith(n);
              i = static_cast<int>(shape->size()) - 1;
            }
            sc.index.push_back(i);
          }
          sc.out = shape;
        }
        std::span<const Value> src = base.tuple_values();
        Value* slots = nullptr;
        Value t = Value::NewTuple(sc.out, &slots);
        std::copy(src.begin(), src.end(), slots);
        for (size_t k = 0; k < sc.index.size(); ++k) {
          slots[sc.index[k]] = regs[prog_->operands[ins.b + k]];
        }
        regs[ins.dst] = std::move(t);
        break;
      }

      case OpCode::kMakeSet: {
        std::vector<Value> elems;
        elems.reserve(ins.b);
        for (uint32_t i = 0; i < ins.b; ++i) {
          elems.push_back(regs[prog_->operands[ins.a + i]]);
        }
        regs[ins.dst] = Value::Set(std::move(elems));
        break;
      }

      case OpCode::kDeref: {
        const Value* obj = DerefObject(*db_, stats_, regs[ins.a], &status_);
        if (obj == nullptr) return false;
        regs[ins.dst] = *obj;
        break;
      }

      case OpCode::kUnary: {
        Result<Value> r =
            ApplyUnOp(static_cast<UnOp>(ins.flag), regs[ins.a]);
        if (!r.ok()) return Fail(r.status());
        regs[ins.dst] = std::move(*r);
        break;
      }

      case OpCode::kBinary: {
        const Value& l = regs[ins.a];
        const Value& r = regs[ins.b];
        BinOp op = static_cast<BinOp>(ins.flag);
        // Inline fast paths; everything else shares ApplyBinOp with the
        // interpreter (the fast paths are semantically identical).
        bool done = true;
        Value out;
        switch (op) {
          case BinOp::kEq: out = Value::Bool(l == r); break;
          case BinOp::kNe: out = Value::Bool(l != r); break;
          case BinOp::kLt: out = Value::Bool(l.Compare(r) < 0); break;
          case BinOp::kLe: out = Value::Bool(l.Compare(r) <= 0); break;
          case BinOp::kGt: out = Value::Bool(l.Compare(r) > 0); break;
          case BinOp::kGe: out = Value::Bool(l.Compare(r) >= 0); break;
          case BinOp::kAdd:
            if (l.is_int() && r.is_int()) {
              out = Value::Int(l.int_value() + r.int_value());
            } else {
              done = false;
            }
            break;
          case BinOp::kSub:
            if (l.is_int() && r.is_int()) {
              out = Value::Int(l.int_value() - r.int_value());
            } else {
              done = false;
            }
            break;
          case BinOp::kMul:
            if (l.is_int() && r.is_int()) {
              out = Value::Int(l.int_value() * r.int_value());
            } else {
              done = false;
            }
            break;
          default:
            done = false;
            break;
        }
        if (!done) {
          Result<Value> rv = ApplyBinOp(op, l, r);
          if (!rv.ok()) return Fail(rv.status());
          out = std::move(*rv);
        }
        regs[ins.dst] = std::move(out);
        break;
      }

      case OpCode::kAndProbe: {
        const Value& l = regs[ins.a];
        if (!l.is_bool()) {
          return Fail(Status::RuntimeError("and/or on non-bool"));
        }
        if (!l.bool_value()) {
          regs[ins.dst] = Value::Bool(false);
          pc = ins.b;
          continue;
        }
        break;
      }

      case OpCode::kOrProbe: {
        const Value& l = regs[ins.a];
        if (!l.is_bool()) {
          return Fail(Status::RuntimeError("and/or on non-bool"));
        }
        if (l.bool_value()) {
          regs[ins.dst] = Value::Bool(true);
          pc = ins.b;
          continue;
        }
        break;
      }

      case OpCode::kBoolMove: {
        const Value& r = regs[ins.a];
        if (!r.is_bool()) {
          return Fail(Status::RuntimeError("and/or on non-bool"));
        }
        regs[ins.dst] = r;
        break;
      }

      case OpCode::kQuant: {
        const Value& range = regs[ins.a];
        if (!range.is_set()) {
          return Fail(Status::RuntimeError("quantifier range not a set"));
        }
        const bool exists = ins.flag != 0;
        const size_t body_begin = pc + 1;
        const size_t body_end = body_begin + ins.c;
        bool result = !exists;
        for (const Value& x : range.elements()) {
          ++stats_->tuples_scanned;
          ++stats_->predicate_evals;
          regs[ins.b] = x;
          if (!RunRange(body_begin, body_end)) return false;
          const Value& p = regs[ins.d];
          if (!p.is_bool()) {
            return Fail(
                Status::RuntimeError("quantifier predicate not boolean"));
          }
          if (exists && p.bool_value()) {
            result = true;
            break;
          }
          if (!exists && !p.bool_value()) {
            result = false;
            break;
          }
        }
        regs[ins.dst] = Value::Bool(result);
        pc = body_end;
        continue;
      }

      case OpCode::kAggregate: {
        Result<Value> r =
            ApplyAggregate(static_cast<AggKind>(ins.flag), regs[ins.a]);
        if (!r.ok()) return Fail(r.status());
        regs[ins.dst] = std::move(*r);
        break;
      }

      case OpCode::kSetOp: {
        const Value& l = regs[ins.a];
        const Value& r = regs[ins.b];
        if (!l.is_set() || !r.is_set()) {
          static const char* kMsgs[] = {"union over non-sets",
                                        "intersect over non-sets",
                                        "difference over non-sets"};
          return Fail(Status::RuntimeError(kMsgs[ins.flag]));
        }
        regs[ins.dst] = ins.flag == 0   ? l.SetUnion(r)
                        : ins.flag == 1 ? l.SetIntersect(r)
                                        : l.SetDifference(r);
        break;
      }

      case OpCode::kMakeKey: {
        // Mirrors JoinKeyFromParts: a single part is the key itself; a
        // composite key is a tuple over the interned k0..kn-1 shape.
        if (ins.b == 1) {
          regs[ins.dst] = std::move(regs[prog_->operands[ins.a]]);
          break;
        }
        Value* slots = nullptr;
        Value key = Value::NewTuple(prog_->shapes[ins.c], &slots);
        for (uint32_t i = 0; i < ins.b; ++i) {
          slots[i] = std::move(regs[prog_->operands[ins.a + i]]);
        }
        regs[ins.dst] = std::move(key);
        break;
      }
    }
    ++pc;
  }
  return true;
}

namespace {

std::string RegName(uint32_t r) { return StrFormat("r%u", r); }

}  // namespace

std::string Program::Disassemble() const {
  std::string out = StrFormat("program regs=%u params=%u\n", num_regs,
                              num_params);
  for (size_t pc = 0; pc < code.size(); ++pc) {
    const Instr& ins = code[pc];
    out += StrFormat("%3zu: ", pc);
    switch (ins.op) {
      case OpCode::kLoadConst:
        out += StrFormat("const   %s <- %s", RegName(ins.dst).c_str(),
                         consts[ins.a].ToString().c_str());
        break;
      case OpCode::kMove:
        out += StrFormat("move    %s <- %s", RegName(ins.dst).c_str(),
                         RegName(ins.a).c_str());
        break;
      case OpCode::kField:
        out += StrFormat("field   %s <- %s .%s", RegName(ins.dst).c_str(),
                         RegName(ins.a).c_str(), names[ins.b].c_str());
        if (ins.cache_shape != nullptr && ins.cache_index >= 0) {
          out += StrFormat("@%d", ins.cache_index);
        }
        break;
      case OpCode::kProject: {
        const bool field = ins.flag == kProjectField;
        out += StrFormat("%s %s <- %s [", field ? "projfld" : "project",
                         RegName(ins.dst).c_str(), RegName(ins.a).c_str());
        const std::vector<std::string>& ns = name_lists[ins.b];
        for (size_t i = 0; i < ns.size(); ++i) {
          if (i > 0) out += ", ";
          out += ns[i];
        }
        out += "]";
        if (field) out += "." + ns[ins.d];
        break;
      }
      case OpCode::kMakeTuple: {
        out += StrFormat("tuple   %s <- (", RegName(ins.dst).c_str());
        for (uint32_t i = 0; i < ins.b; ++i) {
          if (i > 0) out += ", ";
          out += shapes[ins.c]->name(i) + " = " +
                 RegName(operands[ins.a + i]);
        }
        out += ")";
        break;
      }
      case OpCode::kConcat:
        out += StrFormat("concat  %s <- %s o %s", RegName(ins.dst).c_str(),
                         RegName(ins.a).c_str(), RegName(ins.b).c_str());
        break;
      case OpCode::kGuard:
        out += StrFormat("guard   %s is tuple", RegName(ins.a).c_str());
        break;
      case OpCode::kExcept: {
        out += StrFormat("except  %s <- %s (", RegName(ins.dst).c_str(),
                         RegName(ins.a).c_str());
        const std::vector<std::string>& ns = name_lists[ins.d];
        for (size_t i = 0; i < ns.size(); ++i) {
          if (i > 0) out += ", ";
          out += ns[i] + " = " + RegName(operands[ins.b + i]);
        }
        out += ")";
        break;
      }
      case OpCode::kMakeSet: {
        out += StrFormat("set     %s <- {", RegName(ins.dst).c_str());
        for (uint32_t i = 0; i < ins.b; ++i) {
          if (i > 0) out += ", ";
          out += RegName(operands[ins.a + i]);
        }
        out += "}";
        break;
      }
      case OpCode::kDeref:
        out += StrFormat("deref   %s <- *%s", RegName(ins.dst).c_str(),
                         RegName(ins.a).c_str());
        break;
      case OpCode::kDerefField:
        out += StrFormat("dfield  %s <- *%s .%s", RegName(ins.dst).c_str(),
                         RegName(ins.a).c_str(), names[ins.b].c_str());
        if (ins.cache_shape != nullptr && ins.cache_index >= 0) {
          out += StrFormat("@%d", ins.cache_index);
        }
        break;
      case OpCode::kUnary:
        out += StrFormat("unary   %s <- %s %s", RegName(ins.dst).c_str(),
                         UnOpName(static_cast<UnOp>(ins.flag)),
                         RegName(ins.a).c_str());
        break;
      case OpCode::kBinary:
        out += StrFormat("binary  %s <- %s %s %s", RegName(ins.dst).c_str(),
                         RegName(ins.a).c_str(),
                         BinOpName(static_cast<BinOp>(ins.flag)),
                         RegName(ins.b).c_str());
        break;
      case OpCode::kAndProbe:
        out += StrFormat("and?    %s <- %s else jump %u",
                         RegName(ins.dst).c_str(), RegName(ins.a).c_str(),
                         ins.b);
        break;
      case OpCode::kOrProbe:
        out += StrFormat("or?     %s <- %s else jump %u",
                         RegName(ins.dst).c_str(), RegName(ins.a).c_str(),
                         ins.b);
        break;
      case OpCode::kBoolMove:
        out += StrFormat("bool    %s <- %s", RegName(ins.dst).c_str(),
                         RegName(ins.a).c_str());
        break;
      case OpCode::kQuant:
        out += StrFormat("%s %s <- %s in %s body=%u pred=%s",
                         ins.flag != 0 ? "exists " : "forall ",
                         RegName(ins.dst).c_str(), RegName(ins.b).c_str(),
                         RegName(ins.a).c_str(), ins.c,
                         RegName(ins.d).c_str());
        break;
      case OpCode::kAggregate:
        out += StrFormat("agg     %s <- %s(%s)", RegName(ins.dst).c_str(),
                         AggKindName(static_cast<AggKind>(ins.flag)),
                         RegName(ins.a).c_str());
        break;
      case OpCode::kSetOp: {
        static const char* kOps[] = {"union", "intersect", "minus"};
        out += StrFormat("setop   %s <- %s %s %s", RegName(ins.dst).c_str(),
                         RegName(ins.a).c_str(), kOps[ins.flag],
                         RegName(ins.b).c_str());
        break;
      }
      case OpCode::kMakeKey: {
        out += StrFormat("key     %s <- [", RegName(ins.dst).c_str());
        for (uint32_t i = 0; i < ins.b; ++i) {
          if (i > 0) out += ", ";
          out += RegName(operands[ins.a + i]);
        }
        out += "]";
        break;
      }
    }
    out += "\n";
  }
  out += StrFormat("ret %s\n", RegName(ret_slot).c_str());
  return out;
}

}  // namespace n2j
