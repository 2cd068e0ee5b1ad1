// Sort-merge implementation of the join family. Both operands are
// sorted on their evaluated equi keys and merged; equal-key runs pair up
// and the residual predicate filters within a run. The nestjoin adapts
// naturally: each left tuple's group is the filtered right run —
// "common join implementation methods like the sort-merge join ... can
// be adapted" (Section 6.1).

#include <algorithm>

#include "exec/compile.h"
#include "exec/equi_join.h"
#include "exec/eval.h"
#include "obs/trace.h"

namespace n2j {

namespace {

struct Keyed {
  Value key;
  const Value* row;
};

}  // namespace

Status Evaluator::SortMergeJoin(const Expr& e, const JoinShape& shape,
                                const Rows& l, const Value& r,
                                Environment& env, std::vector<Value>* out) {
  const EquiJoinKeys& keys = shape.keys;
  if (opts_.trace != nullptr) opts_.trace->AnnotateOpen(keys.Describe());

  ExprPtr residual = Expr::AndAll(keys.residual);
  JoinLambdas jl;
  CompileJoinLambdas(e, keys, *residual, l, &r, env, &jl);

  auto build_keyed = [&](std::span<const Value> operand,
                         const std::string& var,
                         const std::vector<ExprPtr>& key_exprs,
                         CompiledLambda& key_cl,
                         std::vector<Keyed>* out) -> Status {
    out->reserve(operand.size());
    for (const Value& row : operand) {
      ++stats_.tuples_scanned;
      N2J_ASSIGN_OR_RETURN(Value key,
                           JoinKey(key_cl, key_exprs, var, row, env));
      out->push_back({std::move(key), &row});
    }
    stats_.rows_sorted += out->size();
    std::sort(out->begin(), out->end(),
              [](const Keyed& a, const Keyed& b) {
                return a.key.Compare(b.key) < 0;
              });
    return Status::OK();
  };

  std::vector<Keyed> left;
  std::vector<Keyed> right;
  N2J_RETURN_IF_ERROR(
      build_keyed(l.elements(), e.var(), keys.left_keys, jl.left_key, &left));
  N2J_RETURN_IF_ERROR(build_keyed(r.elements(), e.var2(), keys.right_keys,
                                  jl.right_key, &right));

  size_t i = 0;
  size_t j = 0;
  while (i < left.size()) {
    // Advance the right cursor to the left key.
    int cmp = -1;
    while (j < right.size() &&
           (cmp = right[j].key.Compare(left[i].key)) < 0) {
      ++j;
    }
    // The right run matching this key: [j, run_end).
    size_t run_end = j;
    if (j < right.size() && cmp == 0) {
      while (run_end < right.size() &&
             right[run_end].key == left[i].key) {
        ++run_end;
      }
    }
    // Every left tuple with this key pairs against the same run.
    const Value& key = left[i].key;
    while (i < left.size() && left[i].key == key) {
      const Value& x = *left[i].row;
      jl.matches.clear();
      for (size_t k = j; k < run_end; ++k) {
        bool holds = true;
        if (!keys.residual.empty()) {
          N2J_RETURN_IF_ERROR(ResidualHolds(e, *residual, jl.residual, x,
                                            *right[k].row, env, &holds));
        }
        if (holds) jl.matches.push_back(right[k].row);
      }
      N2J_RETURN_IF_ERROR(EmitJoinResult(e, x, jl.matches,
                                         /*canonical_build=*/true, env, out,
                                         jl));
      ++i;
    }
    j = run_end;
  }
  return Status::OK();
}

}  // namespace n2j
