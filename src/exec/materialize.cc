#include "exec/materialize.h"

#include <algorithm>

#include "common/status.h"
#include "obs/trace.h"

namespace n2j {

namespace {

Result<Oid> GetRef(const Value& x, const std::string& ref_attr) {
  if (!x.is_tuple()) {
    return Status::InvalidArgument("materialize input element not a tuple");
  }
  const Value* ref = x.FindField(ref_attr);
  if (ref == nullptr || !ref->is_oid()) {
    return Status::InvalidArgument("attribute '" + ref_attr +
                                   "' is not an oid");
  }
  return ref->oid_value();
}

}  // namespace

Result<Value> Materialize(const Database& db, const Value& input,
                          const std::string& ref_attr,
                          const std::string& result_attr,
                          MaterializeStrategy strategy, bool drop_dangling,
                          TraceCollector* trace) {
  if (!input.is_set()) {
    return Status::InvalidArgument("materialize input must be a set");
  }
  OpSpan span(trace, "materialize");
  span.Annotate(strategy == MaterializeStrategy::kNaive ? "naive"
                                                        : "assembly");
  span.RowsIn(input.set_size());

  if (strategy == MaterializeStrategy::kNaive) {
    std::vector<Value> out;
    out.reserve(input.set_size());
    for (const Value& x : input.elements()) {
      N2J_ASSIGN_OR_RETURN(Oid oid, GetRef(x, ref_attr));
      const Value* obj = db.FindObject(oid);
      if (obj == nullptr) {
        if (drop_dangling) continue;
        return ObjectStore::DanglingOid(oid);
      }
      out.push_back(x.ExceptUpdate({Field(result_attr, *obj)}));
    }
    span.RowsOut(static_cast<uint64_t>(out.size()));
    return Value::Set(std::move(out));
  }

  // Assembly: gather the needed oids, dereference them in oid order
  // (each page faulted once), then assemble the output tuples.
  std::vector<Oid> oids;
  oids.reserve(input.set_size());
  for (const Value& x : input.elements()) {
    N2J_ASSIGN_OR_RETURN(Oid oid, GetRef(x, ref_attr));
    oids.push_back(oid);
  }
  std::sort(oids.begin(), oids.end());
  oids.erase(std::unique(oids.begin(), oids.end()), oids.end());

  // objects[i] is oids[i]'s object (borrowed), nullptr if dropped.
  std::vector<const Value*> objects(oids.size());
  for (size_t i = 0; i < oids.size(); ++i) {
    objects[i] = db.FindObject(oids[i]);
    if (objects[i] == nullptr && !drop_dangling) {
      return ObjectStore::DanglingOid(oids[i]);
    }
  }

  std::vector<Value> out;
  out.reserve(input.set_size());
  for (const Value& x : input.elements()) {
    Oid oid = x.FindField(ref_attr)->oid_value();
    size_t i = static_cast<size_t>(
        std::lower_bound(oids.begin(), oids.end(), oid) - oids.begin());
    if (objects[i] == nullptr) continue;  // dropped dangling reference
    out.push_back(x.ExceptUpdate({Field(result_attr, *objects[i])}));
  }
  span.RowsOut(static_cast<uint64_t>(out.size()));
  return Value::Set(std::move(out));
}

}  // namespace n2j
