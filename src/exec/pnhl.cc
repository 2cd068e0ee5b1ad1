#include "exec/pnhl.h"

#include <unordered_map>

#include "common/status.h"
#include "exec/bytecode.h"
#include "exec/join_table.h"
#include "exec/morsel.h"

namespace n2j {

namespace {

/// Drops the (duplicated) join key field of an inner tuple before
/// concatenating it to a set element — natural-join convention, as in the
/// paper's `x.parts * PART` example where pid appears once. When the key
/// names differ (params.drop_inner_key == false) the tuple is kept whole.
Value InnerPayload(const Value& t, const PnhlParams& params) {
  if (!params.drop_inner_key) return t;
  return t.WithoutField(params.inner_key);
}

Status CheckOperands(const Value& outer, const Value& inner,
                     const PnhlParams& params) {
  if (!outer.is_set() || !inner.is_set()) {
    return Status::InvalidArgument("PNHL operands must be sets");
  }
  for (const Value& x : outer.elements()) {
    if (!x.is_tuple()) {
      return Status::InvalidArgument("outer element is not a tuple");
    }
    const Value* attr = x.FindField(params.set_attr);
    if (attr == nullptr || !attr->is_set()) {
      return Status::InvalidArgument("outer tuples need set attribute '" +
                                     params.set_attr + "'");
    }
  }
  return Status::OK();
}

}  // namespace

Result<Value> PnhlJoin(const Value& outer, const Value& inner,
                       const PnhlParams& params, PnhlStats* stats) {
  N2J_RETURN_IF_ERROR(CheckOperands(outer, inner, params));
  PnhlStats local;
  PnhlStats& st = stats != nullptr ? *stats : local;
  st = PnhlStats();

  // Phase 0: split the inner (build) table into segments that fit the
  // memory budget. In PNHL only the flat table can be the build table.
  // A row is admitted while the running total stays within budget; the
  // comparison is phrased subtraction-side so `bytes + sz` can never
  // overflow size_t. A row larger than the whole budget still gets a
  // (singleton) segment — segments are never empty.
  const std::vector<Value>& build = inner.elements();
  std::vector<std::pair<size_t, size_t>> segments;  // [begin, end)
  size_t begin = 0;
  size_t bytes = 0;
  for (size_t i = 0; i < build.size(); ++i) {
    size_t sz = build[i].ApproxBytes();
    if (bytes > 0 && (bytes >= params.memory_budget ||
                      sz > params.memory_budget - bytes)) {
      segments.emplace_back(begin, i);
      begin = i;
      bytes = 0;
    }
    bytes += sz;
  }
  segments.emplace_back(begin, build.size());
  st.partitions = static_cast<uint32_t>(segments.size());

  // Per-segment pass: build a hash table over the segment, probe every
  // outer tuple's set elements against it. Segments are independent
  // morsels, parallel when num_threads > 1; each writes its own
  // partial-result and stats slots, merged in segment order below, which
  // makes the output and counters identical to the serial loop.
  const std::vector<Value>& xs = outer.elements();
  std::vector<std::vector<std::vector<Value>>> partial(
      segments.size(), std::vector<std::vector<Value>>(xs.size()));
  std::vector<PnhlStats> seg_stats(segments.size());

  auto run_segment = [&](size_t s) -> Status {
    const auto& [seg_begin, seg_end] = segments[s];
    PnhlStats& sst = seg_stats[s];
    // One-entry field caches (bytecode.h): rows of one operand share an
    // interned shape, so the name lookup resolves to an index once per
    // shape instead of once per row. Per-segment, so each parallel task
    // owns its cursors.
    FieldCursor inner_key_at;
    FieldCursor set_attr_at;
    FieldCursor elem_key_at;
    JoinTable table(seg_end - seg_begin);
    for (size_t i = seg_begin; i < seg_end; ++i) {
      const Value* key = inner_key_at.Find(build[i], params.inner_key);
      if (key == nullptr) {
        return Status::InvalidArgument("inner tuples need key field '" +
                                       params.inner_key + "'");
      }
      ++sst.build_inserts;
      table.Insert(*key, static_cast<uint32_t>(i));
    }
    if (table.num_keys() > sst.peak_table_entries) {
      sst.peak_table_entries = table.num_keys();
    }
    // Probe the outer operand (its clustered set elements) against the
    // segment, producing partial results that are merged positionally.
    for (size_t xi = 0; xi < xs.size(); ++xi) {
      ++sst.probe_tuples;
      const Value& attr = *set_attr_at.Find(xs[xi], params.set_attr);
      for (const Value& e : attr.elements()) {
        ++sst.probe_elements;
        if (!e.is_tuple()) {
          return Status::InvalidArgument("set element is not a tuple");
        }
        const Value* key = elem_key_at.Find(e, params.elem_key);
        if (key == nullptr) {
          return Status::InvalidArgument("set elements need key field '" +
                                         params.elem_key + "'");
        }
        for (uint32_t bi : table.Find(*key)) {
          ++sst.matches;
          partial[s][xi].push_back(
              e.ConcatTuple(InnerPayload(build[bi], params)));
        }
      }
    }
    return Status::OK();
  };

  N2J_RETURN_IF_ERROR(RunMorsels(
      params.num_threads, segments.size(), "pnhl/segment", params.trace,
      [&](int /*worker*/, size_t s) { return run_segment(s); }));
  for (const PnhlStats& sst : seg_stats) {
    st.build_inserts += sst.build_inserts;
    st.probe_tuples += sst.probe_tuples;
    st.probe_elements += sst.probe_elements;
    st.matches += sst.matches;
    if (sst.peak_table_entries > st.peak_table_entries) {
      st.peak_table_entries = sst.peak_table_entries;
    }
  }

  // Phase 2: merge partial results (in segment order) into the final
  // nested relation.
  std::vector<Value> out;
  out.reserve(xs.size());
  for (size_t xi = 0; xi < xs.size(); ++xi) {
    std::vector<Value> joined;
    for (size_t s = 0; s < segments.size(); ++s) {
      for (Value& v : partial[s][xi]) joined.push_back(std::move(v));
    }
    out.push_back(xs[xi].ExceptUpdate(
        {Field(params.set_attr, Value::Set(std::move(joined)))}));
  }
  return Value::Set(std::move(out));
}

Result<Value> UnnestJoinNest(const Value& outer, const Value& inner,
                             const PnhlParams& params, bool keep_dangling,
                             PnhlStats* stats) {
  N2J_RETURN_IF_ERROR(CheckOperands(outer, inner, params));
  PnhlStats local;
  PnhlStats& st = stats != nullptr ? *stats : local;
  st = PnhlStats();

  // Build a hash table over the whole inner table.
  const std::vector<Value>& build = inner.elements();
  JoinTable table(build.size());
  for (size_t i = 0; i < build.size(); ++i) {
    const Value* key = build[i].FindField(params.inner_key);
    if (key == nullptr) {
      return Status::InvalidArgument("inner tuples need key field '" +
                                     params.inner_key + "'");
    }
    ++st.build_inserts;
    table.Insert(*key, static_cast<uint32_t>(i));
  }

  // Unnest + probe: every (x, element) pair carries a full copy of x's
  // flat attributes — this duplication is the cost the paper's
  // "unnest-join-nest processing method" pays and PNHL avoids.
  const std::vector<Value>& xs = outer.elements();
  std::unordered_map<Value, std::vector<Value>, ValueHash> groups;
  std::vector<const Value*> order;
  order.reserve(xs.size());
  std::unordered_map<Value, const Value*, ValueHash> originals;
  for (const Value& x : xs) {
    Value key = x.WithoutField(params.set_attr);
    auto [it, inserted] = originals.try_emplace(key, &x);
    (void)it;
    if (inserted && keep_dangling) order.push_back(&x);
    const Value& attr = *x.FindField(params.set_attr);
    for (const Value& e : attr.elements()) {
      ++st.probe_elements;
      const Value* ekey = e.FindField(params.elem_key);
      if (ekey == nullptr) {
        return Status::InvalidArgument("set elements need key field '" +
                                       params.elem_key + "'");
      }
      for (uint32_t ti : table.Find(*ekey)) {
        ++st.matches;
        groups[key].push_back(
            e.ConcatTuple(InnerPayload(build[ti], params)));
        if (!keep_dangling && groups[key].size() == 1) {
          order.push_back(&x);
        }
      }
    }
    ++st.probe_tuples;
  }

  // Nest phase: regroup per outer tuple.
  std::vector<Value> out;
  out.reserve(order.size());
  for (const Value* x : order) {
    Value key = x->WithoutField(params.set_attr);
    auto it = groups.find(key);
    std::vector<Value> members =
        it == groups.end() ? std::vector<Value>() : it->second;
    out.push_back(x->ExceptUpdate(
        {Field(params.set_attr, Value::Set(std::move(members)))}));
  }
  return Value::Set(std::move(out));
}

Result<Value> NestedLoopSetJoin(const Value& outer, const Value& inner,
                                const PnhlParams& params, PnhlStats* stats) {
  N2J_RETURN_IF_ERROR(CheckOperands(outer, inner, params));
  PnhlStats local;
  PnhlStats& st = stats != nullptr ? *stats : local;
  st = PnhlStats();

  std::vector<Value> out;
  out.reserve(outer.set_size());
  FieldCursor set_attr_at;
  FieldCursor elem_key_at;
  FieldCursor inner_key_at;
  for (const Value& x : outer.elements()) {
    ++st.probe_tuples;
    const Value& attr = *set_attr_at.Find(x, params.set_attr);
    std::vector<Value> joined;
    for (const Value& e : attr.elements()) {
      ++st.probe_elements;
      const Value* ekey = elem_key_at.Find(e, params.elem_key);
      if (ekey == nullptr) {
        return Status::InvalidArgument("set elements need key field '" +
                                       params.elem_key + "'");
      }
      for (const Value& t : inner.elements()) {
        const Value* tkey = inner_key_at.Find(t, params.inner_key);
        if (tkey == nullptr) {
          return Status::InvalidArgument("inner tuples need key field '" +
                                         params.inner_key + "'");
        }
        if (*ekey == *tkey) {
          ++st.matches;
          joined.push_back(e.ConcatTuple(InnerPayload(t, params)));
        }
      }
    }
    out.push_back(x.ExceptUpdate(
        {Field(params.set_attr, Value::Set(std::move(joined)))}));
  }
  return Value::Set(std::move(out));
}

}  // namespace n2j
