#include "obs/trace.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "common/str_util.h"
#include "common/thread_pool.h"

namespace n2j {

TraceCollector::TraceCollector() { base_ns_ = MonotonicNanos(); }

void TraceCollector::Clear() {
  spans_.clear();
  open_.clear();
  {
    std::lock_guard<std::mutex> lock(worker_mu_);
    worker_spans_.clear();
  }
  base_ns_ = MonotonicNanos();
}

int TraceCollector::Begin(const char* op, const EvalStats* now) {
  int id = static_cast<int>(spans_.size());
  TraceSpan s;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back().span;
  s.depth = static_cast<int>(open_.size());
  s.start_ns = MonotonicNanos();
  spans_.push_back(std::move(s));
  OpenFrame f;
  f.span = id;
  if (now != nullptr) f.at_begin = *now;
  open_.push_back(std::move(f));
  return id;
}

void TraceCollector::End(int id, const EvalStats* now) {
  TraceSpan& s = spans_[static_cast<size_t>(id)];
  s.end_ns = MonotonicNanos();
  // OpSpan guards close in LIFO order by construction; a mismatch is an
  // instrumentation bug.
  N2J_CHECK(!open_.empty() && open_.back().span == id);
  OpenFrame f = std::move(open_.back());
  open_.pop_back();
  if (now != nullptr) {
    s.inclusive = *now;
    s.inclusive.Subtract(f.at_begin);
  }
  s.exclusive = s.inclusive;
  s.exclusive.Subtract(f.children);
  s.child_ns = f.child_ns;
  if (!open_.empty()) {
    open_.back().children.Merge(s.inclusive);
    open_.back().child_ns += s.inclusive_ns();
  }
}

void TraceCollector::AppendDetail(int id, const std::string& d) {
  std::string& detail = spans_[static_cast<size_t>(id)].detail;
  if (!detail.empty()) detail += ' ';
  detail += d;
}

void TraceCollector::PrependDetail(int id, const std::string& d) {
  std::string& detail = spans_[static_cast<size_t>(id)].detail;
  detail = detail.empty() ? d : d + ' ' + detail;
}

void TraceCollector::AnnotateOpen(const std::string& d) {
  if (!open_.empty()) AppendDetail(open_.back().span, d);
}

void TraceCollector::NotePeakHash(uint64_t entries) {
  if (open_.empty()) return;
  TraceSpan& s = spans_[static_cast<size_t>(open_.back().span)];
  if (entries > s.peak_hash_size) s.peak_hash_size = entries;
}

void TraceCollector::AddWorkerSpan(int worker, size_t morsel,
                                   const char* phase, int64_t start_ns,
                                   int64_t end_ns) {
  std::lock_guard<std::mutex> lock(worker_mu_);
  worker_spans_.push_back(WorkerSpan{worker, morsel, phase, start_ns,
                                     end_ns});
}

EvalStats TraceCollector::SumExclusiveStats() const {
  EvalStats sum;
  for (const TraceSpan& s : spans_) sum.Merge(s.exclusive);
  return sum;
}

std::vector<NodeEstimate> TraceCollector::EstimatesByPlanNode() const {
  std::vector<NodeEstimate> out;
  std::map<const void*, size_t> index;
  for (const TraceSpan& s : spans_) {
    if (s.est_rows < 0.0) continue;
    auto [it, fresh] = index.emplace(s.plan_node, out.size());
    if (fresh) {
      out.push_back({s.Label(), 0, 0.0, 0});
    }
    NodeEstimate& e = out[it->second];
    ++e.loops;
    e.est += s.est_rows;
    e.actual += s.rows_out;
  }
  return out;
}

std::string TraceCollector::Render(const TraceRenderOptions& opts) const {
  std::vector<std::vector<int>> kids(spans_.size());
  std::vector<int> roots;
  for (size_t i = 0; i < spans_.size(); ++i) {
    int p = spans_[i].parent;
    if (p < 0) {
      roots.push_back(static_cast<int>(i));
    } else {
      kids[static_cast<size_t>(p)].push_back(static_cast<int>(i));
    }
  }

  struct Line {
    std::string label;
    std::string rest;
  };
  std::vector<Line> lines;

  // Siblings with the same (op, detail) render as one aggregated line
  // with a loops= count — per-tuple re-invocations of a nested subplan
  // collapse the way EXPLAIN ANALYZE collapses loops.
  std::function<void(const std::vector<int>&, int)> render =
      [&](const std::vector<int>& ids, int depth) {
        std::vector<std::pair<std::string, std::vector<int>>> groups;
        for (int id : ids) {
          const TraceSpan& s = spans_[static_cast<size_t>(id)];
          std::string key = s.op + '\x01' + s.detail;
          bool found = false;
          for (auto& g : groups) {
            if (g.first == key) {
              g.second.push_back(id);
              found = true;
              break;
            }
          }
          if (!found) groups.emplace_back(std::move(key),
                                          std::vector<int>{id});
        }
        for (const auto& [key, members] : groups) {
          const TraceSpan& first = spans_[static_cast<size_t>(members[0])];
          uint64_t in = 0, build = 0, rows_out = 0, peak = 0;
          double est = -1.0;
          int64_t ns = 0;
          EvalStats ex;
          for (int id : members) {
            const TraceSpan& s = spans_[static_cast<size_t>(id)];
            in += s.rows_in;
            build += s.rows_build;
            rows_out += s.rows_out;
            if (s.est_rows >= 0.0) {
              est = (est < 0.0 ? 0.0 : est) + s.est_rows;
            }
            if (s.peak_hash_size > peak) peak = s.peak_hash_size;
            ns += s.inclusive_ns();
            ex.Merge(s.exclusive);
          }
          Line line;
          line.label.assign(static_cast<size_t>(depth) * 2, ' ');
          line.label += first.Label();
          std::string& rest = line.rest;
          if (members.size() > 1) {
            rest += StrFormat("loops=%zu ", members.size());
          }
          rest += StrFormat("in=%llu ",
                            static_cast<unsigned long long>(in));
          if (build > 0) {
            rest += StrFormat("build=%llu ",
                              static_cast<unsigned long long>(build));
          }
          if (est >= 0.0) {
            rest += StrFormat("est=%.0f ", est);
          }
          rest += StrFormat("out=%llu ",
                            static_cast<unsigned long long>(rows_out));
          if (peak > 0) {
            rest += StrFormat("peak_hash=%llu ",
                              static_cast<unsigned long long>(peak));
          }
          if (opts.show_time) {
            rest += StrFormat("time=%.3fms ",
                              static_cast<double>(ns) / 1e6);
          }
          std::string stats = ex.Compact();
          if (!stats.empty()) rest += "| " + stats;
          while (!rest.empty() && rest.back() == ' ') rest.pop_back();
          lines.push_back(std::move(line));

          std::vector<int> all_kids;
          for (int id : members) {
            const std::vector<int>& k = kids[static_cast<size_t>(id)];
            all_kids.insert(all_kids.end(), k.begin(), k.end());
          }
          if (!all_kids.empty()) render(all_kids, depth + 1);
        }
      };
  render(roots, 0);

  size_t width = 0;
  for (const Line& l : lines) width = std::max(width, l.label.size());
  std::string out;
  for (const Line& l : lines) {
    out += l.label;
    out.append(width + 2 - l.label.size(), ' ');
    out += l.rest;
    out += '\n';
  }
  return out;
}

}  // namespace n2j
