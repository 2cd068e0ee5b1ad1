// An interactive OOSQL shell over the supplier–part database. Queries
// end with ';'. Meta commands:
//   \schema          print the schema
//   \tables          list tables and sizes
//   \explain <query> show translation, optimization trace and plan
//                    (with \profile on, also the profiled span tree)
//   \nestedloop      toggle the rewriter off/on (to feel the difference)
//   \threads [N]     set worker threads (no argument: show the setting)
//   \compiled [on|off] toggle/set bytecode-compiled lambda evaluation
//                    (no argument: show the setting)
//   \profile on|off  per-operator tracing; each query prints its span
//                    tree (wall time, cardinalities, stats deltas)
//   \trace <f.json>  write a Chrome trace (chrome://tracing, Perfetto)
//                    of each query to f.json; \trace off disables
//   \timing on|off   print each query's wall time
//   \stats           print the last query's execution counters
//   \stats <extent>  print the extent's optimizer statistics (row count,
//                    per-attribute distincts/ranges, set-attr fanout)
//   \analyze         refresh statistics for every extent (SQL's ANALYZE)
//   \strategy [cost|heuristic] select the planner strategy: 'cost' runs
//                    the statistics-driven planner (EXPLAIN then shows
//                    per-node algorithm + est_rows/est_cost); default is
//                    the paper's priority strategy
//   \backend [nested|shredded] select the evaluation backend: 'shredded'
//                    lowers the query to a DAG of flat queries over
//                    columnar relations and stitches the nested result
//                    (EXPLAIN then shows the shredded plan); default is
//                    the nested-loop interpreter
//   \metrics         print the process-wide metrics registry
//   \openmetrics     print the registry in OpenMetrics text format
//                    (Prometheus-scrapable; ends with # EOF)
//   \log [n]         print the last n (default 10) flight-recorder
//                    records: latency, stats, fallbacks, q-error
//   \slow [n]        the n slowest recorded queries, slowest first
//   \quit            exit
//
//   $ ./build/examples/oosql_shell
//   oosql> select s.sname from s in SUPPLIER where ... ;

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "adl/printer.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/querylog.h"
#include "obs/trace.h"
#include "stats/stats.h"
#include "storage/datagen.h"

using namespace n2j;  // NOLINT — example code

namespace {

void PrintResult(const Value& v, size_t limit = 20) {
  if (!v.is_set()) {
    std::printf("%s\n", v.ToString().c_str());
    return;
  }
  size_t shown = 0;
  for (const Value& e : v.elements()) {
    if (shown++ >= limit) {
      std::printf("  ... (%zu more)\n", v.set_size() - limit);
      break;
    }
    std::printf("  %s\n", e.ToString().c_str());
  }
  std::printf("(%zu tuples)\n", v.set_size());
}

/// One flight-recorder record as a shell line: id, phase latencies,
/// rows, fallbacks, worst q-error, then the (possibly elided) query.
void PrintLogRecord(const obs::QueryLogRecord& r) {
  std::string q = r.query.substr(0, r.query.find('\n'));
  if (q.size() > 48) q = q.substr(0, 45) + "...";
  if (!r.error.empty()) {
    std::printf("  #%-5llu %8.3fms ERROR %s  %s\n",
                static_cast<unsigned long long>(r.id), r.wall_ms,
                r.error.c_str(), q.c_str());
    return;
  }
  // max_q < 1 means no span was priced — not a measured 0.
  char qbuf[16] = "-";
  if (r.max_q >= 1.0) std::snprintf(qbuf, sizeof(qbuf), "%.2f", r.max_q);
  std::printf(
      "  #%-5llu %8.3fms (tr %.3f, rw %.3f, plan %.3f, eval %.3f) rows=%llu "
      "fb=%llu q=%s  %s\n",
      static_cast<unsigned long long>(r.id), r.wall_ms, r.translate_ms,
      r.rewrite_ms, r.plan_ms, r.eval_ms,
      static_cast<unsigned long long>(r.rows_out),
      static_cast<unsigned long long>(r.fallbacks()), qbuf, q.c_str());
}

/// Parses the "on"/"off" argument style shared by \profile, \timing and
/// \compiled. Returns false (and prints usage) on anything else.
bool ParseOnOff(std::istringstream& iss, const char* cmd, bool* out) {
  std::string arg;
  if (iss >> arg) {
    if (arg == "on") {
      *out = true;
      return true;
    }
    if (arg == "off") {
      *out = false;
      return true;
    }
  }
  std::printf("usage: %s on|off\n", cmd);
  return false;
}

}  // namespace

int main() {
  SupplierPartConfig config;
  config.seed = 7;
  config.num_parts = 100;
  config.num_suppliers = 25;
  config.parts_per_supplier = 6;
  config.match_fraction = 0.9;
  config.num_deliveries = 40;
  std::unique_ptr<Database> db = MakeSupplierPartDatabase(config);

  bool rewrites_enabled = true;
  bool compiled_enabled = true;
  PlanStrategy strategy = PlanStrategy::kHeuristic;
  Backend backend = Backend::kNested;
  bool profile_on = false;
  bool timing_on = false;
  int num_threads = 1;
  std::string trace_path;      // Chrome-trace output, empty = off
  TraceCollector collector;    // reused across queries (engine clears it)
  EvalStats last_stats;
  bool have_stats = false;
  std::printf(
      "nested-to-join OOSQL shell — supplier-part database loaded\n"
      "(|SUPPLIER| = %zu, |PART| = %zu, |DELIVERY| = %zu)\n"
      "end queries with ';'. try: \\schema, \\tables, \\explain, \\profile, "
      "\\stats, \\quit\n",
      db->FindTable("SUPPLIER")->size(), db->FindTable("PART")->size(),
      db->FindTable("DELIVERY")->size());

  auto make_engine = [&]() {
    RewriteOptions opts;
    if (!rewrites_enabled) {
      opts.enable_setcmp = false;
      opts.enable_quantifier = false;
      opts.enable_map_join = false;
      opts.enable_unnest_attr = false;
      opts.enable_hoist = false;
      opts.grouping = GroupingMode::kNone;
    }
    EvalOptions eval_opts;
    eval_opts.backend = backend;
    eval_opts.num_threads = num_threads;
    eval_opts.compiled = compiled_enabled;
    if (profile_on || !trace_path.empty()) {
      eval_opts.trace = &collector;
    }
    PlannerOptions planner_opts;
    planner_opts.strategy = strategy;
    return QueryEngine(db.get(), opts, eval_opts, planner_opts);
  };

  auto write_chrome_trace = [&]() {
    if (trace_path.empty()) return;
    Status st = WriteChromeTrace(collector, trace_path);
    if (st.ok()) {
      std::printf("chrome trace written to %s\n", trace_path.c_str());
    } else {
      std::printf("trace write failed: %s\n", st.ToString().c_str());
    }
  };

  std::string buffer;
  std::string line;
  std::printf("oosql> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    // Meta commands act on a whole line.
    if (buffer.empty() && !line.empty() && line[0] == '\\') {
      std::istringstream iss(line);
      std::string cmd;
      iss >> cmd;
      if (cmd == "\\quit" || cmd == "\\q") break;
      if (cmd == "\\schema") {
        std::printf("%s", db->schema().ToString().c_str());
      } else if (cmd == "\\tables") {
        for (const std::string& name : db->TableNames()) {
          std::printf("  %-12s %zu rows\n", name.c_str(),
                      db->FindTable(name)->size());
        }
      } else if (cmd == "\\nestedloop") {
        rewrites_enabled = !rewrites_enabled;
        std::printf("rewrites %s\n", rewrites_enabled ? "ON" : "OFF");
      } else if (cmd == "\\threads") {
        int n = 0;
        if (iss >> n) {
          if (n >= 1) {
            num_threads = n;
          } else {
            std::printf("usage: \\threads [N]   (N >= 1)\n");
          }
        }
        std::printf("worker threads: %d%s\n", num_threads,
                    num_threads == 1 ? " (serial)" : "");
      } else if (cmd == "\\compiled") {
        std::string arg;
        if (iss >> arg) {
          if (arg == "on") {
            compiled_enabled = true;
          } else if (arg == "off") {
            compiled_enabled = false;
          } else {
            std::printf("usage: \\compiled [on|off]\n");
          }
        } else {
          compiled_enabled = !compiled_enabled;
        }
        std::printf("compiled evaluation %s\n",
                    compiled_enabled ? "ON" : "OFF");
      } else if (cmd == "\\profile") {
        if (ParseOnOff(iss, "\\profile", &profile_on)) {
          std::printf("profiling %s\n", profile_on ? "ON" : "OFF");
        }
      } else if (cmd == "\\timing") {
        if (ParseOnOff(iss, "\\timing", &timing_on)) {
          std::printf("timing %s\n", timing_on ? "ON" : "OFF");
        }
      } else if (cmd == "\\trace") {
        std::string arg;
        if (iss >> arg) {
          if (arg == "off") {
            trace_path.clear();
            std::printf("chrome tracing OFF\n");
          } else {
            trace_path = arg;
            std::printf("chrome trace of each query -> %s\n",
                        trace_path.c_str());
          }
        } else {
          std::printf("usage: \\trace <file.json> | \\trace off\n");
        }
      } else if (cmd == "\\stats") {
        std::string extent;
        if (iss >> extent) {
          auto es = db->stats().Get(*db, extent);
          if (es == nullptr) {
            std::printf("no such extent: %s\n", extent.c_str());
          } else {
            std::printf("%s", es->ToString().c_str());
          }
        } else if (have_stats) {
          std::printf("%s", last_stats.ToString().c_str());
        } else {
          std::printf("no query has run yet\n");
        }
      } else if (cmd == "\\analyze") {
        db->stats().Analyze(*db);
        for (const std::string& name : db->TableNames()) {
          auto es = db->stats().Get(*db, name);
          std::printf("  %-12s %zu rows, %zu attrs profiled\n", name.c_str(),
                      es == nullptr ? 0 : static_cast<size_t>(es->row_count),
                      es == nullptr ? 0 : es->attrs.size());
        }
      } else if (cmd == "\\strategy") {
        std::string arg;
        if (iss >> arg) {
          if (arg == "cost") {
            strategy = PlanStrategy::kCost;
          } else if (arg == "heuristic") {
            strategy = PlanStrategy::kHeuristic;
          } else {
            std::printf("usage: \\strategy [cost|heuristic]\n");
          }
        }
        std::printf("planner strategy: %s\n", PlanStrategyName(strategy));
      } else if (cmd == "\\backend") {
        std::string arg;
        if (iss >> arg) {
          if (arg == "nested") {
            backend = Backend::kNested;
          } else if (arg == "shredded") {
            backend = Backend::kShredded;
          } else {
            std::printf("usage: \\backend [nested|shredded]\n");
          }
        }
        std::printf("evaluation backend: %s\n",
                    backend == Backend::kShredded ? "shredded" : "nested");
      } else if (cmd == "\\metrics") {
        std::printf("%s", obs::MetricsRegistry::Global().Render().c_str());
      } else if (cmd == "\\openmetrics") {
        std::printf("%s", obs::RenderOpenMetrics().c_str());
      } else if (cmd == "\\log") {
        size_t n = 10;
        int arg = 0;
        if (iss >> arg && arg >= 1) n = static_cast<size_t>(arg);
        std::vector<obs::QueryLogRecord> recent =
            obs::QueryLog::Global().Snapshot(n);
        if (recent.empty()) {
          std::printf("no queries recorded yet\n");
        }
        for (const obs::QueryLogRecord& r : recent) PrintLogRecord(r);
      } else if (cmd == "\\slow") {
        size_t n = 10;
        int arg = 0;
        if (iss >> arg && arg >= 1) n = static_cast<size_t>(arg);
        std::vector<obs::QueryLogRecord> all =
            obs::QueryLog::Global().Snapshot();
        std::stable_sort(all.begin(), all.end(),
                         [](const obs::QueryLogRecord& a,
                            const obs::QueryLogRecord& b) {
                           return a.wall_ms > b.wall_ms;
                         });
        if (all.size() > n) all.resize(n);
        if (all.empty()) {
          std::printf("no queries recorded yet\n");
        }
        for (const obs::QueryLogRecord& r : all) PrintLogRecord(r);
      } else if (cmd == "\\explain") {
        std::string rest;
        std::getline(iss, rest);
        if (!rest.empty() && rest.back() == ';') rest.pop_back();
        QueryEngine engine = make_engine();
        Result<QueryReport> r = engine.Run(rest);
        if (!r.ok()) {
          std::printf("error: %s\n", r.status().ToString().c_str());
        } else {
          std::printf("%s", r->Explain().c_str());
          write_chrome_trace();
        }
      } else {
        std::printf("unknown command %s\n", cmd.c_str());
      }
      std::printf("oosql> ");
      std::fflush(stdout);
      continue;
    }

    buffer += line + "\n";
    if (buffer.find(';') == std::string::npos) {
      std::printf("  ...> ");
      std::fflush(stdout);
      continue;
    }

    QueryEngine engine = make_engine();
    int64_t t0 = MonotonicNanos();
    Result<QueryReport> r = engine.Run(buffer);
    double elapsed_ms =
        static_cast<double>(MonotonicNanos() - t0) / 1e6;
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
    } else {
      PrintResult(r->result);
      last_stats = r->exec_stats;
      have_stats = true;
      std::string compact = last_stats.Compact();
      std::printf("[%s]\n", compact.empty() ? "no work counted"
                                            : compact.c_str());
      if (profile_on && r->profile != nullptr) {
        std::printf("%s", r->profile->Render().c_str());
      }
      write_chrome_trace();
    }
    if (timing_on) {
      std::printf("time: %.3f ms\n", elapsed_ms);
    }
    buffer.clear();
    std::printf("oosql> ");
    std::fflush(stdout);
  }
  std::printf("\nbye\n");
  return 0;
}
