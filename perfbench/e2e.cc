// End-to-end workload runner for the QueryEngine benchmark (README.md in
// this directory describes the workloads and metrics). One process runs
// one workload: it generates the supplier–part database from the seed,
// warms the engine's lazy caches, runs a fixed, seeded schedule of
// operations and checks every result outside the timed interval. It
// prints one JSON line on stdout; run.py turns that into metrics.
//
//   n2j_e2e --workload=W --seed=N --reps=R [--setups=K] [--spans=PATH]
//
// Without --spans, each op is timed through QueryEngine::Run (reads) or
// Database::NewObject (inserts), and a fixed calibration kernel is timed
// in short bursts between ops and around set-ups. With --spans (the
// traced run), each read op instead goes through the layers' public entry
// points one call at a time, in the order Run calls them, with one span
// per call; then Run itself executes on the warmed caches and the two
// results must be equal. The spans are kept in memory and written to
// PATH as JSON lines at exit.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "oosql/translate.h"
#include "opt/optimizer.h"
#include "rewrite/rewriter.h"
#include "shred/shred.h"
#include "stats/stats.h"
#include "storage/columnar.h"
#include "storage/datagen.h"

namespace n2j {
namespace {

// The paper's worked queries, as in bench/bench_paper_queries.cc.
struct PaperQuery {
  const char* label;
  const char* text;
};

const PaperQuery kQueries[] = {
    {"Q1",
     "select (sname = s.sname, pnames = select p.pname from p in PART "
     "where p[pid] in s.parts and p.color = \"red\") from s in SUPPLIER"},
    {"Q2",
     "select d from d in (select e from e in DELIVERY "
     "where e.supplier.sname = \"s1\") where d.date > 940600"},
    {"Q3.1",
     "select s.sname from s in SUPPLIER where s.parts supseteq "
     "(select x from t in SUPPLIER, x in t.parts where t.sname = \"s1\")"},
    {"Q3.2",
     "select d from d in DELIVERY where "
     "exists x in d.supply : x.part.color = \"red\""},
    {"Q4",
     "select s.eid from s in SUPPLIER where "
     "exists z in s.parts : not exists p in PART : z.pid = p.pid"},
    {"Q5",
     "select s.sname from s in SUPPLIER where "
     "exists x in s.parts : exists p in PART : "
     "x.pid = p.pid and p.color = \"red\""},
    {"Q6",
     "select (sname = s.sname, partssuppl = select p from p in PART "
     "where p[pid] in s.parts) from s in SUPPLIER"},
};

constexpr int kInsert = -1;  // op class of an insert

struct Workload {
  const char* name;
  int parts;
  PlanStrategy strategy;
  Backend backend;
  int threads;
  bool write_mix;           // alternate inserts with the reads
  std::vector<int> classes;  // indices into kQueries
  // Size of the calibration kernel's hash map, matched to the working
  // set, and about the ms of one pass on an uncontended vCPU of the
  // 4-vCPU x86 VM the benchmark was tuned on; times are scaled to it.
  int calibration_strings;
  double calibration_ref_ms;
};

const Workload kWorkloads[] = {
    {"paper-small", 100, PlanStrategy::kCost, Backend::kNested, 1, false,
     {0, 1, 2, 3, 4, 5, 6}, 2000, 0.6},
    {"paper-large", 6400, PlanStrategy::kHeuristic, Backend::kNested, 1,
     false, {0, 1, 2, 3, 4, 5, 6}, 8000, 3.0},
    {"paper-large-mt2", 6400, PlanStrategy::kHeuristic, Backend::kNested, 2,
     false, {0, 1, 2, 3, 4, 5, 6}, 8000, 3.0},
    {"write-mix", 6400, PlanStrategy::kCost, Backend::kShredded, 1, true,
     {0, 4, 5, 6}, 8000, 3.0},
};

// Same generator settings as bench_paper_queries; only the seed varies.
std::unique_ptr<Database> MakeDb(int parts, uint64_t seed) {
  SupplierPartConfig config;
  config.seed = seed;
  config.num_parts = parts;
  config.num_suppliers = parts / 4;
  config.parts_per_supplier = 8;
  config.red_fraction = 0.2;
  config.match_fraction = 0.92;
  config.num_deliveries = parts / 2;
  return MakeSupplierPartDatabase(config);
}

EvalOptions EvalOptionsFor(const Workload& w) {
  EvalOptions opts;
  opts.backend = w.backend;
  opts.num_threads = w.threads;
  return opts;
}

PlannerOptions PlannerOptionsFor(const Workload& w) {
  PlannerOptions opts;
  opts.strategy = w.strategy;
  return opts;
}

double MsBetween(int64_t t0_ns, int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e6;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

void CollectExtents(const ExprPtr& e, std::set<std::string>* out) {
  if (e == nullptr) return;
  if (e->kind() == ExprKind::kGetTable) out->insert(e->name());
  for (size_t i = 0; i < e->num_children(); ++i) {
    CollectExtents(e->child(i), out);
  }
}

// ---- Host-speed calibration ----------------------------------------------

// Shared hosts change speed by up to 2x for seconds to minutes at a time,
// as neighbours contend for the core and its caches; a median over one
// run cannot average that away. So the plain run times a fixed kernel,
// compiled here and independent of the engine, in short bursts between
// ops. run.py divides each op's latency by the kernel's time around it
// (README.md, "Host-speed normalization").

volatile uint64_t g_calibration_sink = 0;

/// One pass of the kernel: a hash map of `n` short strings (~100 bytes
/// each) is built, probed, copied out and sorted; allocation, hashing,
/// pointer chasing and string compares, the kind of work a query does.
uint64_t CalibrationPass(uint64_t salt, uint64_t n) {
  std::unordered_map<uint64_t, std::string> m;
  for (uint64_t k = 0; k < n; ++k) {
    m[(k + salt) * 7919] = std::to_string(k * 977 + salt) + "-calibration";
  }
  uint64_t x = 0;
  for (uint64_t k = 0; k < 2 * n; ++k) {
    auto it = m.find((k + salt) * 13);
    if (it != m.end()) x += it->second.size();
  }
  std::vector<std::string> v;
  v.reserve(m.size());
  for (const auto& kv : m) v.push_back(kv.second);
  std::sort(v.begin(), v.end());
  return x + v[7].size();
}

constexpr int kCalibrationWarm = 1;   // untimed passes that refill caches
constexpr int kCalibrationTimed = 3;  // timed passes; the burst's median
constexpr int64_t kCalibrationEveryNs = 100'000'000;

/// Median milliseconds of one kernel pass, over one burst.
double CalibrationBurst(const Workload& w) {
  const uint64_t n = static_cast<uint64_t>(w.calibration_strings);
  uint64_t sink = 0;
  for (int i = 0; i < kCalibrationWarm; ++i) sink += CalibrationPass(i, n);
  std::vector<double> ms;
  for (int i = 0; i < kCalibrationTimed; ++i) {
    int64_t t0 = MonotonicNanos();
    sink += CalibrationPass(static_cast<uint64_t>(i), n);
    ms.push_back(MsBetween(t0, MonotonicNanos()));
  }
  g_calibration_sink = g_calibration_sink + sink;
  std::nth_element(ms.begin(), ms.begin() + kCalibrationTimed / 2, ms.end());
  return ms[kCalibrationTimed / 2];
}

// ---- Spans ---------------------------------------------------------------

struct Span {
  const char* name;
  std::string detail;
  int parent;
  int op;
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span log of the traced run. Ids are indices; a span's
/// parent is the span that was open around it (-1 for an op root).
class Tracer {
 public:
  int Begin(const char* name, int op, int parent, std::string detail) {
    spans_.push_back(Span{name, std::move(detail), parent, op, 0, 0});
    spans_.back().start_ns = MonotonicNanos();
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = MonotonicNanos();
  }
  void Reserve(size_t n) { spans_.reserve(n); }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"op\":%d,\"name\":\"%s\","
                   "\"detail\":%s,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.parent, s.op, s.name, JsonStr(s.detail).c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// One span around a scope; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int op, int parent,
             std::string detail = "")
      : tracer_(tracer),
        id_(tracer == nullptr
                ? -1
                : tracer->Begin(name, op, parent, std::move(detail))) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---- Layer-by-layer pipeline (traced run) --------------------------------

/// Exact work counters of the layered pipeline, summed over ops.
struct LayerCounters {
  EvalStats exec;
  uint64_t rules_fired = 0;
  uint64_t stats_refreshes = 0;
  uint64_t columnar_rebuilds = 0;
  uint64_t derefs = 0;
  uint64_t page_hits = 0;
};

struct LayeredRun {
  Value result;
  EvalStats stats;
  ExprPtr to_run;
  std::shared_ptr<const PhysicalPlan> plan;  // kCost only
};

/// Replays QueryEngine::Run one public layer call at a time:
/// Translator::TranslateString → Rewriter::Rewrite → (kCost)
/// StatsCatalog::Get per extent → Planner::Plan → Table::AsSetValue per
/// extent → (shredded) ColumnarCatalog::Get per extent →
/// shred::EvalWithBackend. The storage calls happen inside the planner
/// and the executor in Run; calling them first isolates their cost, and
/// the executor then finds them memoized.
class LayeredPipeline {
 public:
  LayeredPipeline(const Database& db, const Workload& w)
      : db_(db), w_(w) {}

  Result<LayeredRun> Run(const std::string& text, Tracer* tracer, int op,
                         int parent, LayerCounters* counters) {
    LayeredRun out;
    ExprPtr translated;
    {
      ScopedSpan s(tracer, "oosql.translate", op, parent);
      Translator translator(db_.schema(), &db_);
      N2J_ASSIGN_OR_RETURN(TypedExpr typed, translator.TranslateString(text));
      translated = typed.expr;
    }
    RewriteResult rewritten;
    {
      ScopedSpan s(tracer, "rewrite.rewrite", op, parent);
      Rewriter rewriter(db_.schema(), &db_, RewriteOptions());
      N2J_ASSIGN_OR_RETURN(rewritten, rewriter.Rewrite(translated));
    }
    counters->rules_fired += rewritten.trace.size();
    std::set<std::string> extents;
    CollectExtents(rewritten.expr, &extents);

    out.to_run = rewritten.expr;
    EvalOptions opts = EvalOptionsFor(w_);
    if (w_.strategy == PlanStrategy::kCost) {
      for (const std::string& name : extents) {
        std::shared_ptr<const ExtentStats> cached = db_.stats().Peek(name);
        std::shared_ptr<const ExtentStats> fresh;
        {
          ScopedSpan s(tracer, "stats.get", op, parent, name);
          fresh = db_.stats().Get(db_, name);
        }
        if (fresh != nullptr && fresh != cached) ++counters->stats_refreshes;
      }
      {
        ScopedSpan s(tracer, "opt.plan", op, parent);
        Planner planner(db_, PlannerOptionsFor(w_));
        N2J_ASSIGN_OR_RETURN(PhysicalPlan plan, planner.Plan(rewritten.expr));
        out.plan = std::make_shared<const PhysicalPlan>(std::move(plan));
      }
      out.to_run = out.plan->root;
      opts.plan = &out.plan->annotations;
    }
    for (const std::string& name : extents) {
      const Table* t = db_.FindTable(name);
      if (t == nullptr) continue;
      ScopedSpan s(tracer, "storage.canonical_set", op, parent, name);
      (void)t->AsSetValue();
    }
    if (w_.backend == Backend::kShredded) {
      for (const std::string& name : extents) {
        std::shared_ptr<const ColumnarExtent> col;
        {
          ScopedSpan s(tracer, "storage.columnar", op, parent, name);
          col = db_.columnar().Get(db_, name);
        }
        std::shared_ptr<const ColumnarExtent>& seen = columnar_seen_[name];
        if (col != nullptr && col != seen) ++counters->columnar_rebuilds;
        seen = col;
      }
    }
    StoreStats before = db_.store().stats();
    {
      ScopedSpan s(tracer,
                   w_.backend == Backend::kShredded ? "shred.eval"
                                                    : "exec.eval",
                   op, parent);
      N2J_ASSIGN_OR_RETURN(
          out.result,
          shred::EvalWithBackend(db_, out.to_run, opts, &out.stats));
    }
    StoreStats after = db_.store().stats();
    counters->derefs += after.gets - before.gets;
    counters->page_hits += after.page_hits - before.page_hits;
    counters->exec.Merge(out.stats);
    return out;
  }

 private:
  const Database& db_;
  const Workload& w_;
  // Last projection seen per extent: a different pointer is a rebuild.
  std::map<std::string, std::shared_ptr<const ColumnarExtent>>
      columnar_seen_;
};

// ---- Inserts (write-mix) -------------------------------------------------

/// Pre-drawn inputs of one insert op: a new Part plus a new Supplier
/// whose parts set holds the new part and seven existing ones.
struct InsertInput {
  Value part_attrs;
  std::string sname;
  std::vector<Oid> other_parts;
};

class InsertGenerator {
 public:
  InsertGenerator(const Database& db, uint64_t seed) : rng_(seed) {
    for (const Value& row : db.FindTable("PART")->rows()) {
      part_oids_.push_back(row.FindField("pid")->oid_value());
    }
  }

  InsertInput Next() {
    static const char* kColors[] = {"blue",  "green", "yellow",
                                    "black", "white", "orange"};
    InsertInput in;
    int n = count_++;
    std::string color =
        rng_.Bernoulli(0.2) ? "red" : kColors[rng_.Uniform(0, 5)];
    in.part_attrs = Value::Tuple({
        Field("pname", Value::String("new-part-" + std::to_string(n))),
        Field("price", Value::Int(rng_.Uniform(1, 1000))),
        Field("color", Value::String(std::move(color))),
    });
    in.sname = "new-s" + std::to_string(n);
    for (int j = 0; j < 7; ++j) {
      in.other_parts.push_back(part_oids_[static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(part_oids_.size()) - 1))]);
    }
    return in;
  }

  void Added(Oid part) { part_oids_.push_back(part); }

 private:
  Rng rng_;
  std::vector<Oid> part_oids_;
  int count_ = 0;
};

struct InsertOutcome {
  Oid part = 0;
  Oid supplier = 0;
};

/// The timed insert op: two Database::NewObject calls.
Result<InsertOutcome> DoInsert(Database* db, const InsertInput& in,
                               Tracer* tracer, int op, int parent) {
  InsertOutcome out;
  {
    ScopedSpan s(tracer, "storage.insert", op, parent, "Part");
    N2J_ASSIGN_OR_RETURN(out.part, db->NewObject("Part", in.part_attrs));
  }
  std::vector<Value> refs;
  refs.push_back(Value::Tuple({Field("pid", Value::MakeOidValue(out.part))}));
  for (Oid o : in.other_parts) {
    refs.push_back(Value::Tuple({Field("pid", Value::MakeOidValue(o))}));
  }
  Value attrs = Value::Tuple({
      Field("sname", Value::String(in.sname)),
      Field("parts", Value::Set(std::move(refs))),
  });
  {
    ScopedSpan s(tracer, "storage.insert", op, parent, "Supplier");
    N2J_ASSIGN_OR_RETURN(out.supplier,
                         db->NewObject("Supplier", std::move(attrs)));
  }
  return out;
}

/// Both new objects resolve, and the supplier references the new part.
bool InsertCorrect(const Database& db, const InsertOutcome& o) {
  Result<Value> part = db.Deref(o.part);
  Result<Value> sup = db.Deref(o.supplier);
  if (!part.ok() || !sup.ok()) return false;
  const Value* parts = sup->FindField("parts");
  if (parts == nullptr || !parts->is_set()) return false;
  return parts->SetContains(
      Value::Tuple({Field("pid", Value::MakeOidValue(o.part))}));
}

// ---- Main ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int reps = 0;
  int setups = 1;
  std::string spans;  // non-empty = traced run
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    std::string key = arg.substr(2, eq - 2);
    std::string val = arg.substr(eq + 1);
    if (key == "workload") {
      a->workload = val;
    } else if (key == "seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "reps") {
      a->reps = std::atoi(val.c_str());
    } else if (key == "setups") {
      a->setups = std::atoi(val.c_str());
    } else if (key == "spans") {
      a->spans = val;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->reps > 0 && a->setups > 0;
}

/// The op schedule: `reps` rounds, each a seeded permutation of the
/// workload's query classes; write-mix puts an insert before every read.
std::vector<int> MakeSchedule(const Workload& w, uint64_t seed, int reps) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<int> ops;
  for (int r = 0; r < reps; ++r) {
    std::vector<int> round = w.classes;
    for (size_t i = round.size(); i > 1; --i) {
      int64_t j = rng.Uniform(0, static_cast<int64_t>(i) - 1);
      std::swap(round[i - 1], round[static_cast<size_t>(j)]);
    }
    for (int c : round) {
      if (w.write_mix) ops.push_back(kInsert);
      ops.push_back(c);
    }
  }
  return ops;
}

/// Builds the database and runs one warm-up Run per query class, which
/// fills the lazy caches (extent stats, columnar projections, canonical
/// sets, interned tuple shapes). Returns false on a failed warm-up.
bool Setup(const Workload& w, uint64_t seed, std::unique_ptr<Database>* db) {
  db->reset();
  *db = MakeDb(w.parts, seed);
  QueryEngine engine(db->get(), RewriteOptions(), EvalOptionsFor(w),
                     PlannerOptionsFor(w));
  for (int c : w.classes) {
    if (!engine.Run(kQueries[c].text).ok()) return false;
  }
  return true;
}

/// Expected results for read-only workloads, computed once in setup by
/// an independent path: the naive nested-loop plan (no rewrites, no
/// hash joins) on small databases, the shredded backend on large ones,
/// where the naive plan's quadratic loops would take minutes.
bool ComputeReferences(const Workload& w, const Database& db,
                       std::map<int, Value>* refs) {
  for (int c : w.classes) {
    if (w.parts <= 1000) {
      Translator translator(db.schema(), &db);
      Result<TypedExpr> typed = translator.TranslateString(kQueries[c].text);
      if (!typed.ok()) return false;
      EvalOptions nl;
      nl.use_hash_joins = false;
      nl.enable_pnhl = false;
      Evaluator ev(db, nl);
      Result<Value> v = ev.Eval(typed->expr);
      if (!v.ok()) return false;
      (*refs)[c] = *v;
    } else {
      EvalOptions shredded;
      shredded.backend = Backend::kShredded;
      QueryEngine ref(&db, RewriteOptions(), shredded);
      Result<QueryReport> r = ref.Run(kQueries[c].text);
      if (!r.ok()) return false;
      (*refs)[c] = r->result;
    }
  }
  return true;
}

/// Checks a read's result. Read-only workloads compare against the
/// setup reference; write-mix evaluates the query now, after the timed
/// read, with the heuristic strategy on the nested backend.
bool ReadCorrect(const Workload& w, const Database& db,
                 const std::map<int, Value>& refs, int c,
                 const Value& got) {
  if (!w.write_mix) return refs.at(c) == got;
  QueryEngine check(&db);
  Result<QueryReport> r = check.Run(kQueries[c].text);
  return r.ok() && r->result == got;
}

long PeakRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void PrintClasses(const Workload& w) {
  std::printf("\"classes\":[");
  for (size_t i = 0; i < w.classes.size(); ++i) {
    std::printf("%s[%d,\"%s\"]", i ? "," : "", w.classes[i],
                kQueries[w.classes[i]].label);
  }
  std::printf("]");
}

void PrintErrors(const std::vector<std::string>& errors) {
  std::printf("\"errors\":[");
  for (size_t i = 0; i < errors.size() && i < 5; ++i) {
    std::printf("%s%s", i ? "," : "", JsonStr(errors[i]).c_str());
  }
  std::printf("]");
}

/// Runs `a.setups` timed set-ups (keeping the last database) and computes
/// the references. Each set-up's calibration is the mean of the bursts
/// before and after it. Returns false, after reporting why, on a failure.
bool Prepare(const Workload& w, const Args& a, std::unique_ptr<Database>* db,
             std::map<int, Value>* refs, std::vector<double>* setup_s,
             std::vector<double>* setup_cal_ms) {
  double before = CalibrationBurst(w);
  for (int i = 0; i < a.setups; ++i) {
    int64_t t0 = MonotonicNanos();
    if (!Setup(w, a.seed, db)) {
      std::fprintf(stderr, "warm-up query failed\n");
      return false;
    }
    setup_s->push_back(MsBetween(t0, MonotonicNanos()) / 1e3);
    double after = CalibrationBurst(w);
    setup_cal_ms->push_back((before + after) / 2);
    before = after;
  }
  if (!w.write_mix && !ComputeReferences(w, **db, refs)) {
    std::fprintf(stderr, "reference evaluation failed\n");
    return false;
  }
  return true;
}

int RunPlain(const Workload& w, const Args& a) {
  std::unique_ptr<Database> db;
  std::map<int, Value> refs;
  std::vector<double> setup_s, setup_cal_ms;
  if (!Prepare(w, a, &db, &refs, &setup_s, &setup_cal_ms)) return 1;
  QueryEngine engine(db.get(), RewriteOptions(), EvalOptionsFor(w),
                     PlannerOptionsFor(w));
  InsertGenerator gen(*db, a.seed ^ 0x1d5eedULL);
  std::vector<int> schedule = MakeSchedule(w, a.seed, a.reps);

  std::vector<double> ms;  // per op, in schedule order
  ms.reserve(schedule.size());
  // Calibration bursts as (ops before the burst, kernel ms): one before
  // the first op, one after the last, and one between ops whenever
  // kCalibrationEveryNs have passed since the previous burst.
  std::vector<std::pair<size_t, double>> bursts;
  int64_t last_burst_ns = 0;
  std::vector<std::string> errors;
  for (int c : schedule) {
    if (bursts.empty() ||
        MonotonicNanos() - last_burst_ns >= kCalibrationEveryNs) {
      bursts.emplace_back(ms.size(), CalibrationBurst(w));
      last_burst_ns = MonotonicNanos();
    }
    if (c == kInsert) {
      InsertInput in = gen.Next();
      int64_t t0 = MonotonicNanos();
      Result<InsertOutcome> r = DoInsert(db.get(), in, nullptr, 0, -1);
      ms.push_back(MsBetween(t0, MonotonicNanos()));
      if (r.ok()) gen.Added(r->part);
      if (!r.ok() || !InsertCorrect(*db, *r)) errors.push_back("insert failed");
    } else {
      int64_t t0 = MonotonicNanos();
      Result<QueryReport> r = engine.Run(kQueries[c].text);
      ms.push_back(MsBetween(t0, MonotonicNanos()));
      if (!r.ok() || !ReadCorrect(w, *db, refs, c, r->result)) {
        errors.push_back(std::string(kQueries[c].label) + ": " +
                         (r.ok() ? "wrong result" : r.status().ToString()));
      }
    }
  }
  bursts.emplace_back(ms.size(), CalibrationBurst(w));
  std::printf("{\"mode\":\"plain\",\"workload\":\"%s\",\"seed\":%llu,",
              w.name, static_cast<unsigned long long>(a.seed));
  PrintClasses(w);
  std::printf(",\"setup_s\":[");
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::printf("%s[%.6f,%.6f]", i ? "," : "", setup_s[i], setup_cal_ms[i]);
  }
  std::printf("],\"calibration_ref_ms\":%.6f,\"calibration\":[",
              w.calibration_ref_ms);
  for (size_t i = 0; i < bursts.size(); ++i) {
    std::printf("%s[%zu,%.6f]", i ? "," : "", bursts[i].first,
                bursts[i].second);
  }
  std::printf("],\"peak_rss_kb\":%ld,\"attempted\":%zu,\"failed\":%zu,",
              PeakRssKb(), schedule.size(), errors.size());
  PrintErrors(errors);
  std::printf(",\"ops\":[");
  for (size_t i = 0; i < schedule.size(); ++i) {
    std::printf("%s[%d,%.6f]", i ? "," : "", schedule[i], ms[i]);
  }
  std::printf("]}\n");
  return errors.empty() ? 0 : 1;
}

constexpr int kSpeedupReps = 5;

int RunTraced(const Workload& w, const Args& a) {
  std::unique_ptr<Database> db;
  std::map<int, Value> refs;
  std::vector<double> setup_s, setup_cal_ms;
  if (!Prepare(w, a, &db, &refs, &setup_s, &setup_cal_ms)) return 1;
  QueryEngine engine(db.get(), RewriteOptions(), EvalOptionsFor(w),
                     PlannerOptionsFor(w));
  LayeredPipeline pipeline(*db, w);
  // One untraced layered pass per class records the columnar snapshots
  // the warm-up built, so later rebuilds are counted exactly.
  LayerCounters discard;
  for (int c : w.classes) {
    if (!pipeline.Run(kQueries[c].text, nullptr, 0, -1, &discard).ok()) {
      std::fprintf(stderr, "layered warm-up failed\n");
      return 1;
    }
  }

  InsertGenerator gen(*db, a.seed ^ 0x1d5eedULL);
  std::vector<int> schedule = MakeSchedule(w, a.seed, a.reps);
  Tracer tracer;
  tracer.Reserve(schedule.size() * 40 + 64);
  LayerCounters counters;
  std::vector<std::string> errors;
  size_t failed = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const int c = schedule[i];
    const int op = static_cast<int>(i);
    const int root =
        tracer.Begin("op", op, -1, c == kInsert ? "insert" : kQueries[c].label);
    std::string error;  // empty when the op succeeded
    if (c == kInsert) {
      InsertInput in = gen.Next();
      Result<InsertOutcome> r = DoInsert(db.get(), in, &tracer, op, root);
      if (r.ok()) gen.Added(r->part);
      if (!r.ok() || !InsertCorrect(*db, *r)) error = "insert failed";
    } else {
      const std::string text = kQueries[c].text;
      int span = tracer.Begin("pipeline.cold", op, root, "");
      Result<LayeredRun> cold =
          pipeline.Run(text, &tracer, op, span, &counters);
      tracer.End(span);
      span = tracer.Begin("core.run", op, root, "");
      Result<QueryReport> run = engine.Run(text);
      tracer.End(span);
      span = tracer.Begin("pipeline.warm", op, root, "");
      Result<LayeredRun> warm = pipeline.Run(text, &tracer, op, span, &discard);
      tracer.End(span);
      if (!cold.ok() || !run.ok() || !warm.ok()) {
        error = !cold.ok() ? cold.status().ToString()
                : !run.ok() ? run.status().ToString()
                            : warm.status().ToString();
      } else if (cold->result != run->result || warm->result != run->result ||
                 !(cold->stats == run->exec_stats)) {
        error = "layered pipeline disagrees with QueryEngine::Run";
      } else if (!ReadCorrect(w, *db, refs, c, run->result)) {
        error = "wrong result";
      }
      if (!error.empty()) error = std::string(kQueries[c].label) + ": " + error;
    }
    tracer.End(root);
    if (!error.empty()) {
      ++failed;
      errors.push_back(error);
    }
  }

  // Serial-vs-parallel executor time on the same plans, after the
  // schedule so the extra evaluations never disturb its counters. Each
  // class counts as one more checked op.
  size_t attempted = schedule.size();
  for (int c : w.classes) {
    ++attempted;
    Result<LayeredRun> lr =
        pipeline.Run(kQueries[c].text, nullptr, 0, -1, &discard);
    if (!lr.ok()) {
      ++failed;
      errors.push_back(std::string(kQueries[c].label) + ": " +
                       lr.status().ToString());
      continue;
    }
    EvalOptions opts = EvalOptionsFor(w);
    if (lr->plan != nullptr) opts.plan = &lr->plan->annotations;
    const int op = static_cast<int>(schedule.size()) + c;
    const int root = tracer.Begin("speedup", op, -1, kQueries[c].label);
    bool agree = true;
    for (int rep = 0; rep < kSpeedupReps; ++rep) {
      for (int threads : {1, 2}) {
        opts.num_threads = threads;
        EvalStats stats;
        Result<Value> v = Value();
        {
          ScopedSpan s(&tracer, threads == 1 ? "exec.eval_t1" : "exec.eval_t2",
                       op, root, kQueries[c].label);
          v = shred::EvalWithBackend(*db, lr->to_run, opts, &stats);
        }
        agree = agree && v.ok() && *v == lr->result;
      }
    }
    tracer.End(root);
    if (!agree) {
      ++failed;
      errors.push_back(std::string(kQueries[c].label) +
                       ": 1- and 2-thread evaluations disagree");
    }
  }

  if (!tracer.Write(a.spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", a.spans.c_str());
    return 1;
  }
  std::printf("{\"mode\":\"traced\",\"workload\":\"%s\",\"seed\":%llu,",
              w.name, static_cast<unsigned long long>(a.seed));
  PrintClasses(w);
  std::printf(",\"attempted\":%zu,\"failed\":%zu,", attempted, failed);
  PrintErrors(errors);
  std::printf(",\"counters\":{\"rewrite.rules_fired\":%llu,"
              "\"stats.refreshes\":%llu,\"storage.columnar_rebuilds\":%llu,"
              "\"storage.derefs\":%llu,\"storage.page_hits\":%llu",
              static_cast<unsigned long long>(counters.rules_fired),
              static_cast<unsigned long long>(counters.stats_refreshes),
              static_cast<unsigned long long>(counters.columnar_rebuilds),
              static_cast<unsigned long long>(counters.derefs),
              static_cast<unsigned long long>(counters.page_hits));
  size_t nfields = 0;
  const EvalStatsField* fields = EvalStatsFields(&nfields);
  for (size_t i = 0; i < nfields; ++i) {
    std::printf(
        ",\"exec.%s\":%llu", fields[i].name,
        static_cast<unsigned long long>(counters.exec.*fields[i].member));
  }
  std::printf("},\"spans\":%s}\n", JsonStr(a.spans).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace n2j

int main(int argc, char** argv) {
  n2j::Args args;
  if (!n2j::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: n2j_e2e --workload=W --seed=N --reps=R "
                 "[--setups=K] [--spans=PATH]\n");
    return 2;
  }
  for (const n2j::Workload& w : n2j::kWorkloads) {
    if (args.workload == w.name) {
      return args.spans.empty() ? n2j::RunPlain(w, args)
                                : n2j::RunTraced(w, args);
    }
  }
  std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
  return 2;
}
