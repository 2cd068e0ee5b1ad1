// Execution-option matrix: every optimized paper-shaped query must
// return the identical result under every combination of physical
// options (join algorithm × PNHL fast path × worker threads), with and
// without indexes. This is the guarantee that makes the logical/physical
// split safe — and that morsel-driven parallelism is invisible except in
// wall time.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "oosql/translate.h"
#include "shred/shred.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

using testutil::EvalExpr;
using testutil::RewriteExpr;
using testutil::TranslateOrDie;

const char* kQueries[] = {
    "select x from x in X where exists y in Y : y.a = x.a",
    "select x from x in X where not exists y in Y : y.a = x.a",
    "select (a = x.a, n = count(Yp)) from x in X "
    "with Yp = select y from y in Y where y.a = x.a",
    "select x from x in X where x.c subseteq "
    "(select (d = y.e) from y in Y where y.a = x.a)",
    "select x.a from x in X where x.a in (select y.e from y in Y)",
    // A nested select the rewrite leaves inside the nestjoin's inner
    // function, and one left inside the semijoin's residual: compiled
    // evaluation refuses those lambdas and interprets them, next to the
    // join keys and predicates it compiles.
    "select (a = x.a, n = count(Yp)) from x in X with Yp = "
    "select (e = y.e, k = count(select z from z in Y where z.e = y.e)) "
    "from y in Y where y.a = x.a",
    "select x from x in X where exists y in Y : y.a = x.a and "
    "count(select z from z in Y where z.e = y.e and z.a < x.a) > 0",
};

class ExecOptionsMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecOptionsMatrixTest, AllOptionCombinationsAgree) {
  auto db = std::make_unique<Database>();
  XYConfig config;
  config.seed = 97 + static_cast<uint64_t>(GetParam());
  config.x_rows = 30;
  config.y_rows = 35;
  ASSERT_TRUE(AddRandomXY(db.get(), config).ok());
  if (GetParam() % 2 == 0) {
    ASSERT_TRUE(db->CreateIndex("Y", "a").ok());
  }

  for (const char* q : kQueries) {
    ExprPtr naive = TranslateOrDie(*db, q);
    ExprPtr plan = RewriteExpr(*db, naive).expr;

    EvalOptions reference;
    reference.use_hash_joins = false;
    reference.enable_pnhl = false;
    Value expected = EvalExpr(*db, naive, reference);

    for (JoinAlgorithm algo :
         {JoinAlgorithm::kHash, JoinAlgorithm::kIndex,
          JoinAlgorithm::kNestedLoop}) {
      for (bool pnhl : {false, true}) {
        for (size_t budget : {SIZE_MAX, size_t{512}}) {
          for (int threads : {1, 4}) {
            for (bool compiled : {false, true}) {
              EvalOptions opts;
              opts.join_algorithm = algo;
              opts.enable_pnhl = pnhl;
              opts.pnhl_memory_budget = budget;
              opts.num_threads = threads;
              opts.compiled = compiled;
              Value actual = EvalExpr(*db, plan, opts);
              ASSERT_EQ(expected, actual)
                  << q << "\nalgo=" << static_cast<int>(algo)
                  << " pnhl=" << pnhl << " budget=" << budget
                  << " threads=" << threads << " compiled=" << compiled;
            }
          }
        }
      }
    }
  }
}

// Merged per-worker counters must equal the serial run's counters
// exactly — parallelism redistributes work, it never changes how much
// work is done.
TEST_P(ExecOptionsMatrixTest, ParallelStatsMatchSerial) {
  auto db = std::make_unique<Database>();
  XYConfig config;
  config.seed = 97 + static_cast<uint64_t>(GetParam());
  config.x_rows = 30;
  config.y_rows = 35;
  ASSERT_TRUE(AddRandomXY(db.get(), config).ok());

  for (const char* q : kQueries) {
    ExprPtr naive = TranslateOrDie(*db, q);
    ExprPtr plan = RewriteExpr(*db, naive).expr;

    for (bool compiled : {false, true}) {
      EvalOptions serial_opts;
      serial_opts.compiled = compiled;
      Evaluator serial(*db, serial_opts);
      Result<Value> sv = serial.Eval(plan);
      ASSERT_TRUE(sv.ok()) << q;

      EvalOptions mt_opts;
      mt_opts.num_threads = 4;
      mt_opts.compiled = compiled;
      Evaluator mt(*db, mt_opts);
      Result<Value> mv = mt.Eval(plan);
      ASSERT_TRUE(mv.ok()) << q;

      ASSERT_EQ(*sv, *mv) << q;
      EXPECT_EQ(serial.stats(), mt.stats())
          << q << " compiled=" << compiled
          << "\nserial: " << serial.stats().ToString()
          << "\n4-thread: " << mt.stats().ToString();
    }
  }
}

// Two queries running at once share the process-wide morsel pool; each
// must still return the serial value with the serial counters exactly,
// on both backends.
TEST_P(ExecOptionsMatrixTest, ConcurrentParallelQueriesMatchSerial) {
  auto db = std::make_unique<Database>();
  XYConfig config;
  config.seed = 97 + static_cast<uint64_t>(GetParam());
  config.x_rows = 30;
  config.y_rows = 35;
  ASSERT_TRUE(AddRandomXY(db.get(), config).ok());

  std::vector<ExprPtr> plans;
  for (const char* q : kQueries) {
    plans.push_back(RewriteExpr(*db, TranslateOrDie(*db, q)).expr);
  }
  for (Backend backend : {Backend::kNested, Backend::kShredded}) {
    EvalOptions serial_opts;
    serial_opts.backend = backend;
    std::vector<Value> values;
    std::vector<EvalStats> stats;
    for (const ExprPtr& plan : plans) {
      EvalStats s;
      Result<Value> v = shred::EvalWithBackend(*db, plan, serial_opts, &s);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      values.push_back(*v);
      stats.push_back(s);
    }

    EvalOptions mt_opts = serial_opts;
    mt_opts.num_threads = 4;
    std::atomic<int> mismatches{0};
    auto run = [&](bool reversed) {
      for (int round = 0; round < 10; ++round) {
        for (size_t j = 0; j < plans.size(); ++j) {
          size_t i = reversed ? plans.size() - 1 - j : j;
          EvalStats s;
          Result<Value> v = shred::EvalWithBackend(*db, plans[i], mt_opts, &s);
          if (!v.ok() || *v != values[i] || !(s == stats[i])) {
            mismatches.fetch_add(1);
          }
        }
      }
    };
    std::thread a(run, false);
    std::thread b(run, true);
    a.join();
    b.join();
    EXPECT_EQ(mismatches.load(), 0)
        << "backend=" << static_cast<int>(backend);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecOptionsMatrixTest,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace n2j
