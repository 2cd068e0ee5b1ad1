#include "fuzz/fuzzer.h"

#include <chrono>
#include <ostream>

#include "common/str_util.h"
#include "core/engine.h"
#include "fuzz/shrink.h"

namespace n2j {
namespace fuzz {

namespace {

// The splitmix64 step: a bijection on 64-bit words whose output bits
// each depend on every input bit.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int64_t ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

uint64_t RoundSeed(uint64_t seed, int round) {
  // The seed is mixed before the round is added, so two campaigns meet
  // on a round seed only if their mixed seeds differ by the difference
  // of two round indices — for any pair of small seeds, never.
  const uint64_t base = SplitMix64(seed ^ 0x6e326a5f66757a7aULL);
  const uint64_t h = SplitMix64(base + static_cast<uint64_t>(round));
  return h == 0 ? 1 : h;
}

std::string FuzzSummary::ToString() const {
  return StrFormat(
      "rounds=%d ok=%d skipped=%d front-end-rejects=%d mismatches=%d "
      "(matrix of %d configs)",
      rounds_run, oracle_ok, skipped_runtime_error, front_end_rejects,
      mismatches, configs_per_round);
}

FuzzSummary RunFuzzer(const FuzzOptions& options,
                      std::vector<FuzzFailure>* failures, std::ostream* log) {
  const std::vector<OracleConfig> matrix =
      options.matrix.empty() ? DefaultConfigMatrix() : options.matrix;
  FuzzSummary summary;
  summary.configs_per_round = static_cast<int>(matrix.size());
  auto start = std::chrono::steady_clock::now();

  for (int round = options.start_round;
       round < options.start_round + options.rounds; ++round) {
    if (options.time_budget_ms > 0 &&
        ElapsedMs(start) >= options.time_budget_ms) {
      if (log) {
        *log << "time budget exhausted after " << summary.rounds_run
             << " rounds\n";
      }
      break;
    }
    uint64_t rseed = RoundSeed(options.seed, round);

    FuzzTablesConfig tables = options.tables;
    tables.seed = rseed;
    auto db = std::make_unique<Database>();
    Status s = AddRandomFuzzTables(db.get(), tables);
    N2J_CHECK(s.ok());

    QueryGenerator gen(*db, rseed ^ 0x51ed270b, options.gen);
    std::string query = gen.Generate();
    ++summary.rounds_run;
    if (options.verbose && log) {
      *log << "round " << round << " seed " << rseed << ": " << query
           << "\n";
    }

    OracleReport report = RunDifferentialOracle(*db, query, matrix);
    switch (report.status) {
      case OracleStatus::kOk:
        ++summary.oracle_ok;
        break;
      case OracleStatus::kSkipped:
        ++summary.skipped_runtime_error;
        break;
      case OracleStatus::kFrontEndError: {
        ++summary.front_end_rejects;
        if (log) {
          *log << "GENERATOR BUG (front end rejected a generated query)\n"
               << "  round " << round << " seed " << rseed << "\n  query: "
               << query << "\n  " << report.detail << "\n";
        }
        break;
      }
      case OracleStatus::kMismatch: {
        ++summary.mismatches;
        FuzzFailure failure;
        failure.round = round;
        failure.round_seed = rseed;
        failure.query = query;
        failure.failing_config = report.failing_config;
        failure.detail = report.detail;
        if (options.shrink_failures) {
          auto still_fails = [&matrix](const Database& d,
                                       const std::string& q) {
            return RunDifferentialOracle(d, q, matrix).status ==
                   OracleStatus::kMismatch;
          };
          ShrinkResult shrunk = ShrinkFailure(*db, query, still_fails);
          failure.shrunk_query = shrunk.query;
          failure.shrunk_db = DumpPlainTables(*shrunk.db);
        }
        if (log) {
          *log << "MISMATCH at round " << round << " (seed " << rseed
               << ", config " << report.failing_config << ")\n  query: "
               << query << "\n";
          if (!failure.shrunk_query.empty()) {
            *log << "  shrunk: " << failure.shrunk_query
                 << "\n  database:\n" << failure.shrunk_db;
          }
          *log << "  " << report.detail << "\n";
        }
        if (failures) failures->push_back(std::move(failure));
        break;
      }
    }
  }
  if (log) *log << summary.ToString() << "\n";
  return summary;
}

int RunRejectionRounds(const FuzzOptions& options, std::ostream* log) {
  auto start = std::chrono::steady_clock::now();
  int rounds = 0;
  for (int round = options.start_round;
       round < options.start_round + options.rounds; ++round) {
    if (options.time_budget_ms > 0 &&
        ElapsedMs(start) >= options.time_budget_ms) {
      break;
    }
    uint64_t rseed = RoundSeed(options.seed, round) ^ 0xbadc0de;

    FuzzTablesConfig tables = options.tables;
    tables.seed = rseed;
    auto db = std::make_unique<Database>();
    N2J_CHECK(AddRandomFuzzTables(db.get(), tables).ok());

    QueryGenerator gen(*db, rseed, options.gen);
    std::string query = gen.GenerateMalformed();
    ++rounds;

    // The full engine path must produce a Result either way — any crash
    // aborts the process and the caller's harness reports it.
    QueryEngine engine(db.get());
    Result<QueryReport> r = engine.Run(query);
    if (options.verbose && log) {
      *log << "reject round " << round << ": "
           << (r.ok() ? "accepted (still valid)" : r.status().ToString())
           << "\n  query: " << query << "\n";
    }
  }
  return rounds;
}

}  // namespace fuzz
}  // namespace n2j
