#ifndef N2J_FUZZ_FUZZER_H_
#define N2J_FUZZ_FUZZER_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/oracle.h"
#include "fuzz/query_gen.h"
#include "storage/datagen.h"

namespace n2j {
namespace fuzz {

struct FuzzOptions {
  uint64_t seed = 1;
  int rounds = 100;
  /// First round index. Per-round seeds depend only on (seed, round
  /// index), so `start_round = R, rounds = 1` replays round R exactly.
  int start_round = 0;
  /// Stop early once this much wall time has elapsed (0 = unlimited).
  int64_t time_budget_ms = 0;
  bool shrink_failures = true;
  bool verbose = false;
  /// Template for per-round databases; the table seed is derived from
  /// (seed, round), so every round sees a fresh schema *and* data.
  FuzzTablesConfig tables;
  GenOptions gen;
  /// Differential matrix; empty means DefaultConfigMatrix().
  std::vector<OracleConfig> matrix;
};

struct FuzzFailure {
  int round = 0;
  uint64_t round_seed = 0;
  std::string query;          // original failing query
  std::string failing_config;
  std::string detail;         // oracle mismatch description
  std::string shrunk_query;   // after minimization ("" if disabled)
  std::string shrunk_db;      // printable dump of the minimized database
};

struct FuzzSummary {
  int rounds_run = 0;
  int oracle_ok = 0;
  int skipped_runtime_error = 0;  // reference hit a (legal) runtime error
  int front_end_rejects = 0;      // generator output the front end refused
                                  // — a generator bug, kept visible
  int mismatches = 0;
  int configs_per_round = 0;

  bool Clean() const { return mismatches == 0 && front_end_rejects == 0; }
  std::string ToString() const;
};

/// The per-round seed of campaign `seed` (the database tables' seed;
/// the generator's is derived from it). Depends only on (seed, round),
/// and different small seeds share no round seed, so each campaign
/// draws its own queries.
uint64_t RoundSeed(uint64_t seed, int round);

/// The differential fuzzing loop: per round, build a random database
/// (random schema + data), generate a random well-typed OOSQL query, and
/// run the oracle across the configuration matrix. Mismatches are
/// minimized with ShrinkFailure (re-running the oracle as the failure
/// predicate) and appended to `failures`. `log` may be null.
FuzzSummary RunFuzzer(const FuzzOptions& options,
                      std::vector<FuzzFailure>* failures, std::ostream* log);

/// Rejection-mode loop (satellite of the same subsystem): per round,
/// generate a *malformed* query and check the full engine path returns a
/// Status instead of crashing. Returns the number of rounds executed.
int RunRejectionRounds(const FuzzOptions& options, std::ostream* log);

}  // namespace fuzz
}  // namespace n2j

#endif  // N2J_FUZZ_FUZZER_H_
