#ifndef N2J_EXEC_MORSEL_H_
#define N2J_EXEC_MORSEL_H_

// The morsel driver: the one way intra-query parallelism runs (Leis et
// al., "Morsel-driven parallelism", SIGMOD 2014 — one dispatcher over
// one process-wide pool). Every parallel operator writes its row loop
// once, as a range body; ForEachMorsel runs that body over the whole
// input on the coordinating evaluator when num_threads is 1, and over
// morsels on forked worker evaluators otherwise. Nothing else calls the
// pool.

#include <algorithm>
#include <iterator>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/thread_pool.h"
#include "exec/eval.h"

namespace n2j {

/// Runs body(worker, morsel) for morsels [0, num_morsels) on up to
/// `workers` logical workers of the process-wide pool (ThreadPool::
/// RunMorsels: lowest-failing-morsel error, the caller takes part).
/// When `trace` is set, each morsel is recorded as a worker span of
/// `phase`, serial (workers ≤ 1) or not.
Status RunMorsels(int workers, size_t num_morsels, const char* phase,
                  TraceCollector* trace, const MorselBody& body,
                  size_t* first_error_morsel = nullptr);

/// Appends one morsel's rows to the rows before it.
inline void AppendMorsel(std::vector<Value>* dst, std::vector<Value>&& src) {
  if (dst->empty()) {
    *dst = std::move(src);
    return;
  }
  dst->insert(dst->end(), std::make_move_iterator(src.begin()),
              std::make_move_iterator(src.end()));
}

/// Runs an operator's row loop over [0, n).
///
///   init(Evaluator& ev, Environment& env) -> State
///       prepares one evaluator's state (its lambdas, bound to ev and
///       env);
///   body(Evaluator& ev, State& state, size_t begin, size_t end,
///        Slot* out) -> Status
///       processes rows [begin, end), appending its output to `out`.
///
/// With coord's num_threads at 1, or n ≤ 1, init and body run once on
/// `coord` and `env` over [0, n), writing straight into `out`: no fork,
/// no slot, no indirect call. Otherwise each of k logical workers gets
/// a ForkWorker clone of `coord` and a copy of `env`, init runs for each
/// on this thread, and the body runs per morsel into a morsel slot — a
/// copy of `*out`, which must hold no rows yet. The slots are appended
/// to `out` in morsel order with AppendMorsel (found by argument-
/// dependent lookup for other slot types), so the output equals the
/// serial run's. Each morsel's counter delta is merged into coord's
/// stats before this returns, so an enclosing span sees them; when a
/// morsel fails, only the deltas up to and including it are merged —
/// exactly the work the serial loop did before it stopped there — and
/// its error is returned.
template <typename Init, typename Body, typename Slot>
Status ForEachMorsel(Evaluator& coord, Environment& env, size_t n,
                     const char* phase, Init&& init, Body&& body, Slot* out) {
  using State = std::invoke_result_t<Init&, Evaluator&, Environment&>;
  const EvalOptions& opts = coord.options();
  if (opts.num_threads <= 1 || n <= 1) {
    State state = init(coord, env);
    return body(coord, state, size_t{0}, n, out);
  }
  const size_t morsel_size = PickMorselSize(n, opts.num_threads);
  const size_t num_morsels = NumMorsels(n, morsel_size);
  const size_t k =
      std::min(static_cast<size_t>(opts.num_threads), num_morsels);
  std::vector<std::unique_ptr<Evaluator>> workers;
  std::vector<Environment> envs(k, env);
  std::vector<State> states;
  workers.reserve(k);
  states.reserve(k);
  for (size_t w = 0; w < k; ++w) {
    workers.push_back(coord.ForkWorker());
    states.push_back(init(*workers[w], envs[w]));
  }
  std::vector<Slot> slots(num_morsels, *out);
  std::vector<EvalStats> deltas(num_morsels);
  size_t failed = num_morsels;
  Status s = RunMorsels(
      static_cast<int>(k), num_morsels, phase, opts.trace,
      [&](int w, size_t m) -> Status {
        Evaluator& ev = *workers[static_cast<size_t>(w)];
        const EvalStats before = ev.stats();
        MorselRange range = MorselAt(n, morsel_size, m);
        Status st = body(ev, states[static_cast<size_t>(w)], range.begin,
                         range.end, &slots[m]);
        deltas[m] = ev.stats();
        deltas[m].Subtract(before);
        return st;
      },
      &failed);
  for (size_t m = 0; m < num_morsels && m <= failed; ++m) {
    coord.stats().Merge(deltas[m]);
  }
  N2J_RETURN_IF_ERROR(s);
  for (Slot& slot : slots) AppendMorsel(out, std::move(slot));
  return Status::OK();
}

/// Init for a row loop that keeps no per-worker state.
struct NoMorselState {
  int operator()(Evaluator&, Environment&) const { return 0; }
};

}  // namespace n2j

#endif  // N2J_EXEC_MORSEL_H_
