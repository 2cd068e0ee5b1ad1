#ifndef N2J_COMMON_THREAD_POOL_H_
#define N2J_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace n2j {

/// Nanoseconds on the process-wide monotonic clock. Only differences are
/// meaningful; all trace timestamps use this clock.
int64_t MonotonicNanos();

/// One morsel of a RunMorsels call, run by logical worker `worker`.
using MorselBody = std::function<Status(int worker, size_t morsel)>;

/// Receives one timestamped morsel execution from RunMorsels. `phase` is
/// the string literal the call was labelled with.
using MorselSink = std::function<void(int worker, size_t morsel,
                                      const char* phase, int64_t start_ns,
                                      int64_t end_ns)>;

/// The morsel-scheduling thread pool behind num_threads > 1: one FIFO
/// of open calls, no work stealing, no per-task queue. Each call runs
/// its morsels on up to `workers` logical workers; every participant
/// claims morsels one at a time from the call's shared counter, so a
/// slow morsel never stalls the rest of the input.
///
/// The calling thread is logical worker 0 and runs morsels itself, so a
/// call for k workers needs at most k − 1 pool threads, and every call
/// finishes even while other calls occupy all of them. Any number of
/// threads may call RunMorsels concurrently. Production code uses the
/// process-wide Shared() pool, through the morsel driver
/// (exec/morsel.h).
class ThreadPool {
 public:
  /// Starts no thread; RunMorsels starts them on first use.
  ThreadPool() = default;
  /// Joins the threads. No call may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool.
  static ThreadPool& Shared();

  /// Threads started so far: the largest `workers` − 1 any call asked
  /// for, at most kMaxThreads.
  int num_threads();

  /// Runs body(worker, morsel) for every morsel in [0, num_morsels) on
  /// logical workers [0, min(workers, num_morsels)); `workers` < 1 runs
  /// everything on the caller as worker 0. Returns the error of the
  /// *lowest-numbered* failing morsel — deterministic whatever the
  /// scheduling — and stores its index in `first_error_morsel` when
  /// that is set (left untouched on success). Once a morsel has failed,
  /// higher morsels that have not started are skipped: their outcome
  /// cannot change the answer. An exception escaping `body` becomes an
  /// internal-error Status for its morsel. When `sink` is set, each
  /// morsel that ran is reported to it, labelled `phase`; the sink runs
  /// on the participating threads and must be thread-safe.
  Status RunMorsels(int workers, size_t num_morsels, const MorselBody& body,
                    const char* phase = "morsel",
                    const MorselSink* sink = nullptr,
                    size_t* first_error_morsel = nullptr);

  /// Cap on pool threads; logical workers beyond it go unclaimed, which
  /// changes scheduling only.
  static constexpr int kMaxThreads = 64;

 private:
  struct Call;

  void ThreadLoop();
  static void Work(Call& call, int worker);

  std::mutex mu_;  // guards the members below
  std::condition_variable call_posted_;
  std::condition_variable helper_done_;
  std::deque<Call*> open_;  // calls with unclaimed worker ids
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

/// Half-open element range of one morsel.
struct MorselRange {
  size_t begin;
  size_t end;
};

/// Number of size-`morsel_size` morsels covering [0, n). Zero when n is
/// zero.
size_t NumMorsels(size_t n, size_t morsel_size);

/// The range of morsel `m` (the last morsel may be ragged).
MorselRange MorselAt(size_t n, size_t morsel_size, size_t m);

/// Morsel-size heuristic: aims for several morsels per worker so the
/// shared-counter scheduling can balance skew, while capping the morsel
/// count for tiny inputs (every element its own morsel at the limit).
size_t PickMorselSize(size_t n, int num_workers);

}  // namespace n2j

#endif  // N2J_COMMON_THREAD_POOL_H_
