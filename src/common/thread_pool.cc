#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <string>

namespace n2j {

int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One RunMorsels call. It lives on the caller's stack; the caller
/// leaves only after unlisting it and seeing `running` drop to zero.
struct ThreadPool::Call {
  Call(const MorselBody& b, size_t n, int w, const char* p,
       const MorselSink* s)
      : body(b), num_morsels(n), workers(w), phase(p), sink(s) {}

  const MorselBody& body;
  size_t num_morsels;
  int workers;
  const char* phase;
  const MorselSink* sink;
  std::atomic<size_t> next{0};
  // Lowest failing morsel so far (SIZE_MAX: none) and its error.
  std::atomic<size_t> failed{SIZE_MAX};
  std::mutex error_mu;
  Status error;
  // Guarded by the pool's mu_.
  int claimed = 1;  // worker ids handed out; the caller holds 0
  int running = 0;  // pool threads inside Work

  void Fail(size_t m, Status s) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (m < failed.load(std::memory_order_relaxed)) {
      failed.store(m, std::memory_order_relaxed);
      error = std::move(s);
    }
  }
};

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  call_posted_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::num_threads() {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

void ThreadPool::Work(Call& call, int worker) {
  for (;;) {
    size_t m = call.next.fetch_add(1, std::memory_order_relaxed);
    if (m >= call.num_morsels) return;
    if (m > call.failed.load(std::memory_order_relaxed)) continue;
    int64_t t0 = call.sink != nullptr ? MonotonicNanos() : 0;
    Status s;
    // Nothing may escape: a pool thread's exception would end the process.
    try {
      s = call.body(worker, m);
      if (call.sink != nullptr) {
        (*call.sink)(worker, m, call.phase, t0, MonotonicNanos());
      }
    } catch (const std::exception& ex) {
      s = Status::Internal(std::string("morsel threw: ") + ex.what());
    } catch (...) {
      s = Status::Internal("morsel threw a non-exception");
    }
    if (!s.ok()) call.Fail(m, std::move(s));
  }
}

void ThreadPool::ThreadLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    call_posted_.wait(lock, [this] { return shutdown_ || !open_.empty(); });
    if (shutdown_) return;
    Call* call = open_.front();
    int worker = call->claimed++;
    if (call->claimed == call->workers) open_.pop_front();
    ++call->running;
    lock.unlock();
    Work(*call, worker);
    lock.lock();
    if (--call->running == 0) helper_done_.notify_all();
  }
}

Status ThreadPool::RunMorsels(int workers, size_t num_morsels,
                              const MorselBody& body, const char* phase,
                              const MorselSink* sink,
                              size_t* first_error_morsel) {
  if (num_morsels == 0) return Status::OK();
  Call call(body, num_morsels,
            workers > 1 ? static_cast<int>(std::min(
                              static_cast<size_t>(workers), num_morsels))
                        : 1,
            phase, sink);
  const int helpers = std::min(call.workers - 1, kMaxThreads);
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (threads_.size() < static_cast<size_t>(helpers)) {
        threads_.emplace_back([this] { ThreadLoop(); });
      }
      open_.push_back(&call);
    }
    for (int i = 0; i < helpers; ++i) call_posted_.notify_one();
  }
  Work(call, 0);
  if (helpers > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = std::find(open_.begin(), open_.end(), &call);
    if (it != open_.end()) open_.erase(it);
    helper_done_.wait(lock, [&call] { return call.running == 0; });
  }
  size_t failed = call.failed.load(std::memory_order_relaxed);
  if (failed == SIZE_MAX) return Status::OK();
  if (first_error_morsel != nullptr) *first_error_morsel = failed;
  return std::move(call.error);
}

size_t NumMorsels(size_t n, size_t morsel_size) {
  if (n == 0) return 0;
  if (morsel_size == 0) morsel_size = 1;
  return (n + morsel_size - 1) / morsel_size;
}

MorselRange MorselAt(size_t n, size_t morsel_size, size_t m) {
  if (morsel_size == 0) morsel_size = 1;
  size_t begin = m * morsel_size;
  size_t end = begin + morsel_size;
  if (end > n) end = n;
  if (begin > n) begin = n;
  return {begin, end};
}

size_t PickMorselSize(size_t n, int num_workers) {
  if (num_workers < 1) num_workers = 1;
  // ~8 morsels per worker balances skew without drowning in scheduling;
  // tiny inputs degrade to one element per morsel, which keeps the
  // parallel paths exercised (and differentially testable) even on
  // fuzzer-sized data.
  size_t target = static_cast<size_t>(num_workers) * 8;
  size_t size = n / target;
  if (size < 1) size = 1;
  if (size > 1024) size = 1024;
  return size;
}

}  // namespace n2j
