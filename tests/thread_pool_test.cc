// The morsel-scheduling thread pool behind num_threads > 1.

#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace n2j {
namespace {

TEST(ThreadPoolTest, StartupAndShutdown) {
  // A pool starts no thread until a call needs one, grows to the
  // largest worker count asked for (the caller is worker 0), and joins
  // its threads on destruction — repeatedly, including never used.
  for (int workers : {1, 2, 8}) {
    ThreadPool pool;
    EXPECT_EQ(pool.num_threads(), 0);
    ASSERT_TRUE(pool.RunMorsels(workers, 64, [](int, size_t) {
                      return Status::OK();
                    }).ok());
    EXPECT_EQ(pool.num_threads(), workers - 1);
    ASSERT_TRUE(pool.RunMorsels(2, 64, [](int, size_t) {
                      return Status::OK();
                    }).ok());
    EXPECT_EQ(pool.num_threads(), std::max(workers, 2) - 1);
  }
  ThreadPool unused;
}

TEST(ThreadPoolTest, ClampsWorkerCountToOne) {
  // Zero or negative workers run every morsel on the caller as worker 0.
  ThreadPool pool;
  for (int workers : {0, -3}) {
    const std::thread::id caller = std::this_thread::get_id();
    int runs = 0;
    Status s = pool.RunMorsels(workers, 5, [&](int worker, size_t) {
      EXPECT_EQ(worker, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++runs;
      return Status::OK();
    });
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(runs, 5);
  }
  EXPECT_EQ(pool.num_threads(), 0);
}

TEST(ThreadPoolTest, RunMorselsCoversEveryMorselExactlyOnce) {
  ThreadPool pool;
  std::vector<std::atomic<int>> hits(257);
  Status s = pool.RunMorsels(4, hits.size(), [&](int worker, size_t m) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 4);
    hits[m].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RunMorselsZeroMorselsIsOk) {
  ThreadPool pool;
  bool ran = false;
  Status s = pool.RunMorsels(2, 0, [&](int, size_t) {
    ran = true;
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, RunMorselsReportsLowestFailingMorsel) {
  // Error reporting is deterministic: regardless of which worker hits
  // which morsel first, the lowest-numbered failure wins — the same
  // error a serial left-to-right loop would report first.
  ThreadPool pool;
  for (int trial = 0; trial < 20; ++trial) {
    size_t first = 0;
    Status s = pool.RunMorsels(
        8, 64,
        [&](int, size_t m) {
          if (m % 7 == 3) {
            return Status::Internal("failed at " + std::to_string(m));
          }
          return Status::OK();
        },
        "morsel", nullptr, &first);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.message(), "failed at 3");
    EXPECT_EQ(first, 3u);
  }
}

TEST(ThreadPoolTest, RunMorselsConvertsBodyExceptionToStatus) {
  ThreadPool pool;
  Status s = pool.RunMorsels(2, 4, [&](int, size_t m) -> Status {
    if (m == 1) throw std::runtime_error("kaput");
    return Status::OK();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("kaput"), std::string::npos);
}

TEST(ThreadPoolTest, SinkReceivesEveryMorselWithItsPhase) {
  ThreadPool pool;
  std::atomic<int> reported{0};
  MorselSink sink = [&](int worker, size_t, const char* phase, int64_t t0,
                        int64_t t1) {
    EXPECT_LT(worker, 3);
    EXPECT_STREQ(phase, "probe");
    EXPECT_LE(t0, t1);
    reported.fetch_add(1);
  };
  ASSERT_TRUE(pool.RunMorsels(3, 40, [](int, size_t) { return Status::OK(); },
                              "probe", &sink)
                  .ok());
  EXPECT_EQ(reported.load(), 40);
}

TEST(ThreadPoolTest, ConcurrentCallersEachRunEveryMorselOnce) {
  // Several threads share one pool; every call still runs each of its
  // own morsels exactly once, on worker ids it asked for.
  ThreadPool pool;
  constexpr int kCallers = 4;
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &failures, c] {
      for (int round = 0; round < 25; ++round) {
        const int workers = 1 + (c + round) % 4;
        std::vector<std::atomic<int>> hits(97);
        Status s = pool.RunMorsels(workers, hits.size(), [&](int w, size_t m) {
          if (w < 0 || w >= workers) failures.fetch_add(1);
          hits[m].fetch_add(1);
          return Status::OK();
        });
        if (!s.ok()) failures.fetch_add(1);
        for (const auto& h : hits) {
          if (h.load() != 1) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(pool.num_threads(), 3);
}

TEST(ThreadPoolTest, CallCompletesWhilePoolThreadsAreBlocked) {
  // Call A's bodies hold the caller and every pool thread until
  // released. Call B, from another thread, must still finish: its caller
  // runs all of B's morsels itself.
  ThreadPool pool;
  constexpr int kWorkers = 3;
  std::atomic<int> blocked{0};
  std::atomic<bool> release{false};
  std::thread a([&] {
    Status s = pool.RunMorsels(kWorkers, kWorkers, [&](int, size_t) {
      blocked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      return Status::OK();
    });
    EXPECT_TRUE(s.ok());
  });
  while (blocked.load() < kWorkers) std::this_thread::yield();
  EXPECT_EQ(pool.num_threads(), kWorkers - 1);

  std::vector<int> ran_by(50, -1);
  Status s = pool.RunMorsels(kWorkers, ran_by.size(), [&](int w, size_t m) {
    ran_by[m] = w;
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  for (int w : ran_by) EXPECT_EQ(w, 0);

  release.store(true);
  a.join();
}

TEST(ThreadPoolTest, MorselMathCoversRangeExactly) {
  for (size_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    for (size_t ms : {1u, 3u, 64u, 2000u}) {
      size_t num = NumMorsels(n, ms);
      size_t covered = 0;
      size_t expected_begin = 0;
      for (size_t m = 0; m < num; ++m) {
        MorselRange r = MorselAt(n, ms, m);
        EXPECT_EQ(r.begin, expected_begin);
        EXPECT_LE(r.end, n);
        EXPECT_LT(r.begin, r.end);  // no empty morsels
        covered += r.end - r.begin;
        expected_begin = r.end;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " morsel_size=" << ms;
    }
  }
}

TEST(ThreadPoolTest, PickMorselSizeDegradesToSingleElements) {
  // Tiny inputs must still split into several morsels so the parallel
  // code paths get exercised by fuzzer-sized data.
  EXPECT_EQ(PickMorselSize(3, 4), 1u);
  EXPECT_EQ(PickMorselSize(100, 4), 3u);
  // Huge inputs cap at 1024 elements per morsel.
  EXPECT_EQ(PickMorselSize(1 << 20, 2), 1024u);
}

}  // namespace
}  // namespace n2j
