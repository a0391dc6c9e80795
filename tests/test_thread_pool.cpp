#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace duo {
namespace {

// Runs `fn` on a helper thread and aborts the whole process if it does not
// finish within `deadline`. A deadlocked pool cannot be torn down, so on
// timeout the only way to surface the failure to ctest is a hard exit.
void run_with_deadline(const std::function<void()>& fn,
                       std::chrono::seconds deadline) {
  std::packaged_task<void()> task(fn);
  auto future = task.get_future();
  std::thread runner(std::move(task));
  if (future.wait_for(deadline) == std::future_status::timeout) {
    std::fprintf(stderr, "FATAL: parallel_for deadlocked (exceeded %llds)\n",
                 static_cast<long long>(deadline.count()));
    std::fflush(stderr);
    std::_Exit(2);
  }
  runner.join();
  future.get();
}

TEST(ThreadPool, RunsAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleItemRunsInline) {
  ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 17) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelSumMatchesSequential) {
  ThreadPool pool(8);
  std::vector<long long> partial(256, 0);
  pool.parallel_for(256, [&](std::size_t i) {
    partial[i] = static_cast<long long>(i) * i;
  });
  long long total = std::accumulate(partial.begin(), partial.end(), 0LL);
  long long expected = 0;
  for (long long i = 0; i < 256; ++i) expected += i * i;
  EXPECT_EQ(total, expected);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, SizeReflectsRequestedThreads) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

// Regression test for the re-entrancy deadlock: an outer parallel_for at
// full pool width whose items issue further parallel_for calls on the same
// pool used to park every worker on done_cv with their shards starved
// behind them in the queue.
TEST(ThreadPool, NestedParallelForTwoLevelsDeepDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> innermost{0};
  run_with_deadline(
      [&] {
        pool.parallel_for(4, [&](std::size_t) {
          pool.parallel_for(4, [&](std::size_t) {
            pool.parallel_for(4, [&](std::size_t) { innermost.fetch_add(1); });
          });
        });
      },
      std::chrono::seconds(10));
  EXPECT_EQ(innermost.load(), 64);
}

TEST(ThreadPool, NestedParallelForRunsInlineOnWorkers) {
  ThreadPool pool(3);
  std::atomic<int> nested_items{0};
  std::atomic<int> escaped{0};  // nested items that hopped to another thread
  std::atomic<int> not_inline{0};  // outer items the query called fan-outs
  std::atomic<int> started{0};
  run_with_deadline(
      [&] {
        const std::thread::id caller = std::this_thread::get_id();
        pool.parallel_for(3, [&](std::size_t) {
          // Hold every outer item until all three run concurrently: with a
          // single caller thread, at least two must be on pool workers.
          started.fetch_add(1);
          while (started.load() < 3) std::this_thread::yield();
          if (!pool.runs_inline()) not_inline.fetch_add(1);
          const std::thread::id outer_thread = std::this_thread::get_id();
          const bool on_worker = outer_thread != caller;
          pool.parallel_for(5, [&](std::size_t) {
            if (on_worker) {
              nested_items.fetch_add(1);
              if (std::this_thread::get_id() != outer_thread) {
                escaped.fetch_add(1);
              }
            }
          });
        });
      },
      std::chrono::seconds(10));
  // Worker-context nesting must degrade to inline execution: every nested
  // item of a worker-executed outer item stays on that worker's thread, and
  // runs_inline() says so from inside every outer item.
  EXPECT_GT(nested_items.load(), 0);
  EXPECT_EQ(escaped.load(), 0);
  EXPECT_EQ(not_inline.load(), 0);
  EXPECT_FALSE(pool.runs_inline());  // the caller, outside the call
}

// A thread that holds an InlineScope on a pool runs every parallel_for it
// issues on that pool inline, as a pool worker does: a serve lane relies on
// this to serve a batch without fanning it out. The scope is per pool and
// per thread, nests, and ends with its object.
TEST(ThreadPool, InlineScopeKeepsEveryIndexOnItsThread) {
  ThreadPool pool(4);
  ThreadPool other(2);
  std::atomic<int> items{0};
  std::atomic<int> escaped{0};
  std::atomic<int> seen_inline_elsewhere{0};
  run_with_deadline(
      [&] {
        const std::thread::id self = std::this_thread::get_id();
        EXPECT_FALSE(pool.runs_inline());
        {
          const ThreadPool::InlineScope scope(pool);
          EXPECT_TRUE(pool.runs_inline());
          EXPECT_FALSE(other.runs_inline());
          {
            const ThreadPool::InlineScope nested(other);
            EXPECT_TRUE(other.runs_inline());
          }
          EXPECT_TRUE(pool.runs_inline());
          EXPECT_FALSE(other.runs_inline());
          // Slow items: a fan-out would hand some to the idle workers.
          pool.parallel_for(16, [&](std::size_t) {
            items.fetch_add(1);
            if (std::this_thread::get_id() != self) escaped.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          });
          // The scope belongs to this thread: another thread still fans out.
          std::thread([&] {
            if (pool.runs_inline()) seen_inline_elsewhere.fetch_add(1);
          }).join();
        }
        EXPECT_FALSE(pool.runs_inline());
      },
      std::chrono::seconds(10));
  EXPECT_EQ(items.load(), 16);
  EXPECT_EQ(escaped.load(), 0);
  EXPECT_EQ(seen_inline_elsewhere.load(), 0);
}

// The caller's own share of an outer parallel_for is nested context too: a
// parallel_for it issues on the same pool runs inline on the caller's
// thread, as one issued from a worker does, instead of fanning out to
// workers the outer call already keeps busy.
TEST(ThreadPool, NestedCallFromCallerShareStaysOnCallerThread) {
  ThreadPool pool(3);
  std::atomic<int> started{0};
  std::atomic<int> caller_items{0};
  std::atomic<int> nested_items{0};
  std::atomic<int> escaped{0};  // nested items that ran off the caller
  run_with_deadline(
      [&] {
        const std::thread::id caller = std::this_thread::get_id();
        // Four items for four participants: each blocks until all four run,
        // so exactly one of them is the caller's.
        pool.parallel_for(4, [&](std::size_t) {
          started.fetch_add(1);
          while (started.load() < 4) std::this_thread::yield();
          if (std::this_thread::get_id() != caller) return;
          caller_items.fetch_add(1);
          // Slow items: a fan-out would hand some to the idle workers.
          pool.parallel_for(16, [&](std::size_t) {
            nested_items.fetch_add(1);
            if (std::this_thread::get_id() != caller) escaped.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          });
        });
      },
      std::chrono::seconds(10));
  EXPECT_EQ(caller_items.load(), 1);
  EXPECT_EQ(nested_items.load(), 16);
  EXPECT_EQ(escaped.load(), 0);
}

TEST(ThreadPool, CallerRunsEvenWhenAllWorkersAreBusy) {
  ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  // Park every worker on a gate so the queue cannot make progress; the
  // caller must finish the loop entirely on its own.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool.enqueue([&] {
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return release; });
    });
  }
  std::atomic<int> count{0};
  run_with_deadline(
      [&] { pool.parallel_for(64, [&](std::size_t) { count.fetch_add(1); }); },
      std::chrono::seconds(10));
  EXPECT_EQ(count.load(), 64);
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
}

TEST(ThreadPool, NestedPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t) {
                                   pool.parallel_for(4, [&](std::size_t j) {
                                     if (j == 2) {
                                       throw std::runtime_error("inner");
                                     }
                                   });
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ShutdownDegradesToInlineExecution) {
  ThreadPool pool(3);
  pool.shutdown();
  EXPECT_TRUE(pool.stopped());

  // enqueue on a stopped pool runs the task synchronously and reports it
  // was not queued (the static-destruction-order safety net).
  bool ran = false;
  EXPECT_FALSE(pool.enqueue([&] { ran = true; }));
  EXPECT_TRUE(ran);

  std::atomic<int> count{0};
  pool.parallel_for(16, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);

  pool.shutdown();  // idempotent
  EXPECT_TRUE(pool.stopped());
}

TEST(ThreadPool, ThreadsFromEnvParsing) {
  EXPECT_EQ(ThreadPool::threads_from_env(nullptr), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env(""), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("0"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("1"), 1u);
  EXPECT_EQ(ThreadPool::threads_from_env("8"), 8u);
  EXPECT_EQ(ThreadPool::threads_from_env("-3"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("junk"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("4x"), 0u);
}

TEST(ThreadPool, ComputePoolOverride) {
  EXPECT_EQ(&compute_pool(), &ThreadPool::shared());
  {
    ThreadPool pool(2);
    set_compute_pool(&pool);
    EXPECT_EQ(&compute_pool(), &pool);
    set_compute_pool(nullptr);
  }
  EXPECT_EQ(&compute_pool(), &ThreadPool::shared());
}

}  // namespace
}  // namespace duo
