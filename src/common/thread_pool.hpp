#pragma once

// Fixed-size thread pool with a blocking, nesting-safe parallel_for. Used to
// parallelize embarrassingly parallel work: the Conv3d/pooling kernels,
// per-video feature extraction, per-pair attack evaluation, and the
// distributed retrieval scatter phase.
//
// parallel_for is safe to call from anywhere, including from inside a task
// already running on the same pool: the calling thread always participates in
// draining its own work (caller-runs), and a call nested inside an outer
// parallel_for on the same pool (from a worker, or from the caller's own
// share) degrades to inline execution instead of enqueueing against a pool
// the outer call already keeps busy. Without both properties, nested calls
// deadlock — the outer task blocks a worker slot while its shards starve
// behind it. A thread that supplies its own parallelism (a serve lane) opts
// into the same inline rule with an InlineScope.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace duo {

class ThreadPool {
 public:
  // num_threads == 0 selects hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  // Enqueue a task; fire-and-forget. Use parallel_for for joined work.
  // Returns true if the task was queued. On a stopped pool the task runs
  // inline on the calling thread and false is returned — this keeps
  // late callers safe during static destruction (see shared()).
  bool enqueue(std::function<void()> task);

  // Run fn(i) for i in [0, count), blocking until all complete. Exceptions
  // from fn propagate: the first one thrown is rethrown on the caller.
  //
  // Re-entrant: when called from inside an outer parallel_for on this same
  // pool — from a worker thread, or from the calling thread while it runs
  // its own share of the outer indices — the indices run inline on that
  // thread (the pool is already saturated with the outer loop's shards, so
  // queueing would only add latency — or, if the caller merely waited,
  // deadlock). From any other thread the caller drains indices alongside
  // the workers, so forward progress never depends on a free worker slot.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  // While alive, every parallel_for the constructing thread issues on `pool`
  // runs inline on that thread, as a nested call on a worker does. The
  // caller of a parallel_for holds one around its own share; a thread that
  // runs beside the pool's workers as one of them (a serve lane) holds one
  // for its lifetime. Scopes nest; destroy them on the constructing thread,
  // in reverse order.
  class InlineScope {
   public:
    explicit InlineScope(const ThreadPool& pool) noexcept;
    ~InlineScope();

    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

   private:
    const ThreadPool* outer_;
  };

  // True when a parallel_for issued from the calling thread would run every
  // index inline on it: on one of this pool's workers, inside an
  // InlineScope on it, on a one-worker pool, or on a stopped pool. Work that
  // would only be split across that thread anyway (extract_batch's
  // replicas) reads this to stay on one instance.
  bool runs_inline() const noexcept;

  // Stop accepting queued work and join all workers. Idempotent, but must
  // not be called concurrently with itself. Called by the destructor;
  // exposed so the shutdown path is testable. After shutdown, enqueue runs
  // tasks inline and parallel_for runs serially.
  void shutdown();
  bool stopped() const noexcept { return stop_.load(std::memory_order_acquire); }

  // Process-wide shared pool for library internals that want parallelism
  // without plumbing a pool through every call. Sized once, at first use,
  // from the DUO_THREADS environment variable (see threads_from_env).
  //
  // Static destruction: the pool is a function-local static, so objects
  // destroyed after it may still call into it. Both enqueue and
  // parallel_for degrade to inline/serial execution on a stopped pool
  // instead of crashing, which makes those destruction-order races benign.
  static ThreadPool& shared();

  // Parse a DUO_THREADS-style value: "0", empty, or invalid selects
  // hardware concurrency (returns 0); "1" means serial; "N" means N workers.
  static std::size_t threads_from_env(const char* value) noexcept;

 private:
  struct ParallelState;

  void worker_loop();
  static void drain(ParallelState& state, std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> stop_{false};
};

// Pool used by the compute kernels (Conv3d, pooling, feature extraction,
// gallery construction). Defaults to ThreadPool::shared(); tests and benches
// can interpose their own pool to measure or pin a specific thread count.
ThreadPool& compute_pool() noexcept;

// Override the compute pool (nullptr restores the shared pool). The pointer
// must outlive all kernel launches made while it is set; not synchronized
// against concurrently running kernels.
void set_compute_pool(ThreadPool* pool) noexcept;

}  // namespace duo
