#include "common/thread_pool.hpp"

#include <cstdlib>
#include <exception>
#include <memory>

namespace duo {

namespace {

// The pool whose worker_loop the current thread is running, if any, and the
// pool of the innermost InlineScope the current thread holds, if any (the
// caller of a parallel_for holds one while it drains its own share). Either
// lets parallel_for detect a re-entrant call on the same pool and degrade to
// inline execution instead of enqueueing against a saturated queue.
thread_local const ThreadPool* t_worker_pool = nullptr;
thread_local const ThreadPool* t_inline_pool = nullptr;

std::atomic<ThreadPool*> g_compute_pool{nullptr};

}  // namespace

// Shared between the caller and the helper tasks of one parallel_for call.
// Held via shared_ptr so a straggler task that starts after the caller has
// returned can still safely observe next >= count and exit.
struct ThreadPool::ParallelState {
  explicit ParallelState(std::size_t count) : remaining(count) {}

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining;
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 1 : hw;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stop_.load(std::memory_order_relaxed)) {
      tasks_.push(std::move(task));
      cv_.notify_one();
      return true;
    }
  }
  // Stopped pool (e.g. a static being destroyed after the shared pool):
  // run the task synchronously rather than crashing or dropping it.
  task();
  return false;
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_relaxed) || !tasks_.empty();
      });
      if (stop_.load(std::memory_order_relaxed) && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool::InlineScope::InlineScope(const ThreadPool& pool) noexcept
    : outer_(t_inline_pool) {
  t_inline_pool = &pool;
}

ThreadPool::InlineScope::~InlineScope() { t_inline_pool = outer_; }

bool ThreadPool::runs_inline() const noexcept {
  return workers_.size() <= 1 || t_worker_pool == this ||
         t_inline_pool == this || stopped();
}

void ThreadPool::drain(ParallelState& state, std::size_t count,
                       const std::function<void(std::size_t)>& fn) {
  for (;;) {
    const std::size_t i = state.next.fetch_add(1);
    if (i >= count) return;
    if (!state.failed.load(std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state.error_mutex);
        if (!state.failed.exchange(true)) {
          state.error = std::current_exception();
        }
      }
    }
    if (state.remaining.fetch_sub(1) == 1) {
      // Lock so the notify cannot slip between the caller's predicate check
      // and its wait.
      std::lock_guard<std::mutex> lock(state.done_mutex);
      state.done_cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Inline paths: trivial loops, single-worker pools, re-entrant calls from
  // one of our own workers or from inside an InlineScope (our caller's own
  // share, a serve lane), and stopped pools (static destruction).
  if (count == 1 || runs_inline()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Dynamic index dispatch: participants grab the next index atomically,
  // which load-balances uneven per-item cost (e.g. attacks that converge
  // early). The caller is always a participant, so completion never depends
  // on a worker being free — helper tasks only speed things up.
  auto state = std::make_shared<ParallelState>(count);
  const std::size_t helpers = std::min(workers_.size(), count - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    // `fn` is captured by reference: a straggler task that runs after the
    // caller returned observes next >= count and exits without touching it.
    enqueue([state, count, &fn] { drain(*state, count, fn); });
  }
  {
    const InlineScope own_share(*this);
    drain(*state, count, fn);
  }

  {
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->done_cv.wait(
        lock, [&] { return state->remaining.load(std::memory_order_acquire) == 0; });
  }
  if (state->failed.load() && state->error) {
    std::rethrow_exception(state->error);
  }
}

std::size_t ThreadPool::threads_from_env(const char* value) noexcept {
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 0) return 0;
  return static_cast<std::size_t>(parsed);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(threads_from_env(std::getenv("DUO_THREADS")));
  return pool;
}

ThreadPool& compute_pool() noexcept {
  ThreadPool* override_pool = g_compute_pool.load(std::memory_order_acquire);
  return override_pool != nullptr ? *override_pool : ThreadPool::shared();
}

void set_compute_pool(ThreadPool* pool) noexcept {
  g_compute_pool.store(pool, std::memory_order_release);
}

}  // namespace duo
