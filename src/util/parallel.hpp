/// \file parallel.hpp
/// \brief The process-wide thread pool and the deterministic data-parallel
///        loop built on it.
///
/// Experiment cells evaluate 128 independent samples; parallel_for spreads
/// them over the pool's workers and the calling thread.  Results stay
/// deterministic because every sample derives its own RNG seed and writes to
/// its own output slot — aggregation happens sequentially afterwards.
///
/// The work is flat: loop helpers that take indices from one shared counter,
/// and whole campaign cells.  So the pool is one FIFO queue under one mutex
/// and one condition variable, created once and shared by both kinds of
/// task; tasks start in submission order.
///
/// parallel_for never blocks the pool: the calling thread claims every index
/// not already taken by a helper, so the loop completes even when all
/// workers are busy — which makes nested parallel_for (a campaign cell
/// running its 128-sample batch from inside a pool worker) deadlock-free by
/// construction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace feast {

class ThreadPool {
 public:
  /// Starts \p threads workers (0 = hardware concurrency).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads currently running.
  unsigned worker_count() const;

  /// Adjusts the worker count (0 = hardware concurrency).  Queued tasks are
  /// preserved.  No-op when the count is unchanged; throws ContractViolation
  /// when called from one of this pool's workers (it would join itself).
  void resize(unsigned threads);

  /// Enqueues a fire-and-forget task.  The task must not throw; an escaping
  /// exception is caught and logged, never propagated.
  void submit(std::function<void()> task);

  /// Enqueues a task and returns a future for its result (submit/wait API).
  /// Exceptions thrown by \p fn are captured into the future.
  template <typename F>
  auto async(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    submit([task]() { (*task)(); });
    return future;
  }

  /// Invokes body(i) for i in [0, n), spreading iterations over the workers
  /// *and* the calling thread.  Returns when every invocation has finished
  /// and no helper it queued is still queued or running, so the caller may
  /// destroy the installed obs sink right after.
  /// The first exception thrown by the body wins and is rethrown here after
  /// the remaining iterations have been cancelled (claimed but skipped).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const noexcept;

  /// The process-wide pool used by feast::parallel_for and the campaign
  /// runner.  It starts no worker until asked: feast::set_parallelism(n)
  /// starts exactly n, and the first task or loop with no earlier resize
  /// starts hardware concurrency.
  static ThreadPool& global();

 private:
  struct Loop;
  struct Deferred {};

  /// A pool with no workers yet; the first submit or parallel_for starts
  /// the default count unless a resize came first.
  explicit ThreadPool(Deferred) {}

  /// A queued task: a submitted function, or a helper of one loop.
  struct Task {
    std::function<void()> fn;
    Loop* loop = nullptr;
  };

  /// Run: serve tasks.  Drain: finish every queued task, then exit
  /// (destruction).  Quit: exit once the current task is done, leaving
  /// queued tasks in place (resize, which restarts the workers).
  enum class Mode { Run, Drain, Quit };

  void worker_main(unsigned index);
  void participate(Loop& loop);
  void start_workers(unsigned threads);
  void stop_workers(Mode mode);
  /// Starts the default worker count unless workers are running.
  void ensure_started();

  /// Guards tasks_, mode_, the size of workers_ and each loop's entry count
  /// and error.
  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< Signalled on a push and on a mode change.
  std::deque<Task> tasks_;
  Mode mode_ = Mode::Run;
  /// Changed only by resize, under both mutexes; resize joins the old
  /// workers holding resize_mutex_ alone, since they need mutex_ to exit.
  std::vector<std::thread> workers_;
  std::mutex resize_mutex_;
  /// Set once workers have been started; lets ensure_started skip both
  /// mutexes on every later task.
  std::atomic<bool> started_{false};
};

/// Invokes body(i) for i in [0, n) on the global pool (serially when it has
/// one worker).  The body must be thread-safe with respect to distinct i.
/// Exceptions thrown by the body are rethrown on the calling thread (the
/// first one encountered wins).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// Resizes the global pool to \p threads workers (0 = hardware concurrency).
/// For tests and --threads flags.  Ignored on one of the pool's own threads,
/// which cannot join itself.
void set_parallelism(unsigned threads);

/// The global pool's worker count (at least 1): before the pool has
/// started, the count it would start.  Starts no thread.
unsigned parallelism();

}  // namespace feast
