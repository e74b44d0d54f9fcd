/// \file pool.hpp
/// \brief Persistent work-stealing thread pool backing all FEAST parallelism.
///
/// The seed implementation spawned fresh std::threads on every
/// feast::parallel_for call; a large sweep (strategies × sizes × scenarios)
/// paid thousands of thread creations.  This pool is created once, keeps one
/// deque per worker, and serves both the data-parallel loops of the
/// experiment batches (via feast::parallel_for, which delegates here) and
/// the task-level parallelism of the campaign runner (via submit/async).
///
/// Scheduling discipline: a worker pushes and pops its own deque at the back
/// (LIFO, cache-friendly for recursively spawned work) and steals from the
/// front of other workers' deques (FIFO, takes the oldest — typically
/// largest — piece of work).  External submissions are sprayed round-robin
/// over the worker deques.
///
/// parallel_for never blocks the pool: the calling thread participates in
/// the loop and claims every index not already taken by a helper, so the
/// loop completes even when all workers are busy — which makes nested
/// parallel_for (a campaign cell running its 128-sample batch from inside a
/// pool worker) deadlock-free by construction.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>

namespace feast {

class WorkStealingPool {
 public:
  /// Starts \p threads workers (0 = hardware concurrency).
  explicit WorkStealingPool(unsigned threads = 0);

  /// Drains every queued task, then joins the workers.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Number of worker threads currently running.
  unsigned worker_count() const noexcept;

  /// Adjusts the worker count (0 = hardware concurrency).  Queued tasks are
  /// preserved.  No-op when the count is unchanged; must not be called from
  /// inside a pool task.
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
  /// and no helper it started can still record into the installed obs sink
  /// (its pool/task span and steal count included), so the caller may
  /// destroy that sink right after.  Helpers not started by then are
  /// revoked: they run no index and record nothing.
  /// The first exception thrown by the body wins and is rethrown here after
  /// the remaining iterations have been cancelled (claimed but skipped).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const noexcept;

  /// The process-wide pool used by feast::parallel_for and the campaign
  /// runner.  Created on first use with hardware concurrency; resized by
  /// feast::set_parallelism.
  static WorkStealingPool& global();

  /// Implementation state; public only so pool.cpp can bind thread-local
  /// worker identity at namespace scope.  Defined in pool.cpp.
  struct Impl;

 private:
  std::shared_ptr<Impl> impl_;

  void start_workers(unsigned threads);
  void stop_workers();
};

}  // namespace feast
