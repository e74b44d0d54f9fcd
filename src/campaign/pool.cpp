#include "campaign/pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "check/fault.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

namespace feast {

namespace {

unsigned resolve_thread_count(unsigned threads) noexcept {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

struct WorkStealingPool::Impl {
  /// Shared state of one parallel_for loop.  The calling thread claims
  /// indices alongside the helpers and drives the loop to completion on
  /// its own if no helper ever runs, so waiting can never deadlock — even
  /// for nested loops started from inside pool workers.
  struct Loop {
    Loop(std::size_t total, const std::function<void(std::size_t)>& b)
        : n(total), body(b) {}

    const std::size_t n;
    /// Only invoked by the caller and by entered helpers, all of which are
    /// done before parallel_for returns and invalidates this reference.
    const std::function<void(std::size_t)>& body;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;  ///< Guarded by mutex; first failure wins.
    unsigned entered = 0;      ///< Helpers inside the loop; guarded by mutex.
    bool closed = false;       ///< No helper may enter; guarded by mutex.

    void participate() {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        // After a failure the remaining indices are claimed but skipped.
        if (failed.load(std::memory_order_relaxed)) continue;
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!failed.exchange(true)) error = std::current_exception();
        }
      }
    }

    /// A helper starting: false once the loop is closed (it then does
    /// nothing and records nothing).
    bool enter() {
      std::lock_guard<std::mutex> lock(mutex);
      if (closed) return false;
      ++entered;
      return true;
    }

    void leave() {
      std::lock_guard<std::mutex> lock(mutex);
      if (--entered == 0 && closed) cv.notify_all();
    }

    /// The caller, once its own participate() has claimed every index:
    /// shuts out helpers not yet started and waits for the entered ones,
    /// which finish their indices before they leave.
    void close() {
      std::unique_lock<std::mutex> lock(mutex);
      closed = true;
      cv.wait(lock, [&] { return entered == 0; });
    }
  };

  /// A queued task: a submitted function, or a helper of one loop.
  struct Task {
    std::function<void()> fn;
    std::shared_ptr<Loop> loop;
  };

  /// One deque per worker; the owner pops at the back, thieves at the front.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  /// Run: serve tasks.  Drain: finish every queued task, then exit
  /// (destruction).  Quit: exit as soon as possible, leaving queued tasks in
  /// place (resize, which restarts workers over the same queues' contents).
  enum class Mode { Run, Drain, Quit };

  std::vector<std::unique_ptr<WorkerQueue>> queues;
  std::vector<std::thread> threads;

  /// Excludes resize (unique) from external submits / worker_count reads
  /// (shared): start_workers/stop_workers mutate the `queues` and `threads`
  /// vectors, which external threads index concurrently.  Workers never take
  /// this lock — the vectors are only mutated after every worker has been
  /// joined, and taking it in a worker would deadlock resize's join.
  std::shared_mutex structure_mutex;

  std::mutex sleep_mutex;
  std::condition_variable sleep_cv;
  Mode mode = Mode::Run;               ///< Guarded by sleep_mutex.
  std::atomic<std::size_t> pending{0};  ///< Tasks queued but not yet started.
  std::atomic<unsigned> next_queue{0};  ///< Round-robin cursor for external submits.

  bool try_acquire(unsigned self, Task& out, bool& stolen) {
    {
      WorkerQueue& own = *queues[self];
      std::lock_guard<std::mutex> lock(own.mutex);
      if (!own.tasks.empty()) {
        out = std::move(own.tasks.back());
        own.tasks.pop_back();
        pending.fetch_sub(1, std::memory_order_relaxed);
        stolen = false;
        return true;
      }
    }
    for (std::size_t k = 1; k < queues.size(); ++k) {
      WorkerQueue& victim = *queues[(self + k) % queues.size()];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.tasks.empty()) {
        out = std::move(victim.tasks.front());
        victim.tasks.pop_front();
        pending.fetch_sub(1, std::memory_order_relaxed);
        stolen = true;
        return true;
      }
    }
    return false;
  }

  void push(Task task);
  void worker_main(unsigned index);
};

namespace {
/// Identifies the pool (and worker slot) owning the current thread.
thread_local WorkStealingPool::Impl* tl_pool = nullptr;
thread_local unsigned tl_worker_index = 0;
}  // namespace

void WorkStealingPool::Impl::worker_main(unsigned index) {
  tl_pool = this;
  tl_worker_index = index;
  obs::set_thread_label("pool-worker-" + std::to_string(index));
  // Every record a worker makes happens once it has started a task: a
  // loop helper only after entering its loop, whose caller cannot return
  // from parallel_for (and free the sink) until the helper leaves.  So
  // going idle is counted when the worker next starts work, not as it
  // blocks.
  bool idle = false;
  for (;;) {
    Task task;
    bool stolen = false;
    if (try_acquire(index, task, stolen)) {
      if (task.loop != nullptr && !task.loop->enter()) continue;  // Loop over.
      if (idle) obs::count(obs::Counter::PoolSleep);
      if (stolen) obs::count(obs::Counter::PoolSteal);
      idle = false;
      try {
        // A submitted task's body may wake the thread that frees the sink
        // before this span closes; the hold makes that free wait for it.
        obs::SinkHold hold;
        obs::SpanScope span(hold.sink(), obs::Span::PoolTask);
        if (const auto fault = check::fire(check::FaultSite::PoolTask)) {
          check::execute(*fault, "pool-task");
        }
        if (task.loop != nullptr) {
          task.loop->participate();
        } else {
          task.fn();
        }
      } catch (const std::exception& e) {
        FEAST_LOG_WARN << "pool task threw: " << e.what();
      } catch (...) {
        FEAST_LOG_WARN << "pool task threw a non-standard exception";
      }
      if (task.loop != nullptr) task.loop->leave();
      continue;
    }
    idle = true;
    std::unique_lock<std::mutex> lock(sleep_mutex);
    sleep_cv.wait(lock, [&] {
      return mode != Mode::Run || pending.load(std::memory_order_relaxed) > 0;
    });
    if (mode == Mode::Quit) return;
    if (mode == Mode::Drain && pending.load(std::memory_order_relaxed) == 0) return;
  }
}

WorkStealingPool::WorkStealingPool(unsigned threads) : impl_(std::make_shared<Impl>()) {
  start_workers(resolve_thread_count(threads));
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->sleep_mutex);
    impl_->mode = Impl::Mode::Drain;
  }
  impl_->sleep_cv.notify_all();
  for (std::thread& t : impl_->threads) t.join();
}

void WorkStealingPool::start_workers(unsigned threads) {
  FEAST_REQUIRE(threads >= 1);
  Impl& impl = *impl_;
  // Keep queued tasks: reuse existing queues where possible.
  while (impl.queues.size() < threads) {
    impl.queues.push_back(std::make_unique<Impl::WorkerQueue>());
  }
  if (impl.queues.size() > threads) {
    // Fold the tail queues' tasks into the surviving ones.
    for (std::size_t k = threads; k < impl.queues.size(); ++k) {
      Impl::WorkerQueue& from = *impl.queues[k];
      Impl::WorkerQueue& to = *impl.queues[k % threads];
      std::scoped_lock lock(from.mutex, to.mutex);
      while (!from.tasks.empty()) {
        to.tasks.push_back(std::move(from.tasks.front()));
        from.tasks.pop_front();
      }
    }
    impl.queues.resize(threads);
  }
  impl.mode = Impl::Mode::Run;
  impl.threads.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    impl.threads.emplace_back([this, t] { impl_->worker_main(t); });
  }
}

void WorkStealingPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(impl_->sleep_mutex);
    impl_->mode = Impl::Mode::Quit;
  }
  impl_->sleep_cv.notify_all();
  for (std::thread& t : impl_->threads) t.join();
  impl_->threads.clear();
}

unsigned WorkStealingPool::worker_count() const noexcept {
  if (tl_pool == impl_.get()) {
    return static_cast<unsigned>(impl_->threads.size());
  }
  std::shared_lock<std::shared_mutex> lock(impl_->structure_mutex);
  return static_cast<unsigned>(impl_->threads.size());
}

bool WorkStealingPool::on_worker_thread() const noexcept {
  return tl_pool == impl_.get();
}

void WorkStealingPool::resize(unsigned threads) {
  const unsigned target = resolve_thread_count(threads);
  FEAST_REQUIRE(!on_worker_thread());
  // Unique lock: no external submit or concurrent resize may index the
  // queues vector while it is reshaped.  The width check happens under the
  // lock so racing resizes to different widths serialize cleanly.
  std::unique_lock<std::shared_mutex> lock(impl_->structure_mutex);
  if (target == static_cast<unsigned>(impl_->threads.size())) return;
  stop_workers();
  start_workers(target);
}

void WorkStealingPool::submit(std::function<void()> task) {
  impl_->push(Impl::Task{std::move(task), nullptr});
}

void WorkStealingPool::Impl::push(Task task) {
  const bool on_worker = tl_pool == this;
  // External submitters must not race a resize that is reshaping the queues
  // vector; workers cannot (resize joins them before mutating).
  std::shared_lock<std::shared_mutex> structure_lock(structure_mutex, std::defer_lock);
  if (!on_worker) structure_lock.lock();
  FEAST_REQUIRE(!queues.empty());
  unsigned target;
  if (on_worker) {
    target = tl_worker_index;  // LIFO slot of the spawning worker.
  } else {
    target = next_queue.fetch_add(1, std::memory_order_relaxed) %
             static_cast<unsigned>(queues.size());
  }
  {
    WorkerQueue& queue = *queues[target];
    std::lock_guard<std::mutex> lock(queue.mutex);
    queue.tasks.push_back(std::move(task));
  }
  {
    // Serialize the increment with the workers' predicate-check-then-block:
    // incrementing outside sleep_mutex can land between a worker's predicate
    // evaluation and its block, losing the wakeup for good.
    std::lock_guard<std::mutex> lock(sleep_mutex);
    pending.fetch_add(1, std::memory_order_relaxed);
  }
  sleep_cv.notify_one();
}

void WorkStealingPool::parallel_for(std::size_t n,
                                    const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    body(0);
    return;
  }

  auto loop = std::make_shared<Impl::Loop>(n, body);
  const std::size_t helpers = std::min<std::size_t>(worker_count(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) impl_->push(Impl::Task{{}, loop});
  loop->participate();
  // Returns only once no helper can still record into the installed sink:
  // the caller may destroy it as soon as this returns.
  loop->close();
  if (loop->error) std::rethrow_exception(loop->error);
}

WorkStealingPool& WorkStealingPool::global() {
  static WorkStealingPool pool(0);
  return pool;
}

}  // namespace feast
