#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

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

/// The pool owning the current thread, if any.
thread_local const ThreadPool* tl_pool = nullptr;

}  // namespace

/// State of one parallel_for loop, on the caller's stack.  The caller claims
/// indices alongside the helpers and drives the loop to completion on its
/// own if no helper ever runs, so waiting can never deadlock — even for
/// nested loops started from inside pool workers.
struct ThreadPool::Loop {
  Loop(std::size_t total, const std::function<void(std::size_t)>& b) : n(total), body(b) {}

  const std::size_t n;
  const std::function<void(std::size_t)>& body;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  ///< First failure wins; guarded by the pool mutex.
  unsigned entered = 0;      ///< Helpers dequeued and not yet done; ditto.
  std::condition_variable left;  ///< Signalled when entered drops to 0.
};

void ThreadPool::participate(Loop& loop) {
  for (;;) {
    const std::size_t i = loop.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= loop.n) return;
    // After a failure the remaining indices are claimed but skipped.
    if (loop.failed.load(std::memory_order_relaxed)) continue;
    try {
      loop.body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!loop.failed.exchange(true)) loop.error = std::current_exception();
    }
  }
}

void ThreadPool::worker_main(unsigned index) {
  tl_pool = this;
  obs::set_thread_label("pool-worker-" + std::to_string(index));
  // Every record a worker makes happens inside a task it has dequeued: a
  // loop's caller cannot return from parallel_for (and free the sink) while
  // one of its helpers is entered.  So going idle is counted when the
  // worker next starts a task, not as it blocks.
  bool idle = false;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (tasks_.empty() && mode_ == Mode::Run) {
        idle = true;
        cv_.wait(lock, [&] { return mode_ != Mode::Run || !tasks_.empty(); });
      }
      if (mode_ == Mode::Quit || tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
      if (task.loop != nullptr) ++task.loop->entered;
    }
    try {
      // A submitted task's body may wake the thread that frees the sink
      // before this span closes; the hold makes that free wait for it.
      obs::SinkHold hold;
      if (idle) obs::count_on(hold.sink(), obs::Counter::PoolSleep);
      idle = false;
      obs::SpanScope span(hold.sink(), obs::Span::PoolTask);
      if (const auto fault = check::fire(check::FaultSite::PoolTask)) {
        check::execute(*fault, "pool-task");
      }
      if (task.loop != nullptr) {
        participate(*task.loop);
      } else {
        task.fn();
      }
    } catch (const std::exception& e) {
      FEAST_LOG_WARN << "pool task threw: " << e.what();
    } catch (...) {
      FEAST_LOG_WARN << "pool task threw a non-standard exception";
    }
    if (task.loop != nullptr) {
      // Notify under the lock: once it is released the caller may return
      // and destroy the loop.
      std::lock_guard<std::mutex> lock(mutex_);
      if (--task.loop->entered == 0) task.loop->left.notify_all();
    }
  }
}

ThreadPool::ThreadPool(unsigned threads) { start_workers(resolve_thread_count(threads)); }

ThreadPool::~ThreadPool() { stop_workers(Mode::Drain); }

void ThreadPool::start_workers(unsigned threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  workers_.clear();
  mode_ = Mode::Run;
  for (unsigned t = 0; t < threads; ++t) {
    workers_.emplace_back([this, t] { worker_main(t); });
  }
  started_.store(true, std::memory_order_release);
}

void ThreadPool::ensure_started() {
  if (started_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> resizing(resize_mutex_);
  if (!started_.load(std::memory_order_relaxed)) start_workers(resolve_thread_count(0));
}

void ThreadPool::stop_workers(Mode mode) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    mode_ = mode;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

unsigned ThreadPool::worker_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<unsigned>(workers_.size());
}

bool ThreadPool::on_worker_thread() const noexcept { return tl_pool == this; }

void ThreadPool::resize(unsigned threads) {
  FEAST_REQUIRE(!on_worker_thread());
  const unsigned target = resolve_thread_count(threads);
  std::lock_guard<std::mutex> resizing(resize_mutex_);
  if (target == worker_count()) return;
  stop_workers(Mode::Quit);
  start_workers(target);
}

void ThreadPool::submit(std::function<void()> task) {
  ensure_started();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(Task{std::move(task), nullptr});
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    body(0);
    return;
  }

  ensure_started();
  Loop loop(n, body);
  std::size_t helpers = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    helpers = std::min<std::size_t>(workers_.size(), n - 1);
    for (std::size_t h = 0; h < helpers; ++h) tasks_.push_back(Task{{}, &loop});
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  participate(loop);
  {
    // Every index is claimed: unstarted helpers have nothing left to do, so
    // they leave the queue, and the entered ones finish their indices.
    std::unique_lock<std::mutex> lock(mutex_);
    std::erase_if(tasks_, [&loop](const Task& task) { return task.loop == &loop; });
    loop.left.wait(lock, [&loop] { return loop.entered == 0; });
  }
  if (loop.error) std::rethrow_exception(loop.error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool{Deferred{}};
  return pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1 || parallelism() <= 1) {
    // Serial path: exceptions propagate directly and the order is kept.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool::global().parallel_for(n, body);
}

void set_parallelism(unsigned threads) {
  ThreadPool& pool = ThreadPool::global();
  if (!pool.on_worker_thread()) pool.resize(threads);
}

unsigned parallelism() {
  const unsigned workers = ThreadPool::global().worker_count();
  return workers > 0 ? workers : resolve_thread_count(0);
}

}  // namespace feast
