#include "common/executor.h"

#include <algorithm>
#include <chrono>

#include "common/contracts.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace saged {

namespace {

/// Identifies the pool (and worker slot) owning the current thread, so
/// Submit from inside a task lands on the submitting worker's own deque and
/// ParallelFor can help-drain instead of deadlocking while it waits.
thread_local Executor* tl_pool = nullptr;
thread_local size_t tl_worker = 0;

}  // namespace

Executor::Executor(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<unsigned>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  SAGED_CHECK_GE(workers_.size(), 1u)
      << "executor must own at least one worker";
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

Executor& Executor::Shared() {
  // Leaked on purpose (repo-wide singleton idiom): workers outlive every
  // static destructor that might still submit work.
  static auto& pool = *new Executor(0);
  return pool;
}

void Executor::Enqueue(std::function<void()> task) {
  if (telemetry::Enabled()) {
    // Carry the submitter's open span path into the task so spans it opens
    // nest where the work was scheduled from, not at the worker's root.
    auto path = telemetry::CurrentSpanPath();
    auto enqueued = std::chrono::steady_clock::now();
    task = [inner = std::move(task), path = std::move(path), enqueued]() {
      SAGED_COUNTER_INC("executor.tasks");
      double queue_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - enqueued)
                            .count();
      SAGED_HISTOGRAM_OBSERVE("executor.queue_ms", queue_ms);
      telemetry::ScopedSpanPath reenter(path);
      inner();
    };
  }
  size_t index = tl_pool == this
                     ? tl_worker
                     : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                           workers_.size();
  {
    // Count the task before it becomes claimable: a worker that pops it
    // decrements pending_ at once, so counting after the push could take
    // the counter below zero. Lock/unlock pairs the increment with the
    // workers' predicate check; without it a worker could miss the notify
    // between checking and sleeping.
    std::lock_guard<std::mutex> lock(wake_mu_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(workers_[index]->mu);
    workers_[index]->queue.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

bool Executor::TryRunOne(size_t worker_index) {
  std::function<void()> task;
  Worker& own = *workers_[worker_index];
  {
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.queue.empty()) {
      task = std::move(own.queue.back());  // LIFO: newest first, caches warm
      own.queue.pop_back();
    }
  }
  if (!task) {
    for (size_t offset = 1; offset < workers_.size() && !task; ++offset) {
      Worker& victim = *workers_[(worker_index + offset) % workers_.size()];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.queue.empty()) {
        task = std::move(victim.queue.front());  // FIFO steal: oldest task
        victim.queue.pop_front();
        SAGED_COUNTER_INC("executor.steals");
      }
    }
  }
  if (!task) return false;
  size_t before = pending_.fetch_sub(1, std::memory_order_acq_rel);
  SAGED_DCHECK_GE(before, 1u);  // claimed tasks were counted on submission
  task();
  return true;
}

void Executor::WorkerLoop(size_t index) {
  tl_pool = this;
  tl_worker = index;
  while (true) {
    if (TryRunOne(index)) continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this] {
      return shutdown_ || pending_.load(std::memory_order_acquire) > 0;
    });
    // Drain-on-shutdown: exit only once every queued task has been claimed,
    // so the destructor's contract (submitted work completes) holds.
    if (shutdown_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

void Executor::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                           size_t max_parallelism) {
  if (n == 0) return;
  SAGED_CHECK(static_cast<bool>(fn)) << "ParallelFor needs a callable body";
  size_t helper_budget =
      max_parallelism == 0 ? num_workers() : max_parallelism - 1;
  size_t helpers = std::min({helper_budget, n - 1, num_workers()});
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  struct LoopState {
    std::atomic<size_t> next{0};
    std::atomic<bool> cancelled{false};
    std::mutex mu;
    std::exception_ptr first_error SAGED_GUARDED_BY(mu);
  };
  auto state = std::make_shared<LoopState>();
  // Safe to capture fn/n by reference: every helper future is awaited below
  // before this frame unwinds.
  auto drain = [state, &fn, n]() {
    while (!state->cancelled.load(std::memory_order_relaxed)) {
      size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(state->mu);
          if (!state->first_error) state->first_error = std::current_exception();
        }
        state->cancelled.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (size_t h = 0; h < helpers; ++h) futures.push_back(Submit(drain));
  drain();  // the caller is always one of the loop's lanes

  for (auto& future : futures) {
    if (tl_pool == this) {
      // A worker waiting on its own pool must keep executing pool tasks:
      // the helper it awaits may be sitting in its own deque (nested
      // ParallelFor), and blocking would deadlock.
      while (future.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
        if (!TryRunOne(tl_worker)) std::this_thread::yield();
      }
    }
    future.get();  // helpers only rethrow via state; get() is for joining
  }
  // saged-lint: allow(lock-discipline): every lane was joined above, so no concurrent writer of first_error can exist
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace saged
