// Work-stealing thread pool used to fan out fused training groups and
// their members, round-engine shard tasks, and evaluation.
//
// Design notes (HPC-parallel idioms):
//  * One bounded deque per worker; owners push/pop at the back, thieves
//    steal from the front, which keeps the common path contention-free.
//  * `parallel_for` does static range chunking (deterministic work
//    decomposition) so numeric results are reproducible: any reduction
//    over chunk results is performed in chunk-index order by the caller.
//  * The pool is also usable as a plain task executor via `submit`.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace pfdrl::util {

/// Cumulative pool counters (monotonic over the pool's lifetime).
struct ThreadPoolStats {
  /// Tasks popped and executed by workers (caller-run parallel_for
  /// chunks are not pool tasks and don't count here).
  std::uint64_t tasks_executed = 0;
  /// Tasks taken from another worker's queue.
  std::uint64_t tasks_stolen = 0;
  /// High-water mark of tasks queued but not yet started.
  std::uint64_t max_queue_depth = 0;
  /// Tasks whose callable fit the TaskSlot inline buffer (no heap
  /// allocation on the submit path).
  std::uint64_t tasks_inline = 0;
  /// Tasks that spilled to the heap (capture larger than the buffer).
  std::uint64_t tasks_heap = 0;
};

/// Move-only type-erased `void()` callable with small-buffer storage.
/// Callables up to kInlineBytes (and max_align_t alignment) live inside
/// the slot; larger captures fall back to one heap allocation. Unlike
/// std::function this accepts move-only callables (packaged_task,
/// lambdas capturing unique_ptr), which is what lets submit() skip the
/// shared_ptr<packaged_task> wrapper it used to heap-allocate per task.
class TaskSlot {
 public:
  static constexpr std::size_t kInlineBytes = 56;

  TaskSlot() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, TaskSlot>>>
  // NOLINTNEXTLINE(bugprone-forwarding-reference-overload)
  TaskSlot(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      static constexpr VTable vt = {
          [](void* p) { (*static_cast<Fn*>(p))(); },
          [](void* src, void* dst) noexcept {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
          },
          [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
          /*inline_stored=*/true};
      vtable_ = &vt;
    } else {
      heap_ = new Fn(std::forward<F>(fn));
      static constexpr VTable vt = {
          [](void* p) { (*static_cast<Fn*>(p))(); },
          /*relocate=*/nullptr,
          [](void* p) noexcept { delete static_cast<Fn*>(p); },
          /*inline_stored=*/false};
      vtable_ = &vt;
    }
  }

  TaskSlot(TaskSlot&& other) noexcept { move_from(other); }

  TaskSlot& operator=(TaskSlot&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  TaskSlot(const TaskSlot&) = delete;
  TaskSlot& operator=(const TaskSlot&) = delete;

  ~TaskSlot() { reset(); }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  /// True when the callable lives in the inline buffer (SBO hit).
  [[nodiscard]] bool is_inline() const noexcept {
    return vtable_ != nullptr && vtable_->inline_stored;
  }

  void operator()() { vtable_->invoke(target()); }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*relocate)(void* src, void* dst) noexcept;  // inline slots only
    void (*destroy)(void*) noexcept;
    bool inline_stored;
  };

  [[nodiscard]] void* target() noexcept {
    return vtable_->inline_stored ? static_cast<void*>(storage_) : heap_;
  }

  void move_from(TaskSlot& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ == nullptr) return;
    if (vtable_->inline_stored) {
      vtable_->relocate(other.storage_, storage_);
    } else {
      heap_ = other.heap_;
      other.heap_ = nullptr;
    }
    other.vtable_ = nullptr;
  }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(target());
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void* heap_ = nullptr;
  const VTable* vtable_ = nullptr;
};

class ThreadPool {
 public:
  /// Create a pool with `num_threads` workers (default: hardware
  /// concurrency, at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue an arbitrary task; returns a future for its result. The
  /// packaged_task moves straight into the queue's TaskSlot — no
  /// shared_ptr wrapper, no std::function copyability tax.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    std::packaged_task<R()> task(std::forward<F>(fn));
    std::future<R> fut = task.get_future();
    push_task(TaskSlot(std::move(task)));
    return fut;
  }

  /// Continuation-style enqueue: no future, no promise/shared-state
  /// allocation. The caller is responsible for its own completion
  /// signalling (readiness counters, condition variables). This is the
  /// hot path the round pipeline schedules on.
  template <typename F>
  void submit_detached(F&& fn) {
    push_task(TaskSlot(std::forward<F>(fn)));
  }

  /// Run body(i) for i in [begin, end) across the pool and wait.
  /// The static chunking is deterministic in (range, grain); the calling
  /// thread participates, so the pool never deadlocks when parallel_for
  /// is invoked from a worker.
  /// If any body invocation throws, the first exception (in completion
  /// order) is rethrown on the calling thread after all chunks have
  /// settled; remaining chunks are skipped.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  /// Chunked variant: body(chunk_begin, chunk_end). Useful when per-chunk
  /// setup (e.g. a thread-local accumulator) amortizes across iterations.
  void parallel_for_chunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& body,
      std::size_t num_chunks = 0);

  /// The process-wide default pool (lazily constructed, never destroyed
  /// before exit). Library code that does not care about pool identity
  /// should use this to avoid oversubscription. Honors the
  /// PFDRL_POOL_WORKERS environment variable (positive integer) on first
  /// use, so CI and benches can pin the worker count without a code
  /// change; defaults to hardware concurrency.
  static ThreadPool& global();

  /// Pin the global pool's worker count programmatically (CLI
  /// --pool-workers). Takes precedence over PFDRL_POOL_WORKERS; must be
  /// called before the first global() use to have any effect — the pool
  /// is constructed once and never resized.
  static void set_global_workers(std::size_t workers) noexcept;

  /// Snapshot of the cumulative pool counters.
  [[nodiscard]] ThreadPoolStats stats() const noexcept;

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<TaskSlot> tasks;
  };

  void push_task(TaskSlot task);
  bool try_pop_or_steal(std::size_t self, TaskSlot& out);
  void worker_loop(std::size_t index);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  std::atomic<std::uint64_t> tasks_inline_{0};
  std::atomic<std::uint64_t> tasks_heap_{0};
};

}  // namespace pfdrl::util
