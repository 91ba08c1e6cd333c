// Deterministic fixed-size thread pool for the per-SBS / per-slot solver
// fan-out and the replication sweeps.
//
// Design constraints (see DESIGN.md, "Parallel execution model"):
//  - No work stealing and no nested parallelism: parallel_for partitions a
//    plain index range, every index writes only its own pre-sized output
//    slot, and a parallel_for issued from inside a worker runs inline (a
//    fixed pool that re-enqueued from its own workers could deadlock, so
//    nested submission is rejected rather than queued).
//  - Bit-identical results at any thread count: callers never reduce inside
//    the loop body; they collect per-index values and reduce serially in
//    index order afterwards. With MDO_THREADS=1 no workers are spawned and
//    parallel_for degenerates to the plain serial loop.
//  - Exceptions propagate: the first exception thrown by any index is
//    rethrown on the calling thread after the batch drains.
//
// The pool size is picked once per process from the MDO_THREADS environment
// variable (0/unset = the compiled default MDO_DEFAULT_THREADS, which is 0 =
// hardware concurrency unless CMake -DMDO_THREADS=<n> overrode it). Benches
// and tests may swap the global pool with set_global_threads(); doing so
// while a parallel_for is in flight is undefined.
#pragma once

#include <cstddef>
#include <functional>

namespace mdo::util {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller participates in every batch);
  /// `threads` <= 1 spawns none and runs everything inline.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total worker count including the calling thread (>= 1).
  std::size_t num_threads() const { return num_threads_; }

  /// True when called from one of this pool's worker threads.
  bool on_worker_thread() const;

  /// Invokes fn(i) for every i in [begin, end) and blocks until all are
  /// done. The first exception thrown by any invocation is rethrown here.
  /// Nested calls — from a worker of this pool, or re-entrantly from the
  /// thread already driving a batch on it — run the range inline instead of
  /// being enqueued.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Thread count resolved from the MDO_THREADS environment variable, the
  /// compiled default, and hardware concurrency (always >= 1).
  static std::size_t configured_threads();

  /// Process-wide pool, created on first use with configured_threads().
  static ThreadPool& global();

  /// Replaces the global pool (0 = configured_threads()). For benches and
  /// tests only; callers must ensure no batch is in flight.
  static void set_global_threads(std::size_t threads);

  /// Replaces the global pool WITHOUT joining it. Only meaningful in the
  /// child of a fork(): the parent's worker threads do not exist there, so
  /// joining (as set_global_threads would) blocks forever. The stale State
  /// is deliberately leaked and a 1-thread pool is installed: it runs every
  /// batch inline and starts no thread, because a child of a multi-threaded
  /// process must not start threads (ThreadSanitizer aborts on it). Results
  /// are bit-identical at any thread count, so the child computes what the
  /// parent would. The child must leave via _exit() so the leak never
  /// reaches a destructor or LeakSanitizer.
  static void reset_global_after_fork();

 private:
  struct State;
  void worker_loop();
  void run_range(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn);

  std::size_t num_threads_ = 1;
  State* state_ = nullptr;  // owned; opaque to keep <thread> out of headers
};

/// parallel_for on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace mdo::util
