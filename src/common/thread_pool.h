#ifndef COLARM_COMMON_THREAD_POOL_H_
#define COLARM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace colarm {

/// A fixed-size worker pool shared by every parallel stage of the engine
/// (online VERIFY partitioning, the engine's multi-query batches, and the
/// offline MIP-index build). The pool itself is deliberately dumb — a FIFO
/// task queue — because all scheduling intelligence lives in ParallelChunks
/// below, whose caller always participates in the work. That property makes
/// nested parallel regions safe: an inner region on a saturated pool simply
/// runs on the thread that entered it, so no task ever blocks waiting for a
/// worker that cannot be scheduled.
class ThreadPool {
 public:
  /// `num_threads` is the total degree of parallelism *including* the
  /// calling thread: the pool spawns `num_threads - 1` workers. 0 resolves
  /// to the hardware concurrency; 1 spawns no workers at all (parallel
  /// helpers then run fully inline — the exact sequential code path).
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Degree of parallelism (worker threads + the caller), always >= 1.
  unsigned parallelism() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Enqueues a task. Tasks must not throw (ParallelChunks wraps user code
  /// in its own exception capture before submitting).
  void Submit(std::function<void()> task);

  /// std::thread::hardware_concurrency() with a floor of 1.
  static unsigned DefaultThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

/// Runs `fn(chunk, begin, end)` for `num_chunks` contiguous ranges covering
/// [0, n). Chunks are claimed dynamically by pool workers *and* by the
/// calling thread, which always participates — progress is guaranteed even
/// when the pool is saturated or `pool` is null (then everything runs
/// inline, in chunk order, on the caller).
///
/// Determinism contract: chunk boundaries depend only on (n, num_chunks),
/// never on thread count or timing, so per-chunk outputs indexed by `chunk`
/// can be merged in chunk order to reproduce the sequential result exactly.
///
/// The first exception thrown by `fn` is rethrown on the caller after all
/// in-flight chunks finish; remaining unclaimed chunks are abandoned.
void ParallelChunks(ThreadPool* pool, size_t n, size_t num_chunks,
                    const std::function<void(size_t chunk, size_t begin,
                                             size_t end)>& fn);

/// ParallelChunks with one chunk per index: runs `fn(i)` for i in [0, n)
/// with dynamic load balancing (used for coarse units such as whole
/// queries or CHARM prefix branches).
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t i)>& fn);

/// True when `pool` can actually run anything concurrently; parallel code
/// paths use this to fall back to their exact sequential implementation.
inline bool IsParallel(const ThreadPool* pool) {
  return pool != nullptr && pool->parallelism() > 1;
}

}  // namespace colarm

#endif  // COLARM_COMMON_THREAD_POOL_H_
