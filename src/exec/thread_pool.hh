/**
 * @file
 * Work-stealing thread pool for embarrassingly parallel sweeps.
 *
 * Each worker owns a deque: it pops its own work from the front and,
 * when empty, steals from the back of a sibling's deque — the classic
 * split that keeps a worker's hot tasks local while idle workers drain
 * the longest-queued work. submit() distributes tasks round-robin so
 * stealing only happens when the initial split turns out uneven
 * (sweep points routinely differ in cost by 10-100x: a 16-disk
 * heavy-load simulation vs a single idle drive).
 *
 * Tasks must not throw — callers wanting exception propagation capture
 * a std::exception_ptr inside the task (see SweepRunner).
 */

#ifndef IDP_EXEC_THREAD_POOL_HH
#define IDP_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace idp {
namespace exec {

class ThreadPool
{
  public:
    /** Spawn @p threads workers (clamped to >= 1). */
    explicit ThreadPool(unsigned threads);

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. Safe to call from any thread, even workers. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished running. */
    void wait();

    /** std::thread::hardware_concurrency(), never less than 1. */
    static unsigned hardwareThreads();

  private:
    struct WorkQueue
    {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void workerLoop(std::size_t self);
    bool tryGetTask(std::size_t self, std::function<void()> &out);

    std::vector<std::unique_ptr<WorkQueue>> queues_;
    std::vector<std::thread> workers_;

    std::mutex stateMutex_;
    std::condition_variable workCv_; ///< workers sleep here when dry
    std::condition_variable idleCv_; ///< wait() sleeps here
    /** Tasks pushed but not yet finished running. */
    std::int64_t unfinished_ = 0;
    /** Tasks sitting in some queue (sleep predicate for workers). */
    std::int64_t queued_ = 0;
    std::size_t nextQueue_ = 0;
    bool stopping_ = false;
};

} // namespace exec
} // namespace idp

#endif // IDP_EXEC_THREAD_POOL_HH
