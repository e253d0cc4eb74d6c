#ifndef TARPIT_NET_EVENT_LOOP_H_
#define TARPIT_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace tarpit {
namespace net {

/// One epoll reactor. The server runs N of these, each on its own
/// thread; every connection is owned by exactly one loop and all of its
/// state is touched only from that loop's thread -- cross-thread work
/// (accepted fds from the acceptor, completions of parked stalls from
/// the DelayScheduler's driver) arrives via Post(), which is the
/// only thread-safe entry point besides Stop(). A zero-charge request
/// completes inside its door call on the loop thread and needs no
/// Post.
///
/// Registrations are keyed by an opaque token rather than the fd so a
/// stale epoll event for a closed connection can never be misdelivered
/// to a new connection that recycled the same fd within one
/// epoll_wait batch.
class EventLoop {
 public:
  using Task = std::function<void()>;
  /// `events` is the raw epoll event mask for this readiness callback.
  using EventHandler = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and wakeup eventfd.
  Status Init();

  /// Runs the reactor until Stop(). Call from the loop's thread.
  void Run();

  /// Thread-safe: requests Run() to return after the current cycle.
  void Stop();

  /// Thread-safe: enqueues `task` to run on the loop thread and wakes
  /// the loop. Tasks posted after Stop() may never run (they are
  /// destroyed with the loop), so shutdown must drain in-flight work
  /// BEFORE stopping loops -- see TarpitServer::Stop ordering.
  void Post(Task task);

  // -- Loop-thread-only API. -----------------------------------------
  /// Registers `fd`; returns a nonzero token, or 0 on failure.
  uint64_t AddFd(int fd, uint32_t events, EventHandler handler);
  Status ModFd(uint64_t token, uint32_t events);
  /// Unregisters; the fd itself is NOT closed (caller owns it).
  void RemoveFd(uint64_t token);

  /// One-shot timer at an absolute steady-clock deadline; returns a
  /// nonzero id. Cancellation is lazy (the heap entry stays until it
  /// pops), so cancelled ids cost a map probe, never a callback.
  uint64_t AddTimerAt(int64_t deadline_micros, Task callback);
  void CancelTimer(uint64_t id);

  bool InLoopThread() const {
    return std::this_thread::get_id() == loop_tid_;
  }

  /// Steady-clock micros (the loop's time base for deadlines).
  static int64_t NowMicros();

 private:
  struct Registration {
    int fd = -1;
    EventHandler handler;
  };
  struct TimerEntry {
    int64_t deadline = 0;
    uint64_t id = 0;
    bool operator>(const TimerEntry& o) const {
      return deadline != o.deadline ? deadline > o.deadline : id > o.id;
    }
  };

  void Wake();
  void DrainTasks();
  /// Fires due timers; returns micros until the next deadline (or -1).
  int64_t RunTimers();

  int epfd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread::id loop_tid_;

  std::mutex task_mu_;
  std::vector<Task> tasks_;

  uint64_t next_token_ = 1;
  std::unordered_map<uint64_t, Registration> regs_;

  uint64_t next_timer_id_ = 1;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timer_heap_;
  std::unordered_map<uint64_t, Task> timers_;
};

}  // namespace net
}  // namespace tarpit

#endif  // TARPIT_NET_EVENT_LOOP_H_
