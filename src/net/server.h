#ifndef TARPIT_NET_SERVER_H_
#define TARPIT_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/concurrent_db.h"
#include "defense/reputation.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace tarpit {
namespace net {

struct TarpitServerOptions {
  std::string host = "127.0.0.1";
  /// Frame-protocol port (0 = kernel-assigned; read back via port()).
  uint16_t port = 0;
  /// Prometheus /metrics HTTP port, served on the SAME event loops
  /// (0 = kernel-assigned when enable_http, read back via http_port()).
  uint16_t http_port = 0;
  bool enable_http = true;
  /// Event-loop (reactor) threads. This is the fixed compute budget
  /// the capacity bench holds at <= 8 while parking 100k connections.
  size_t num_event_loops = 4;
  /// Frames whose length prefix exceeds this are rejected before any
  /// allocation and the connection is closed.
  size_t max_frame_bytes = 1 << 20;
  /// Per-connection write-buffer bound: a client that stops reading
  /// while responses accumulate past this is closed (backpressure is
  /// bounded memory, not unbounded queueing).
  size_t max_write_buffer_bytes = 1 << 20;
  /// SO_SNDBUF for accepted frame connections (0 = kernel default).
  /// Bounding kernel-side send memory matters at 100k parked
  /// connections, and makes write backpressure deterministic in tests.
  int so_sndbuf_bytes = 0;
  /// Slow-loris guard: a connection holding a PARTIAL frame longer
  /// than this is closed. Complete-frame idleness is NOT a timeout --
  /// parked stalls are the product, and an idle authenticated client
  /// costs one fd.
  double read_timeout_seconds = 30.0;
  /// Interval between 1-byte kProgress keep-alive frames while a
  /// connection's request is parked (mopher-style chunked delay): the
  /// socket shows liveness through proxies without ever shortening the
  /// stall. 0 disables keep-alives.
  double keepalive_interval_seconds = 5.0;
  /// Delayer-style delay-before-serve: when a principal's reputation
  /// factor is >= accept_delay_threshold at Hello time, the HelloAck
  /// is parked for accept_delay_seconds * factor (capped at 30 s)
  /// BEFORE any query is served. 0 disables.
  double accept_delay_seconds = 0.0;
  double accept_delay_threshold = 1.5;
  /// Bound on frames a client may pipeline while a request is in
  /// flight; past it the connection is closed as abusive.
  size_t max_pipelined_frames = 64;
  /// Reputation store consulted for delay-before-serve factors and fed
  /// a kExternal signal on hang-up mid-stall (disconnect-and-retry
  /// must gain nothing). Not owned; may be null (both features off).
  /// Typically the same store wired into the database's
  /// ConcurrentDatabaseOptions::reputation.
  ReputationStore* reputation = nullptr;
  /// tarpit_net_* instruments land here; also the registry the HTTP
  /// /metrics endpoint exposes. Not owned; may be null.
  obs::MetricRegistry* metrics = nullptr;
};

/// Epoll-based (edge-triggered, non-blocking) TCP front end over a
/// ConcurrentProtectedDatabase. One acceptor thread plus
/// `num_event_loops` reactor threads; each connection lives on one
/// loop and walks READ_FRAME -> ADMIT -> COMPUTE_DELAY -> PARKED ->
/// WRITE_RESPONSE. The request rides the database's async doors, so a
/// delayed response parks the *connection* in the DelayScheduler: no
/// thread is held, the fd stays registered (EPOLLRDHUP watches for
/// hang-up), and a stalled extractor costs a timer-wheel entry plus an
/// idle fd. A client that hangs up mid-stall has its parked entry
/// cancelled but KEEPS the delay charge (PR 2 semantics) and earns a
/// reputation signal, so disconnect-and-retry gains nothing.
///
/// Shutdown ordering (enforced by Stop(), relied on by the
/// DelayScheduler drain semantics): stop accepting -> cancel/close
/// every connection (parked stalls complete Cancelled; charges stay
/// on the books) -> wait for in-flight engine completions to drain ->
/// stop the reactors. Only AFTER Stop() returns may the caller tear
/// down the database (whose destructor shuts the scheduler down); the
/// server never outlives `db`.
class TarpitServer {
 public:
  /// `db` must have async stalls enabled (a DelayScheduler); `clock`
  /// is the database's clock (reputation timestamps). Neither is
  /// owned; both must outlive the server.
  TarpitServer(ConcurrentProtectedDatabase* db, Clock* clock,
               TarpitServerOptions options = {});
  ~TarpitServer();

  TarpitServer(const TarpitServer&) = delete;
  TarpitServer& operator=(const TarpitServer&) = delete;

  Status Start();
  /// Idempotent. See the class comment for the enforced ordering.
  void Stop();

  uint16_t port() const { return port_; }
  uint16_t http_port() const { return actual_http_port_; }

  // -- Connection state (levels, not event counts: the event counts
  // are the tarpit_net_* series in options.metrics). -----------------
  size_t active_connections() const {
    return active_.load(std::memory_order_relaxed);
  }
  size_t parked_connections() const {
    return parked_.load(std::memory_order_relaxed);
  }
  size_t peak_parked_connections() const {
    return peak_parked_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  void AcceptorLoop();
  void HandleAccept(int listen_fd, bool http);
  /// Loop-thread: registers a fresh connection.
  void AddConnection(size_t loop_index, int fd, bool http);
  /// Loop-thread: tears one connection down. `peer_hangup` attributes
  /// mid-stall disconnects (cancel keeps the charge + reputation
  /// signal); timers are cancelled, the fd closed, the map entry
  /// erased.
  void CloseConn(Conn* conn, bool peer_hangup);
  void OnConnEvent(size_t loop_index, uint64_t conn_id, uint32_t events);
  // The helpers below may close (and free) the connection; they return
  // false when it died so callers stop touching the pointer.
  /// Drains the socket (edge-triggered: until EAGAIN) and pumps the
  /// frame decoder / HTTP buffer.
  bool ReadConn(Conn* conn);
  bool ProcessFrames(Conn* conn);
  bool DispatchFrame(Conn* conn, Frame frame);
  bool StartHello(Conn* conn, const Frame& frame);
  bool StartQuery(Conn* conn, Frame frame);
  /// Dispatcher-side engine completion (a parked stall expired or was
  /// cancelled), already marshalled onto the owning loop: writes the
  /// response, then resumes the connection's pipelined frames.
  void OnEngineComplete(size_t loop_index, uint64_t conn_id,
                        Result<ProtectedResult> result);
  /// Ends the in-flight request and writes its response. Both the
  /// inline completion in StartQuery and OnEngineComplete come here.
  bool WriteResponse(Conn* conn, Result<ProtectedResult> result);
  void FinishHelloDelay(size_t loop_index, uint64_t conn_id,
                        bool cancelled);
  void SendFrame(Conn* conn, FrameType type, std::string_view payload);
  /// Flushes the write buffer; arms EPOLLOUT on EAGAIN; closes on
  /// overflow or error. Returns false when the connection died.
  bool FlushConn(Conn* conn);
  void ArmReadTimeout(Conn* conn);
  void DisarmReadTimeout(Conn* conn);
  void ArmKeepalive(Conn* conn);
  void DisarmKeepalive(Conn* conn);
  void OnKeepalive(size_t loop_index, uint64_t conn_id);
  void OnReadTimeout(size_t loop_index, uint64_t conn_id);
  bool HandleHttp(Conn* conn);
  void MarkParked(bool parked);
  Conn* FindConn(size_t loop_index, uint64_t conn_id);
  /// Protocol failure: count it, best-effort kError, close. Always
  /// returns false (the connection is gone).
  bool ProtocolError(Conn* conn, StatusCode code,
                     const std::string& message, obs::Counter* reason);

  ConcurrentProtectedDatabase* db_;
  Clock* clock_;
  TarpitServerOptions options_;

  UniqueFd listen_fd_;
  UniqueFd http_fd_;
  uint16_t port_ = 0;
  uint16_t actual_http_port_ = 0;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> loop_threads_;
  std::thread acceptor_;
  std::atomic<bool> accepting_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> next_loop_{0};

  /// Per-loop connection registries, indexed by loop; each map is
  /// touched only by its loop thread.
  struct LoopState {
    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
    /// Set by a door call's completion when it ran inline on this loop
    /// (a zero charge or a perimeter error); StartQuery takes it as
    /// soon as the door call returns.
    std::optional<Result<ProtectedResult>> inline_result;
  };
  std::vector<std::unique_ptr<LoopState>> loop_state_;

  /// Requests inside the engine (admitted, not yet completed back on a
  /// loop). Stop() waits for this to hit zero after cancelling
  /// sessions, which is what makes "drain connections BEFORE the
  /// scheduler dies" a guarantee instead of a convention.
  /// Every loop thread writes it twice per request, so it and the
  /// levels below sit on their own cache line, apart from the members
  /// above and from the instrument pointers that every request reads
  /// (false sharing with those showed in perfbench's hot_get).
  alignas(64) std::atomic<uint64_t> inflight_engine_{0};

  std::atomic<size_t> active_{0};
  std::atomic<size_t> parked_{0};
  std::atomic<size_t> peak_parked_{0};

  // Registry-owned instruments (null when metrics are off).
  alignas(64) obs::Counter* m_accepted_frame_ = nullptr;
  obs::Counter* m_accepted_http_ = nullptr;
  obs::Counter* m_frames_ = nullptr;
  obs::Counter* m_responses_ok_ = nullptr;
  obs::Counter* m_responses_err_ = nullptr;
  obs::Counter* m_keepalives_ = nullptr;
  obs::Counter* m_hangups_mid_stall_ = nullptr;
  obs::Counter* m_accept_delays_ = nullptr;
  obs::Counter* m_http_requests_ = nullptr;
  obs::Counter* m_bytes_read_ = nullptr;
  obs::Counter* m_bytes_written_ = nullptr;
  obs::Gauge* m_active_ = nullptr;
  obs::Gauge* m_parked_ = nullptr;
  obs::Gauge* m_parked_peak_ = nullptr;
  obs::Counter* m_err_oversized_ = nullptr;
  obs::Counter* m_err_malformed_ = nullptr;
  obs::Counter* m_err_timeout_ = nullptr;
  obs::Counter* m_err_pipeline_ = nullptr;
  obs::Counter* m_err_backpressure_ = nullptr;
  obs::Histogram* m_accept_micros_ = nullptr;
  obs::Histogram* m_read_micros_ = nullptr;
  obs::Histogram* m_write_micros_ = nullptr;
  obs::Histogram* m_park_micros_ = nullptr;
};

}  // namespace net
}  // namespace tarpit

#endif  // TARPIT_NET_SERVER_H_
