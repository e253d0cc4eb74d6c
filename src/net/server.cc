#include "net/server.h"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "common/syscall_retry.h"
#include "net/socket.h"
#include "obs/exposition.h"

namespace tarpit {
namespace net {

namespace {

constexpr uint32_t kBaseEvents = EPOLLIN | EPOLLRDHUP | EPOLLET;
constexpr size_t kReadChunk = 16 * 1024;
constexpr size_t kMaxHttpRequestBytes = 8 * 1024;

/// Rows as text: one row per line, values tab-separated; a leading
/// comma-joined column header line when the result carries one.
std::string SerializeResult(const QueryResult& q) {
  std::string text;
  if (!q.columns.empty()) {
    for (size_t i = 0; i < q.columns.size(); ++i) {
      if (i != 0) text += ',';
      text += q.columns[i];
    }
    text += '\n';
  }
  for (const Row& row : q.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i != 0) text += '\t';
      text += row[i].ToString();
    }
    text += '\n';
  }
  if (q.rows.empty() && q.affected != 0) {
    text += "affected=" + std::to_string(q.affected) + "\n";
  }
  return text;
}

std::string HttpResponse(int code, const char* reason,
                         std::string_view body) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: text/plain; charset=utf-8\r\n"
                    "Content-Length: " +
                    std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out.append(body.data(), body.size());
  return out;
}

}  // namespace

/// Per-connection state. Owned by exactly one event loop; every field
/// is touched only from that loop's thread.
struct TarpitServer::Conn {
  explicit Conn(size_t max_frame_bytes) : decoder(max_frame_bytes) {}

  uint64_t id = 0;  // Doubles as the engine StallGroup.
  int fd = -1;
  size_t loop_index = 0;
  uint64_t token = 0;  // EventLoop registration.
  bool http = false;

  // READ_FRAME -> (ADMIT/COMPUTE_DELAY/PARKED happen inside kBusy;
  // the engine owns the request) -> WRITE_RESPONSE -> READ_FRAME.
  enum class State { kReadFrame, kBusy };
  State state = State::kReadFrame;

  FrameDecoder decoder;
  std::string http_buf;
  std::deque<Frame> pending;  // Frames pipelined while kBusy.

  std::string out;  // Write buffer; [out_pos, size) still unsent.
  size_t out_pos = 0;
  bool epollout_armed = false;
  bool close_after_write = false;

  bool has_principal = false;
  RequestPrincipal principal;

  int64_t park_start_micros = 0;
  uint64_t keepalive_timer = 0;     // Loop timer ids; 0 = unarmed.
  uint64_t read_timeout_timer = 0;
};

TarpitServer::TarpitServer(ConcurrentProtectedDatabase* db, Clock* clock,
                           TarpitServerOptions options)
    : db_(db), clock_(clock), options_(std::move(options)) {}

TarpitServer::~TarpitServer() { Stop(); }

Status TarpitServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  if (db_->delay_scheduler() == nullptr) {
    return Status::InvalidArgument(
        "TarpitServer requires a database with async_stalls enabled "
        "(the whole point is parking connections on its scheduler)");
  }
  if (options_.num_event_loops == 0) options_.num_event_loops = 1;

  if (obs::MetricRegistry* reg = options_.metrics) {
    m_accepted_frame_ =
        reg->GetCounter("tarpit_net_connections_total", {{"kind", "frame"}});
    m_accepted_http_ =
        reg->GetCounter("tarpit_net_connections_total", {{"kind", "http"}});
    m_frames_ = reg->GetCounter("tarpit_net_frames_read_total");
    m_responses_ok_ =
        reg->GetCounter("tarpit_net_responses_total", {{"status", "ok"}});
    m_responses_err_ =
        reg->GetCounter("tarpit_net_responses_total", {{"status", "error"}});
    m_keepalives_ = reg->GetCounter("tarpit_net_keepalives_total");
    m_hangups_mid_stall_ =
        reg->GetCounter("tarpit_net_hangups_mid_stall_total");
    m_accept_delays_ = reg->GetCounter("tarpit_net_accept_delays_total");
    m_http_requests_ = reg->GetCounter("tarpit_net_http_requests_total");
    m_bytes_read_ = reg->GetCounter("tarpit_net_bytes_read_total");
    m_bytes_written_ = reg->GetCounter("tarpit_net_bytes_written_total");
    m_active_ = reg->GetGauge("tarpit_net_active_connections");
    m_parked_ = reg->GetGauge("tarpit_net_parked_connections");
    m_parked_peak_ = reg->GetGauge("tarpit_net_parked_connections_peak");
    m_err_oversized_ = reg->GetCounter("tarpit_net_protocol_errors_total",
                                       {{"reason", "oversized"}});
    m_err_malformed_ = reg->GetCounter("tarpit_net_protocol_errors_total",
                                       {{"reason", "malformed"}});
    m_err_timeout_ = reg->GetCounter("tarpit_net_protocol_errors_total",
                                     {{"reason", "read_timeout"}});
    m_err_pipeline_ = reg->GetCounter("tarpit_net_protocol_errors_total",
                                      {{"reason", "pipeline_overflow"}});
    m_err_backpressure_ = reg->GetCounter(
        "tarpit_net_protocol_errors_total", {{"reason", "backpressure"}});
    m_accept_micros_ = reg->GetHistogram("tarpit_net_accept_micros");
    m_read_micros_ = reg->GetHistogram("tarpit_net_read_micros");
    m_write_micros_ = reg->GetHistogram("tarpit_net_write_micros");
    m_park_micros_ = reg->GetHistogram("tarpit_net_park_micros");
  }

  auto listen = ListenTcp(options_.host, options_.port);
  if (!listen.ok()) return listen.status();
  listen_fd_.Reset(*listen);
  port_ = LocalPort(listen_fd_.get());

  if (options_.enable_http) {
    auto http = ListenTcp(options_.host, options_.http_port);
    if (!http.ok()) return http.status();
    http_fd_.Reset(*http);
    actual_http_port_ = LocalPort(http_fd_.get());
  }

  loops_.clear();
  loop_state_.clear();
  for (size_t i = 0; i < options_.num_event_loops; ++i) {
    auto loop = std::make_unique<EventLoop>();
    Status s = loop->Init();
    if (!s.ok()) return s;
    loops_.push_back(std::move(loop));
    loop_state_.push_back(std::make_unique<LoopState>());
  }
  for (size_t i = 0; i < loops_.size(); ++i) {
    loop_threads_.emplace_back([this, i] { loops_[i]->Run(); });
  }
  accepting_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  return Status::OK();
}

void TarpitServer::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true)) return;

  // 1. Stop accepting: no new connections can enter. The acceptor's
  //    posted AddConnection tasks are already in loop queues and run
  //    (FIFO) before the close-all tasks posted below.
  accepting_.store(false, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  listen_fd_.Reset();
  http_fd_.Reset();

  // 2. Drain connections: every parked stall is cancelled (completes
  //    Status::Cancelled -- the charge stays on the books), every fd
  //    closes, every map empties.
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->Post([this, i] {
      auto& conns = loop_state_[i]->conns;
      while (!conns.empty()) {
        CloseConn(conns.begin()->second.get(), /*peer_hangup=*/false);
      }
    });
  }
  // Wait until the close-all tasks ran AND every in-flight engine
  // completion made it back to its loop. Only then is it safe for the
  // caller to destroy the database (which shuts the scheduler down):
  // this wait is what enforces "server drains before scheduler dies".
  while (active_.load(std::memory_order_acquire) != 0 ||
         inflight_engine_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 3. Stop the reactors.
  for (auto& loop : loops_) loop->Stop();
  for (auto& t : loop_threads_) {
    if (t.joinable()) t.join();
  }
  loop_threads_.clear();
}

void TarpitServer::AcceptorLoop() {
  while (accepting_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    nfds_t n = 0;
    fds[n].fd = listen_fd_.get();
    fds[n].events = POLLIN;
    ++n;
    if (http_fd_.valid()) {
      fds[n].fd = http_fd_.get();
      fds[n].events = POLLIN;
      ++n;
    }
    const int rc =
        RetryOnEintr([&] { return ::poll(fds, n, /*timeout_ms=*/50); });
    if (rc < 0) return;
    if (rc == 0) continue;
    for (nfds_t i = 0; i < n; ++i) {
      if ((fds[i].revents & POLLIN) != 0) {
        HandleAccept(fds[i].fd, /*http=*/fds[i].fd == http_fd_.get());
      }
    }
  }
}

void TarpitServer::HandleAccept(int listen_fd, bool http) {
  while (true) {
    const int64_t t0 = EventLoop::NowMicros();
    const int fd = RetryOnEintr([&] {
      return ::accept4(listen_fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    });
    if (fd < 0) return;  // EAGAIN: burst drained (or socket dying).
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (http) {
      if (m_accepted_http_ != nullptr) m_accepted_http_->Increment();
    } else if (m_accepted_frame_ != nullptr) {
      m_accepted_frame_->Increment();
    }
    if (options_.max_connections != 0 &&
        active_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      CloseFd(fd);
      continue;
    }
    const size_t li =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    loops_[li]->Post([this, li, fd, http] { AddConnection(li, fd, http); });
    if (m_accept_micros_ != nullptr) {
      m_accept_micros_->Record(EventLoop::NowMicros() - t0);
    }
  }
}

void TarpitServer::AddConnection(size_t loop_index, int fd, bool http) {
  if (stopped_.load(std::memory_order_acquire)) {
    CloseFd(fd);
    return;
  }
  auto conn = std::make_unique<Conn>(options_.max_frame_bytes);
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->fd = fd;
  conn->loop_index = loop_index;
  conn->http = http;
  if (!http) {
    (void)SetNoDelay(fd);
    if (options_.so_sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf_bytes,
                   sizeof(options_.so_sndbuf_bytes));
    }
  }
  const uint64_t id = conn->id;
  conn->token = loops_[loop_index]->AddFd(
      fd, kBaseEvents,
      [this, loop_index, id](uint32_t ev) { OnConnEvent(loop_index, id, ev); });
  if (conn->token == 0) {
    CloseFd(fd);
    return;
  }
  const size_t now_active = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (m_active_ != nullptr) m_active_->Set(static_cast<int64_t>(now_active));
  Conn* raw = conn.get();
  loop_state_[loop_index]->conns.emplace(id, std::move(conn));
  // Edge-triggered: bytes may have landed before registration; the
  // initial read pass catches them (no edge will re-announce them).
  (void)ReadConn(raw);
}

TarpitServer::Conn* TarpitServer::FindConn(size_t loop_index,
                                           uint64_t conn_id) {
  auto& conns = loop_state_[loop_index]->conns;
  auto it = conns.find(conn_id);
  return it == conns.end() ? nullptr : it->second.get();
}

void TarpitServer::CloseConn(Conn* conn, bool peer_hangup) {
  const bool busy = conn->state == Conn::State::kBusy;
  if (busy) {
    if (peer_hangup) {
      hangups_mid_stall_.fetch_add(1, std::memory_order_relaxed);
      if (m_hangups_mid_stall_ != nullptr) m_hangups_mid_stall_->Increment();
      // Disconnect-and-retry gains nothing: the parked stall is
      // cancelled below (charge kept, tuple withheld) and the
      // principal's reputation is bumped so the NEXT connection sees
      // an escalated factor.
      if (options_.reputation != nullptr && conn->has_principal) {
        options_.reputation->RecordSignal(
            conn->principal.identity, conn->principal.subnet24,
            clock_->NowSeconds(), ReputationSignal::kExternal);
      }
    }
    // Cancels both engine-parked stalls and any delay-before-serve
    // entry: they share the connection id as their StallGroup.
    db_->CancelSession(conn->id);
  }
  DisarmKeepalive(conn);
  DisarmReadTimeout(conn);
  loops_[conn->loop_index]->RemoveFd(conn->token);
  CloseFd(conn->fd);
  const size_t now_active =
      active_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (m_active_ != nullptr) m_active_->Set(static_cast<int64_t>(now_active));
  loop_state_[conn->loop_index]->conns.erase(conn->id);  // Frees conn.
}

void TarpitServer::OnConnEvent(size_t loop_index, uint64_t conn_id,
                               uint32_t events) {
  Conn* conn = FindConn(loop_index, conn_id);
  if (conn == nullptr) return;  // Stale event for a recycled token slot.
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConn(conn, /*peer_hangup=*/true);
    return;
  }
  if ((events & EPOLLIN) != 0) {
    if (!ReadConn(conn)) return;
  }
  if ((events & EPOLLRDHUP) != 0) {
    // Peer half-closed. Everything readable was drained above; the
    // connection cannot produce another request, so tear it down (a
    // parked request is a mid-stall hang-up: cancel, keep the charge).
    CloseConn(conn, /*peer_hangup=*/true);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!FlushConn(conn)) return;
  }
}

bool TarpitServer::ReadConn(Conn* conn) {
  const int64_t t0 = EventLoop::NowMicros();
  char chunk[kReadChunk];
  while (true) {
    const ssize_t n = RetryOnEintr(
        [&] { return ::read(conn->fd, chunk, sizeof(chunk)); });
    if (n > 0) {
      if (m_bytes_read_ != nullptr) m_bytes_read_->Increment(n);
      if (conn->http) {
        if (conn->http_buf.size() + static_cast<size_t>(n) >
            kMaxHttpRequestBytes) {
          CloseConn(conn, /*peer_hangup=*/false);
          return false;
        }
        conn->http_buf.append(chunk, static_cast<size_t>(n));
      } else {
        conn->decoder.Feed(chunk, static_cast<size_t>(n));
      }
      continue;  // Edge-triggered: drain until EAGAIN.
    }
    if (n == 0) {  // Orderly EOF == hang-up.
      CloseConn(conn, /*peer_hangup=*/true);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn, /*peer_hangup=*/false);
    return false;
  }
  if (m_read_micros_ != nullptr) {
    m_read_micros_->Record(EventLoop::NowMicros() - t0);
  }
  if (conn->http) return HandleHttp(conn);
  if (!ProcessFrames(conn)) return false;
  // Slow-loris watch: a partial frame must finish arriving within the
  // read timeout; completed-and-idle connections are never timed out.
  if (conn->decoder.has_partial()) {
    ArmReadTimeout(conn);
  } else {
    DisarmReadTimeout(conn);
  }
  return true;
}

bool TarpitServer::ProcessFrames(Conn* conn) {
  while (true) {
    if (conn->state == Conn::State::kBusy) {
      // Park pipelined frames (bounded) until the in-flight request
      // completes; the engine serializes per connection.
      Frame f;
      std::string err;
      switch (conn->decoder.Pop(&f, &err)) {
        case FrameDecoder::Next::kFrame:
          if (conn->pending.size() >= options_.max_pipelined_frames) {
            return ProtocolError(conn, StatusCode::kResourceExhausted,
                                 "pipelined frame limit exceeded",
                                 m_err_pipeline_);
          }
          conn->pending.push_back(std::move(f));
          continue;
        case FrameDecoder::Next::kNeedMore:
          return true;
        case FrameDecoder::Next::kError:
          return ProtocolError(conn, StatusCode::kInvalidArgument, err,
                               m_err_oversized_);
      }
    }
    if (!conn->pending.empty()) {
      Frame f = std::move(conn->pending.front());
      conn->pending.pop_front();
      if (!DispatchFrame(conn, std::move(f))) return false;
      continue;
    }
    Frame f;
    std::string err;
    switch (conn->decoder.Pop(&f, &err)) {
      case FrameDecoder::Next::kFrame:
        if (!DispatchFrame(conn, std::move(f))) return false;
        continue;
      case FrameDecoder::Next::kNeedMore:
        return true;
      case FrameDecoder::Next::kError:
        return ProtocolError(conn, StatusCode::kInvalidArgument, err,
                             m_err_oversized_);
    }
  }
}

bool TarpitServer::DispatchFrame(Conn* conn, Frame frame) {
  if (m_frames_ != nullptr) m_frames_->Increment();
  switch (frame.type) {
    case FrameType::kHello:
      return StartHello(conn, frame);
    case FrameType::kQuery:
    case FrameType::kGetKey:
      return StartQuery(conn, std::move(frame));
    default:
      return ProtocolError(
          conn, StatusCode::kInvalidArgument,
          "unexpected frame type " +
              std::to_string(static_cast<unsigned>(frame.type)),
          m_err_malformed_);
  }
}

bool TarpitServer::StartHello(Conn* conn, const Frame& frame) {
  uint64_t identity = 0;
  uint32_t claimed_ipv4 = 0;
  if (!ParseHello(frame.payload, &identity, &claimed_ipv4)) {
    return ProtocolError(conn, StatusCode::kInvalidArgument,
                         "malformed hello", m_err_malformed_);
  }
  // The /24 comes from the socket, never from the claim: a client that
  // could name its own subnet would step out of the subnet penalty,
  // the one score that identity churn cannot reset.
  conn->principal.identity = identity;
  conn->principal.subnet24 = PeerIpv4(conn->fd) & 0xFFFFFF00u;
  conn->has_principal = identity != 0;

  // Delayer-style delay-before-serve: a principal that already earned
  // a penalty waits before its FIRST query is even accepted, priced by
  // its factor. Fresh principals pass through untouched.
  double factor = 1.0;
  if (options_.reputation != nullptr && conn->has_principal) {
    factor = options_.reputation->PenaltyFactor(
        conn->principal.identity, conn->principal.subnet24,
        clock_->NowSeconds());
  }
  if (options_.accept_delay_seconds > 0 &&
      factor >= options_.accept_delay_threshold) {
    const double delay =
        std::min(options_.accept_delay_seconds * factor,
                 options_.accept_delay_cap_seconds);
    accept_delays_.fetch_add(1, std::memory_order_relaxed);
    if (m_accept_delays_ != nullptr) m_accept_delays_->Increment();
    conn->state = Conn::State::kBusy;
    conn->park_start_micros = EventLoop::NowMicros();
    ArmKeepalive(conn);
    MarkParked(true);
    inflight_engine_.fetch_add(1, std::memory_order_acq_rel);
    const size_t li = conn->loop_index;
    const uint64_t id = conn->id;
    db_->delay_scheduler()->Submit(
        delay,
        [this, li, id](bool cancelled) {
          loops_[li]->Post(
              [this, li, id, cancelled] { FinishHelloDelay(li, id, cancelled); });
        },
        /*group=*/id);
    return true;
  }
  SendFrame(conn, FrameType::kHelloAck, "");
  return FlushConn(conn);
}

void TarpitServer::FinishHelloDelay(size_t loop_index, uint64_t conn_id,
                                    bool cancelled) {
  inflight_engine_.fetch_sub(1, std::memory_order_acq_rel);
  MarkParked(false);
  Conn* conn = FindConn(loop_index, conn_id);
  if (conn == nullptr || cancelled) return;  // Hung up during the park.
  if (m_park_micros_ != nullptr) {
    m_park_micros_->Record(EventLoop::NowMicros() - conn->park_start_micros);
  }
  DisarmKeepalive(conn);
  conn->state = Conn::State::kReadFrame;
  SendFrame(conn, FrameType::kHelloAck, "");
  if (!FlushConn(conn)) return;
  (void)ProcessFrames(conn);
}

bool TarpitServer::StartQuery(Conn* conn, Frame frame) {
  int64_t key = 0;
  const bool is_get = frame.type == FrameType::kGetKey;
  if (is_get && !ParseGetKey(frame.payload, &key)) {
    return ProtocolError(conn, StatusCode::kInvalidArgument,
                         "malformed get-key", m_err_malformed_);
  }
  // ADMIT -> COMPUTE_DELAY -> PARKED all happen inside the engine's
  // async door. The connection id is the StallGroup, so a hang-up can
  // cancel exactly this park.
  conn->state = Conn::State::kBusy;
  conn->park_start_micros = EventLoop::NowMicros();
  inflight_engine_.fetch_add(1, std::memory_order_acq_rel);
  const size_t li = conn->loop_index;
  const uint64_t id = conn->id;
  auto done = [this, li, id](Result<ProtectedResult> r) {
    // On the loop thread the door completed inline (a zero charge or a
    // perimeter error) and the call below has not returned yet: leave
    // the result for it. Anything else ran on the scheduler's driver
    // (stall expiry or cancellation) and marshals back to the loop. A
    // parked stall never completes on the thread that cancelled it, so
    // CloseConn's CancelSession on this loop cannot land here and
    // leave a stale inline_result for the loop's next request.
    if (loops_[li]->InLoopThread()) {
      loop_state_[li]->inline_result = std::move(r);
      return;
    }
    loops_[li]->Post([this, li, id, r = std::move(r)]() mutable {
      OnEngineComplete(li, id, std::move(r));
    });
  };
  if (is_get) {
    if (conn->has_principal) {
      db_->GetByKeyAsync(key, conn->principal, std::move(done), id);
    } else {
      db_->GetByKeyAsync(key, std::move(done), id);
    }
  } else {
    if (conn->has_principal) {
      db_->ExecuteSqlAsync(frame.payload, conn->principal, std::move(done),
                           id);
    } else {
      db_->ExecuteSqlAsync(frame.payload, std::move(done), id);
    }
  }
  std::optional<Result<ProtectedResult>>& inline_result =
      loop_state_[li]->inline_result;
  if (inline_result.has_value()) {
    // Written here, not by re-entering ProcessFrames: its loop goes on
    // to the next frame, so a long pipeline cannot grow the stack.
    Result<ProtectedResult> r = std::move(*inline_result);
    inline_result.reset();
    return WriteResponse(conn, std::move(r));
  }
  // Parked: the completion comes back through Post.
  ArmKeepalive(conn);
  MarkParked(true);
  return true;
}

void TarpitServer::OnEngineComplete(size_t loop_index, uint64_t conn_id,
                                    Result<ProtectedResult> result) {
  MarkParked(false);
  Conn* conn = FindConn(loop_index, conn_id);
  if (conn == nullptr) {  // Hung up mid-stall; charge already kept.
    inflight_engine_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  if (WriteResponse(conn, std::move(result))) (void)ProcessFrames(conn);
}

bool TarpitServer::WriteResponse(Conn* conn, Result<ProtectedResult> result) {
  inflight_engine_.fetch_sub(1, std::memory_order_acq_rel);
  if (m_park_micros_ != nullptr) {
    m_park_micros_->Record(EventLoop::NowMicros() - conn->park_start_micros);
  }
  DisarmKeepalive(conn);
  conn->state = Conn::State::kReadFrame;
  responses_.fetch_add(1, std::memory_order_relaxed);
  if (result.ok()) {
    if (m_responses_ok_ != nullptr) m_responses_ok_->Increment();
    const std::string text = SerializeResult(result->result);
    SendFrame(conn, FrameType::kResponse,
              ResponsePayload(
                  static_cast<uint8_t>(StatusCode::kOk),
                  static_cast<uint64_t>(
                      Clock::DelayToMicros(result->delay_seconds)),
                  static_cast<uint32_t>(result->result.rows.size()), text));
  } else {
    if (m_responses_err_ != nullptr) m_responses_err_->Increment();
    const Status s = result.status();
    SendFrame(conn, FrameType::kError,
              ErrorPayload(static_cast<uint8_t>(s.code()), s.message()));
  }
  return FlushConn(conn);
}

void TarpitServer::SendFrame(Conn* conn, FrameType type,
                             std::string_view payload) {
  AppendFrame(&conn->out, type, payload);
}

bool TarpitServer::FlushConn(Conn* conn) {
  const int64_t t0 = EventLoop::NowMicros();
  while (conn->out_pos < conn->out.size()) {
    const ssize_t n = RetryOnEintr([&] {
      return ::write(conn->fd, conn->out.data() + conn->out_pos,
                     conn->out.size() - conn->out_pos);
    });
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      if (m_bytes_written_ != nullptr) m_bytes_written_->Increment(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(conn, /*peer_hangup=*/false);
    return false;
  }
  if (m_write_micros_ != nullptr) {
    m_write_micros_->Record(EventLoop::NowMicros() - t0);
  }
  if (conn->out_pos == conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
    if (conn->epollout_armed) {
      conn->epollout_armed = false;
      (void)loops_[conn->loop_index]->ModFd(conn->token, kBaseEvents);
    }
    if (conn->close_after_write) {
      CloseConn(conn, /*peer_hangup=*/false);
      return false;
    }
    return true;
  }
  // Backpressure: bounded buffering, EPOLLOUT-driven resumption. A
  // peer that stops reading cannot grow our memory past the cap.
  if (conn->out.size() - conn->out_pos > options_.max_write_buffer_bytes) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    if (m_err_backpressure_ != nullptr) m_err_backpressure_->Increment();
    CloseConn(conn, /*peer_hangup=*/false);
    return false;
  }
  if (!conn->epollout_armed) {
    conn->epollout_armed = true;
    (void)loops_[conn->loop_index]->ModFd(conn->token,
                                          kBaseEvents | EPOLLOUT);
  }
  return true;
}

void TarpitServer::ArmReadTimeout(Conn* conn) {
  if (conn->read_timeout_timer != 0 || options_.read_timeout_seconds <= 0) {
    return;
  }
  const size_t li = conn->loop_index;
  const uint64_t id = conn->id;
  conn->read_timeout_timer = loops_[li]->AddTimerAt(
      EventLoop::NowMicros() +
          static_cast<int64_t>(options_.read_timeout_seconds * 1e6),
      [this, li, id] { OnReadTimeout(li, id); });
}

void TarpitServer::DisarmReadTimeout(Conn* conn) {
  if (conn->read_timeout_timer != 0) {
    loops_[conn->loop_index]->CancelTimer(conn->read_timeout_timer);
    conn->read_timeout_timer = 0;
  }
}

void TarpitServer::OnReadTimeout(size_t loop_index, uint64_t conn_id) {
  Conn* conn = FindConn(loop_index, conn_id);
  if (conn == nullptr) return;
  conn->read_timeout_timer = 0;
  if (conn->decoder.has_partial()) {
    // Slow-loris: the frame never finished arriving.
    (void)ProtocolError(conn, StatusCode::kRateLimited,
                        "read timeout: partial frame", m_err_timeout_);
  }
}

void TarpitServer::ArmKeepalive(Conn* conn) {
  if (options_.keepalive_interval_seconds <= 0) return;
  DisarmKeepalive(conn);
  const size_t li = conn->loop_index;
  const uint64_t id = conn->id;
  conn->keepalive_timer = loops_[li]->AddTimerAt(
      EventLoop::NowMicros() +
          static_cast<int64_t>(options_.keepalive_interval_seconds * 1e6),
      [this, li, id] { OnKeepalive(li, id); });
}

void TarpitServer::DisarmKeepalive(Conn* conn) {
  if (conn->keepalive_timer != 0) {
    loops_[conn->loop_index]->CancelTimer(conn->keepalive_timer);
    conn->keepalive_timer = 0;
  }
}

void TarpitServer::OnKeepalive(size_t loop_index, uint64_t conn_id) {
  Conn* conn = FindConn(loop_index, conn_id);
  if (conn == nullptr) return;
  conn->keepalive_timer = 0;
  if (conn->state != Conn::State::kBusy) return;  // Raced completion.
  // mopher-style 1-byte progress frame: proxies and client timeouts
  // see liveness, the stall itself is never shortened.
  keepalives_.fetch_add(1, std::memory_order_relaxed);
  if (m_keepalives_ != nullptr) m_keepalives_->Increment();
  SendFrame(conn, FrameType::kProgress, ".");
  if (!FlushConn(conn)) return;
  ArmKeepalive(conn);
}

bool TarpitServer::HandleHttp(Conn* conn) {
  const size_t header_end = conn->http_buf.find("\r\n\r\n");
  if (header_end == std::string::npos) return true;  // Need more.
  if (m_http_requests_ != nullptr) m_http_requests_->Increment();
  // "GET <path> HTTP/1.1"
  std::string path;
  {
    const size_t sp1 = conn->http_buf.find(' ');
    const size_t sp2 = sp1 == std::string::npos
                           ? std::string::npos
                           : conn->http_buf.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) {
      path = conn->http_buf.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }
  std::string response;
  if (path == "/metrics") {
    if (options_.metrics != nullptr) {
      response =
          HttpResponse(200, "OK",
                       obs::ToPrometheusText(options_.metrics->Snapshot()));
    } else {
      response = HttpResponse(503, "Service Unavailable",
                              "no metric registry configured\n");
    }
  } else if (path == "/healthz") {
    response = HttpResponse(200, "OK", "ok\n");
  } else {
    response = HttpResponse(404, "Not Found", "unknown path\n");
  }
  conn->http_buf.clear();
  conn->out.append(response);
  conn->close_after_write = true;
  return FlushConn(conn);
}

void TarpitServer::MarkParked(bool parked) {
  if (parked) {
    const size_t v = parked_.fetch_add(1, std::memory_order_relaxed) + 1;
    size_t p = peak_parked_.load(std::memory_order_relaxed);
    while (v > p && !peak_parked_.compare_exchange_weak(
                        p, v, std::memory_order_relaxed)) {
    }
    if (m_parked_ != nullptr) m_parked_->Set(static_cast<int64_t>(v));
    if (m_parked_peak_ != nullptr) {
      m_parked_peak_->Set(static_cast<int64_t>(
          peak_parked_.load(std::memory_order_relaxed)));
    }
  } else {
    const size_t v = parked_.fetch_sub(1, std::memory_order_relaxed) - 1;
    if (m_parked_ != nullptr) m_parked_->Set(static_cast<int64_t>(v));
  }
}

bool TarpitServer::ProtocolError(Conn* conn, StatusCode code,
                                 const std::string& message,
                                 obs::Counter* reason) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  if (reason != nullptr) reason->Increment();
  SendFrame(conn, FrameType::kError,
            ErrorPayload(static_cast<uint8_t>(code), message));
  conn->close_after_write = true;
  if (FlushConn(conn) && conn->state == Conn::State::kBusy) {
    // A request is in flight: its response must never follow the
    // error, so close now with whatever did not flush. CloseConn
    // cancels the engine park; the charge stays.
    CloseConn(conn, /*peer_hangup=*/false);
  }
  return false;  // Gone, or close-after-write pending on EPOLLOUT.
}

}  // namespace net
}  // namespace tarpit
