#include "wire.h"

#include <poll.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "common/status.h"
#include "net/socket.h"

namespace perfbench {

using tarpit::Status;
using tarpit::net::Frame;
using tarpit::net::FrameType;

namespace {

/// Writes all of `bytes`, waiting for writability on a full socket.
bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

/// Blocking Hello handshake on a fresh (blocking) socket.
Status Hello(int fd, uint64_t identity) {
  std::string out;
  tarpit::net::AppendFrame(&out, FrameType::kHello,
                           tarpit::net::HelloPayload(identity, 0));
  if (!WriteAll(fd, out)) return Status::IOError("hello write failed");
  tarpit::net::FrameDecoder decoder(1 << 20);
  char buf[256];
  for (;;) {
    Frame f;
    if (decoder.Pop(&f) == tarpit::net::FrameDecoder::Next::kFrame) {
      if (f.type == FrameType::kHelloAck) return Status::OK();
      if (f.type != FrameType::kProgress) {
        return Status::IOError("unexpected frame during hello");
      }
      continue;
    }
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return Status::IOError("hello read failed");
    decoder.Feed(buf, static_cast<size_t>(n));
  }
}

}  // namespace

std::string SelectSql(int64_t key) {
  return "SELECT * FROM items WHERE id = " + std::to_string(key);
}

std::string UpdateSql(int64_t key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "UPDATE items SET v = %.1f WHERE id = %lld",
                value, static_cast<long long>(key));
  return buf;
}

double NextWriteValue(OutputChecker* checker, int64_t key) {
  static uint64_t writes = 0;
  const double v = -(static_cast<double>(writes++) + 0.5);
  checker->NoteWrite(key, v);
  return v;
}

WireClient::WireClient(OutputChecker* checker)
    : checker_(checker), pacer_([this](int64_t ns) { Poll(ns); }) {}

WireClient::~WireClient() {
  for (auto& c : conns_) tarpit::net::CloseFd(c->fd);
  if (epfd_ >= 0) ::close(epfd_);
}

tarpit::Result<std::unique_ptr<WireClient>> WireClient::Connect(
    uint16_t port, int conns, uint64_t identity_base,
    OutputChecker* checker) {
  std::unique_ptr<WireClient> w(new WireClient(checker));
  w->epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (w->epfd_ < 0) return Status::IOError("epoll_create1 failed");
  for (int k = 1; k <= conns; ++k) {
    const std::string source = "127.0." + std::to_string(k) + ".1";
    auto fd = tarpit::net::ConnectTcp("127.0.0.1", port, source);
    if (!fd.ok()) return fd.status();
    auto conn = std::make_unique<Conn>();
    conn->fd = *fd;
    w->conns_.push_back(std::move(conn));
    Status st = Hello(*fd, identity_base + static_cast<uint64_t>(k));
    if (!st.ok()) return st;
    st = tarpit::net::SetNonBlocking(*fd);
    if (!st.ok()) return st;
    (void)tarpit::net::SetNoDelay(*fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<uint64_t>(k - 1);
    if (::epoll_ctl(w->epfd_, EPOLL_CTL_ADD, *fd, &ev) != 0) {
      return Status::IOError("epoll_ctl failed");
    }
  }
  return w;
}

void WireClient::Poll(int64_t max_wait_ns) {
  epoll_event events[8];
  const timespec ts{static_cast<time_t>(max_wait_ns / 1'000'000'000),
                    static_cast<long>(max_wait_ns % 1'000'000'000)};
  const int n = ::epoll_pwait2(epfd_, events, 8, &ts, nullptr);
  for (int i = 0; i < n; ++i) ReadConn(events[i].data.u64);
}

void WireClient::ReadConn(size_t conn_index) {
  Conn& c = *conns_[conn_index];
  char buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::read(c.fd, buf, sizeof buf);
    if (n <= 0) break;  // EAGAIN, EOF or error: outstanding ops time out.
    const int64_t now = NowNs();
    c.decoder.Feed(buf, static_cast<size_t>(n));
    Frame f;
    while (c.decoder.Pop(&f) == tarpit::net::FrameDecoder::Next::kFrame) {
      if (f.type == FrameType::kProgress || c.inflight.empty()) continue;
      const uint32_t slot = c.inflight.front();
      c.inflight.pop_front();
      Complete(conn_index, slot, f, now);
    }
  }
}

size_t WireClient::PickConn(size_t i) {
  const size_t own = i % conns_.size();
  while (conns_[own]->inflight.size() >= kMaxInflight) {
    size_t least = 0;
    for (size_t c = 1; c < conns_.size(); ++c) {
      if (conns_[c]->inflight.size() < conns_[least]->inflight.size()) {
        least = c;
      }
    }
    if (conns_[least]->inflight.size() < kMaxInflight) return least;
    Poll(1'000'000);
  }
  return own;
}

void WireClient::Send(size_t conn_index, uint32_t slot, const Op& op) {
  std::string out;
  switch (op.kind) {
    case OpKind::kGet:
      tarpit::net::AppendFrame(&out, FrameType::kGetKey,
                               tarpit::net::GetKeyPayload(op.key));
      break;
    case OpKind::kSelect:
      tarpit::net::AppendFrame(&out, FrameType::kQuery, SelectSql(op.key));
      break;
    case OpKind::kUpdate:
      tarpit::net::AppendFrame(
          &out, FrameType::kQuery,
          UpdateSql(op.key, NextWriteValue(checker_, op.key)));
      break;
  }
  Conn& c = *conns_[conn_index];
  pending_[slot].op = op;
  pending_[slot].sent_ns = NowNs();
  c.inflight.push_back(slot);
  ++outstanding_;
  (void)WriteAll(c.fd, out);
}

bool WireClient::Check(const Op& op, const Frame& frame) const {
  tarpit::net::WireResponse r;
  if (frame.type != FrameType::kResponse ||
      !tarpit::net::ParseResponse(frame.payload, &r)) {
    return false;
  }
  if (r.status_code != static_cast<uint8_t>(tarpit::StatusCode::kOk) ||
      r.delay_micros != 0) {
    return false;
  }
  if (op.kind == OpKind::kUpdate) return r.text == "affected=1\n";
  return r.row_count == 1 && checker_->RowTextOk(op.key, r.text);
}

void WireClient::Complete(size_t conn_index, uint32_t slot,
                          const Frame& frame, int64_t now_ns) {
  --outstanding_;
  const bool ok = Check(pending_[slot].op, frame);
  if (closed_loop_) {
    ++closed_done_;
    if (!ok) ++closed_failed_;
    if (now_ns < closed_end_ns_) {
      Send(conn_index, slot, (*closed_ops_)[closed_next_++ % closed_ops_->size()]);
    }
    return;
  }
  OpOutcome& o = (*outcomes_)[slot];
  o.sent_ns = pending_[slot].sent_ns;
  o.done_ns = now_ns;
  o.done = true;
  o.ok = ok;
}

void WireClient::RunOpenLoop(const std::vector<Op>& ops, int64_t start_ns,
                             int64_t period_ns, int64_t drain_ns,
                             std::vector<OpOutcome>* out) {
  out->assign(ops.size(), OpOutcome{});
  outcomes_ = out;
  pending_.assign(ops.size(), Pending{});
  outstanding_ = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t due = start_ns + static_cast<int64_t>(i) * period_ns;
    (*out)[i].due_ns = due;
    pacer_.WaitUntil(due);
    Send(PickConn(i), static_cast<uint32_t>(i), ops[i]);
  }
  const int64_t last_due =
      start_ns + static_cast<int64_t>(ops.size()) * period_ns;
  const int64_t give_up = last_due + drain_ns;
  while (outstanding_ > 0) {
    const int64_t now = NowNs();
    if (now >= give_up) break;
    Poll(give_up - now);
  }
  outcomes_ = nullptr;
}

double WireClient::RunClosedLoop(const std::vector<Op>& ops, double seconds,
                                 uint64_t* failed) {
  closed_loop_ = true;
  closed_ops_ = &ops;
  closed_next_ = 0;
  closed_done_ = 0;
  closed_failed_ = 0;
  pending_.assign(conns_.size(), Pending{});
  outstanding_ = 0;
  const int64_t start = NowNs();
  closed_end_ns_ = start + static_cast<int64_t>(seconds * 1e9);
  for (size_t c = 0; c < conns_.size(); ++c) {
    Send(c, static_cast<uint32_t>(c), ops[closed_next_++ % ops.size()]);
  }
  const int64_t give_up = closed_end_ns_ + 5'000'000'000;
  while (outstanding_ > 0 && NowNs() < give_up) Poll(1'000'000);
  const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
  closed_loop_ = false;
  *failed += closed_failed_ + outstanding_;
  return static_cast<double>(closed_done_) / elapsed;
}

}  // namespace perfbench
