#include "net/load_client.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/syscall_retry.h"
#include "net/socket.h"

namespace tarpit {
namespace net {

struct LoadClient::Conn {
  int fd = -1;
  enum class State { kConnecting, kSending, kAwait } state =
      State::kConnecting;
  std::string out;     // Prebuilt hello?+request bytes.
  size_t out_pos = 0;
  FrameDecoder decoder{1 << 20};
  bool counted_response = false;
};

LoadClient::LoadClient(LoadClientOptions options)
    : options_(std::move(options)) {}

LoadClient::~LoadClient() { CloseAll(); }

Status LoadClient::Init() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  conns_.reserve(options_.connections);
  return Status::OK();
}

std::string LoadClient::SourceIpFor(size_t index) const {
  if (options_.source_ips == 0) return "";
  // 127.0.x.y with x in [1,127], y in [1,250]: all loopback-local, all
  // distinct 4-tuple source addresses.
  const size_t ip = index % options_.source_ips;
  return "127.0." + std::to_string(1 + ip / 250) + "." +
         std::to_string(1 + ip % 250);
}

bool LoadClient::LaunchOne() {
  if (launched_ >= options_.connections) return false;
  const size_t index = launched_++;
  auto conn = std::make_unique<Conn>();
  auto fd = ConnectTcp(options_.host, options_.port, SourceIpFor(index),
                       /*nonblocking=*/true);
  if (!fd.ok()) {
    ++errors_;
    ++settled_;
    return true;
  }
  conn->fd = *fd;
  if (options_.send_hello) {
    AppendFrame(&conn->out, FrameType::kHello,
                HelloPayload(options_.identity_base + index, 0));
  }
  const int64_t span = options_.key_max - options_.key_min + 1;
  const int64_t key =
      options_.key_min +
      (span > 0 ? static_cast<int64_t>(index) % span : 0);
  AppendFrame(&conn->out, FrameType::kGetKey, GetKeyPayload(key));

  epoll_event ev{};
  ev.events = EPOLLOUT;
  ev.data.ptr = conn.get();
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
    CloseFd(conn->fd);
    ++errors_;
    ++settled_;
    return true;
  }
  ++inflight_;
  conns_.push_back(std::move(conn));
  return true;
}

void LoadClient::FailConn(Conn* c) {
  if (c->fd < 0) return;
  if (c->state == Conn::State::kConnecting) --inflight_;
  // A connection that had sent its request was settled then.
  if (c->state != Conn::State::kAwait) ++settled_;
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->fd, nullptr);
  CloseFd(c->fd);
  c->fd = -1;
  ++errors_;
}

void LoadClient::OnWritable(Conn* c) {
  if (c->state == Conn::State::kConnecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(c->fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
        err != 0) {
      FailConn(c);
      return;
    }
    --inflight_;
    ++connected_;
    c->state = Conn::State::kSending;
  }
  while (c->out_pos < c->out.size()) {
    const ssize_t n = RetryOnEintr([&] {
      return ::send(c->fd, c->out.data() + c->out_pos,
                    c->out.size() - c->out_pos, MSG_NOSIGNAL);
    });
    if (n > 0) {
      c->out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    FailConn(c);
    return;
  }
  c->out.clear();
  c->state = Conn::State::kAwait;
  ++sent_;
  ++settled_;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.ptr = c;
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c->fd, &ev);
}

void LoadClient::OnReadable(Conn* c) {
  char chunk[4096];
  while (true) {
    const ssize_t n =
        RetryOnEintr([&] { return ::recv(c->fd, chunk, sizeof(chunk), 0); });
    if (n > 0) {
      c->decoder.Feed(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    FailConn(c);  // EOF or error before the response: server hung up.
    return;
  }
  Frame f;
  while (c->decoder.Pop(&f) == FrameDecoder::Next::kFrame) {
    if ((f.type == FrameType::kResponse || f.type == FrameType::kError) &&
        !c->counted_response) {
      c->counted_response = true;
      ++responses_;
    }
  }
}

void LoadClient::Drive(int budget_millis) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(budget_millis);
  epoll_event events[256];
  do {
    while (inflight_ < options_.connect_burst && LaunchOne()) {
    }
    const int n = RetryOnEintr(
        [&] { return ::epoll_wait(epfd_, events, 256, /*timeout=*/10); });
    for (int i = 0; i < n; ++i) {
      Conn* c = static_cast<Conn*>(events[i].data.ptr);
      if (c->fd < 0) continue;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        FailConn(c);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) OnWritable(c);
      if (c->fd >= 0 && (events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
        OnReadable(c);
      }
    }
  } while (std::chrono::steady_clock::now() < deadline);
}

void LoadClient::CloseAll() {
  for (auto& c : conns_) {
    if (c->fd >= 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->fd, nullptr);
      CloseFd(c->fd);
      c->fd = -1;
    }
  }
  conns_.clear();
  if (epfd_ >= 0) {
    CloseFd(epfd_);
    epfd_ = -1;
  }
}

}  // namespace net
}  // namespace tarpit
