#ifndef TARPIT_NET_LOAD_CLIENT_H_
#define TARPIT_NET_LOAD_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/frame.h"

namespace tarpit {
namespace net {

struct LoadClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Connections to open; each sends exactly one request and then holds
  /// the socket open awaiting its (possibly far-future) response --
  /// which is the point: the server parks them all on idle fds.
  size_t connections = 1000;
  /// Cap on connects in flight at once (backlog kindness).
  size_t connect_burst = 512;
  /// Send a kHello (identity = identity_base + index) before the query.
  bool send_hello = false;
  uint64_t identity_base = 1;
  /// The single request each connection sends: kGetKey with
  /// key = key_min + (index % span) over [key_min, key_max].
  int64_t key_min = 0;
  int64_t key_max = 0;
  /// Rotate connections across this many distinct loopback source
  /// addresses (127.0.x.y) so the 4-tuple space, not one address's
  /// ~28k ephemeral ports, bounds how many sockets can exist. 0 uses
  /// the default source for everything.
  size_t source_ips = 0;
};

/// Single-threaded epoll driver that opens `connections` sockets, sends
/// one request on each, and leaves them parked awaiting responses. Used
/// by bench_net_capacity and tools/tarpit_bench_client to demonstrate
/// 100k+ concurrently parked connections.
class LoadClient {
 public:
  explicit LoadClient(LoadClientOptions options);
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  Status Init();
  /// Pumps connects/sends/reads for up to `budget_millis`. Call
  /// repeatedly until done() (all requests sent or failed), then keep
  /// calling to collect responses if desired.
  void Drive(int budget_millis);
  bool done() const { return settled_ == options_.connections; }

  size_t connected() const { return connected_; }
  size_t requests_sent() const { return sent_; }
  size_t responses() const { return responses_; }
  size_t errors() const { return errors_; }

  void CloseAll();

 private:
  struct Conn;

  std::string SourceIpFor(size_t index) const;
  bool LaunchOne();    // Starts the next connect; false when exhausted.
  void FailConn(Conn* c);
  void OnWritable(Conn* c);
  void OnReadable(Conn* c);

  LoadClientOptions options_;
  int epfd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  size_t launched_ = 0;   // Connects started (success or failure).
  size_t settled_ = 0;    // Requests fully sent, or failed unsent.
  size_t inflight_ = 0;   // Connects not yet writable.
  size_t connected_ = 0;
  size_t sent_ = 0;
  size_t responses_ = 0;
  size_t errors_ = 0;
};

}  // namespace net
}  // namespace tarpit

#endif  // TARPIT_NET_LOAD_CLIENT_H_
