#ifndef TARPIT_PERFBENCH_WIRE_H_
#define TARPIT_PERFBENCH_WIRE_H_

// The load generator's wire side: one thread multiplexes a few
// loopback connections over epoll, each bound to its own source
// address (127.0.k.1) and Hello'd as its own principal with ipv4 = 0,
// so the server takes the /24 from the socket.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "harness.h"
#include "net/frame.h"

namespace perfbench {

enum class OpKind : uint8_t { kGet, kSelect, kUpdate };

struct Op {
  OpKind kind = OpKind::kGet;
  int64_t key = 0;
};

/// Statement texts for the SQL ops (pk SELECT, pk UPDATE of v).
std::string SelectSql(int64_t key);
std::string UpdateSql(int64_t key, double value);

/// Values the benchmark writes: -(n + 0.5) for the n-th write, which no
/// loaded row (key * 0.5 > 0) can hold. Notes the write in `checker`.
double NextWriteValue(OutputChecker* checker, int64_t key);

/// One op's timeline (CLOCK_MONOTONIC ns) and whether every output
/// check passed.
struct OpOutcome {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool done = false;
  bool ok = false;
};

class WireClient {
 public:
  /// Connects `conns` connections to 127.0.0.1:`port`, connection k
  /// (1-based) from 127.0.k.1 as identity `identity_base + k`. Every
  /// response is validated against `checker` (not owned), which also
  /// records the values UPDATE ops write.
  static tarpit::Result<std::unique_ptr<WireClient>> Connect(
      uint16_t port, int conns, uint64_t identity_base,
      OutputChecker* checker);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Open loop: op i is due at start_ns + i * period_ns and goes out on
  /// connection i % conns (see PickConn). Returns once
  /// every op completed, or `drain_ns` after the last due time (ops
  /// still outstanding then stay !done). Responses must carry a zero
  /// charge.
  void RunOpenLoop(const std::vector<Op>& ops, int64_t start_ns,
                   int64_t period_ns, int64_t drain_ns,
                   std::vector<OpOutcome>* out);

  /// Closed loop: each connection keeps one request in flight, cycling
  /// through `ops`, until `seconds` pass. Returns completions per
  /// second; failed checks and ops left unanswered add to *failed.
  double RunClosedLoop(const std::vector<Op>& ops, double seconds,
                       uint64_t* failed);

  Pacer& pacer() { return pacer_; }

 private:
  struct Conn {
    int fd = -1;
    tarpit::net::FrameDecoder decoder{1 << 20};
    /// Indices of requests awaiting a response, oldest first.
    std::deque<uint32_t> inflight;
  };
  struct Pending {
    Op op;
    int64_t sent_ns = 0;
  };

  /// Requests one connection may have in flight. The server closes a
  /// connection that pipelines more than
  /// TarpitServerOptions::max_pipelined_frames (64) behind a request.
  static constexpr size_t kMaxInflight = 32;

  explicit WireClient(OutputChecker* checker);
  /// Connection i % conns, unless it holds kMaxInflight requests: then
  /// the least-loaded one, or, when every one is full, the first to
  /// drop below the bound. Waiting makes the op late, and its latency
  /// still counts from its due time.
  size_t PickConn(size_t i);
  /// Waits up to max_wait_ns (0 = poll) and reads every ready socket.
  void Poll(int64_t max_wait_ns);
  void ReadConn(size_t conn_index);
  void Send(size_t conn_index, uint32_t slot, const Op& op);
  void Complete(size_t conn_index, uint32_t slot,
                const tarpit::net::Frame& frame, int64_t now_ns);
  bool Check(const Op& op, const tarpit::net::Frame& frame) const;

  int epfd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  OutputChecker* checker_;
  Pacer pacer_;
  /// Per-slot request state and outcomes of the current run.
  std::vector<Pending> pending_;
  std::vector<OpOutcome>* outcomes_ = nullptr;
  size_t outstanding_ = 0;
  // Closed-loop state.
  bool closed_loop_ = false;
  const std::vector<Op>* closed_ops_ = nullptr;
  size_t closed_next_ = 0;
  uint64_t closed_done_ = 0;
  uint64_t closed_failed_ = 0;
  int64_t closed_end_ns_ = 0;
};

}  // namespace perfbench

#endif  // TARPIT_PERFBENCH_WIRE_H_
