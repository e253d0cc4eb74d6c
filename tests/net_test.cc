// Network front-end suite: end-to-end frame protocol over real
// sockets, the framing robustness matrix (truncated frames, oversized
// length prefixes rejected without an allocation, slow-loris read
// timeout, seeded malformed-frame fuzz), keep-alive progress frames,
// delay-before-serve (keyed on the observed /24, whatever the Hello
// claims), write backpressure, the pipelined-frame limit, a 10k-frame
// zero-charge pipeline answered inline, and the shutdown-ordering
// regression (1k parked connections: no leaked fds, no stall served
// short, charges kept).
//
// Labeled `concurrency`: every test runs the multi-threaded server
// (acceptor + reactors + scheduler driver), so the TSan job
// exercises the full cross-thread handoff. TARPIT_STRESS_ITERS caps
// the fuzz iterations under sanitizer slowdown.

#include <dirent.h>
#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "core/concurrent_db.h"
#include "defense/reputation.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/load_client.h"
#include "net/server.h"
#include "obs/metrics.h"

namespace tarpit {
namespace net {
namespace {

namespace fs = std::filesystem;

int StressIters(int default_iters) {
  if (const char* env = std::getenv("TARPIT_STRESS_ITERS")) {
    const int v = std::atoi(env);
    if (v > 0) return std::min(v, default_iters);
  }
  return default_iters;
}

size_t OpenFdCount() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

double NowSecondsSteady() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One served database + server on real sockets. Delay shape is
/// popularity with beta=0 so the bounds clamp forces every request to
/// a known stall.
struct ServerHarness {
  explicit ServerHarness(double delay_min, double delay_max,
                         TarpitServerOptions sopts = {}, int rows = 64) {
    dir = fs::temp_directory_path() /
          ("tarpit_net_test_" +
           std::to_string(
               std::chrono::steady_clock::now().time_since_epoch().count()));
    fs::create_directories(dir);
    ProtectedDatabaseOptions dopts;
    dopts.mode = delay_max > 0 ? DelayMode::kAccessPopularity
                               : DelayMode::kNone;
    dopts.popularity.beta = 0.0;
    dopts.popularity.scale = delay_min;
    dopts.popularity.bounds = {delay_min, delay_max};
    ConcurrentDatabaseOptions copts;
    copts.serve_delays = true;
    copts.async_stalls = true;
    copts.metrics = &metrics;
    copts.reputation = sopts.reputation;
    auto opened = ConcurrentProtectedDatabase::Open(
        dir.string(), "items", &clock, dopts, copts);
    if (!opened.ok()) std::abort();
    db = std::move(*opened);
    if (!db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
             .ok()) {
      std::abort();
    }
    for (int i = 1; i <= rows; ++i) {
      if (!db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(i * 0.5)})
               .ok()) {
        std::abort();
      }
    }
    sopts.metrics = &metrics;
    server = std::make_unique<TarpitServer>(db.get(), &clock, sopts);
    Status s = server->Start();
    if (!s.ok()) std::abort();
  }

  ~ServerHarness() {
    server->Stop();
    db.reset();
    fs::remove_all(dir);
  }

  fs::path dir;
  RealClock clock;
  obs::MetricRegistry metrics;
  std::unique_ptr<ConcurrentProtectedDatabase> db;
  std::unique_ptr<TarpitServer> server;
};

TEST(NetFrameTest, RoundTripAndDecoder) {
  std::string wire;
  AppendFrame(&wire, FrameType::kQuery, "SELECT 1");
  AppendFrame(&wire, FrameType::kGetKey, GetKeyPayload(42));
  FrameDecoder dec(1 << 20);
  // Feed byte-by-byte: the decoder must reassemble across arbitrary
  // fragmentation.
  for (char c : wire) dec.Feed(&c, 1);
  Frame f;
  ASSERT_EQ(dec.Pop(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.type, FrameType::kQuery);
  EXPECT_EQ(f.payload, "SELECT 1");
  ASSERT_EQ(dec.Pop(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.type, FrameType::kGetKey);
  int64_t key = 0;
  ASSERT_TRUE(ParseGetKey(f.payload, &key));
  EXPECT_EQ(key, 42);
  EXPECT_EQ(dec.Pop(&f), FrameDecoder::Next::kNeedMore);
  EXPECT_FALSE(dec.has_partial());
}

TEST(NetFrameTest, OversizedLengthRejectedBeforeAllocation) {
  // A header claiming a huge payload must poison the decoder from the
  // 5 header bytes alone -- no payload ever arrives, no buffer is
  // sized from the attacker's length.
  FrameDecoder dec(1024);
  std::string header;
  AppendU32(&header, 1u << 30);
  header.push_back(static_cast<char>(FrameType::kQuery));
  dec.Feed(header.data(), header.size());
  Frame f;
  std::string err;
  EXPECT_EQ(dec.Pop(&f, &err), FrameDecoder::Next::kError);
  EXPECT_TRUE(dec.poisoned());
  // Poisoned stays poisoned: the stream is unsynchronized.
  dec.Feed(header.data(), header.size());
  EXPECT_EQ(dec.Pop(&f), FrameDecoder::Next::kError);
}

TEST(NetServerTest, EndToEndQueryAndGetKey) {
  TarpitServerOptions sopts;
  sopts.num_event_loops = 2;
  ServerHarness h(0.01, 0.02, sopts);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  ASSERT_TRUE(client.Hello(/*identity=*/7).ok());

  auto get = client.GetByKey(3);
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  EXPECT_EQ(get->status_code, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_EQ(get->row_count, 1u);
  EXPECT_GE(get->delay_micros, 10000u);  // Clamped to >= 10ms.
  EXPECT_FALSE(get->text.empty());

  auto sql = client.Query("SELECT * FROM items WHERE id = 5");
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(sql->status_code, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_EQ(sql->row_count, 1u);

  // Missing key: an engine error surfaces as a kError frame, carried
  // through as data (the connection survives).
  auto miss = client.GetByKey(99999);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->status_code, static_cast<uint8_t>(StatusCode::kNotFound));
  auto again = client.GetByKey(4);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->status_code, static_cast<uint8_t>(StatusCode::kOk));
}

TEST(NetServerTest, TruncatedFrameThenHangupIsClean) {
  ServerHarness h(0.0, 0.0);
  {
    FrameClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
    // Header promises 100 bytes; send 10 and vanish.
    std::string partial;
    AppendU32(&partial, 100);
    partial.push_back(static_cast<char>(FrameType::kQuery));
    partial.append(10, 'x');
    ASSERT_TRUE(client.SendRaw(partial).ok());
    client.Close();
  }
  // The server must shrug it off: a fresh connection still serves.
  FrameClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", h.server->port()).ok());
  auto r = probe.GetByKey(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status_code, static_cast<uint8_t>(StatusCode::kOk));
}

TEST(NetServerTest, OversizedFrameClosedWithError) {
  TarpitServerOptions sopts;
  sopts.max_frame_bytes = 4096;
  ServerHarness h(0.0, 0.0, sopts);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  std::string header;
  AppendU32(&header, 1u << 31);  // 2 GiB claim, zero bytes sent.
  header.push_back(static_cast<char>(FrameType::kQuery));
  ASSERT_TRUE(client.SendRaw(header).ok());
  // Server answers with kError and closes; either the error frame or
  // the close must arrive promptly.
  auto f = client.RecvFrame(5.0);
  if (f.ok()) {
    EXPECT_EQ(f->type, FrameType::kError);
    WireResponse err;
    ASSERT_TRUE(ParseError(f->payload, &err));
    EXPECT_EQ(err.status_code,
              static_cast<uint8_t>(StatusCode::kInvalidArgument));
    // Next read sees the close.
    auto eof = client.RecvFrame(5.0);
    EXPECT_FALSE(eof.ok());
  }
  EXPECT_GE(h.server->protocol_errors(), 1u);
}

TEST(NetServerTest, SlowLorisPartialFrameTimesOut) {
  TarpitServerOptions sopts;
  sopts.read_timeout_seconds = 0.3;
  ServerHarness h(0.0, 0.0, sopts);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  // Drip 3 header bytes and stall forever.
  ASSERT_TRUE(client.SendRaw(std::string("\x08\x00\x00", 3)).ok());
  const double start = NowSecondsSteady();
  // The server must cut us off; a compliant idle connection (no
  // partial frame) would NOT be timed out.
  while (NowSecondsSteady() - start < 5.0) {
    auto f = client.RecvFrame(0.5);
    if (!f.ok() && f.status().code() != StatusCode::kIOError) break;
    if (f.ok() && f->type == FrameType::kError) continue;  // Then EOF.
  }
  EXPECT_LT(NowSecondsSteady() - start, 5.0);
  EXPECT_GE(h.server->protocol_errors(), 1u);
}

TEST(NetServerTest, IdleCompleteFrameConnectionIsNotTimedOut) {
  TarpitServerOptions sopts;
  sopts.read_timeout_seconds = 0.2;
  ServerHarness h(0.0, 0.0, sopts);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  auto r = client.GetByKey(1);
  ASSERT_TRUE(r.ok());
  // Sit idle well past the read timeout with NO partial frame: parked
  // patience is the product; idleness must not be punished.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  auto r2 = client.GetByKey(2);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->status_code, static_cast<uint8_t>(StatusCode::kOk));
}

TEST(NetServerTest, MalformedFrameFuzzSeeded) {
  TarpitServerOptions sopts;
  sopts.max_frame_bytes = 4096;
  sopts.read_timeout_seconds = 1.0;
  ServerHarness h(0.0, 0.0, sopts);

  const int iters = StressIters(60);
  Rng rng(0xF4A57EEDu);
  for (int i = 0; i < iters; ++i) {
    FrameClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
    std::string garbage;
    const int len = 1 + static_cast<int>(rng.Next() % 64);
    for (int b = 0; b < len; ++b) {
      garbage.push_back(static_cast<char>(rng.Next() & 0xFF));
    }
    // Half the time, lead with a plausible header so the fuzz reaches
    // the payload path, not just the type switch.
    if (rng.Next() % 2 == 0) {
      std::string framed;
      AppendU32(&framed, static_cast<uint32_t>(garbage.size()));
      framed.push_back(static_cast<char>(rng.Next() & 0xFF));
      framed += garbage;
      garbage = std::move(framed);
    }
    (void)client.SendRaw(garbage);
    // Random hangup vs. lingering.
    if (rng.Next() % 2 == 0) client.Close();
  }
  // Still alive and serving after the barrage.
  FrameClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", h.server->port()).ok());
  auto r = probe.GetByKey(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status_code, static_cast<uint8_t>(StatusCode::kOk));
}

TEST(NetServerTest, KeepaliveProgressFramesDuringStall) {
  TarpitServerOptions sopts;
  sopts.keepalive_interval_seconds = 0.1;
  ServerHarness h(0.7, 0.7, sopts);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  ASSERT_TRUE(client.SendFrame(FrameType::kGetKey, GetKeyPayload(1)).ok());
  // The stall is 0.7s with keep-alives every 0.1s: progress frames
  // must arrive BEFORE the response, proving liveness mid-park.
  int progress = 0;
  while (true) {
    auto f = client.RecvFrame(5.0);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    if (f->type == FrameType::kProgress) {
      ++progress;
      continue;
    }
    ASSERT_EQ(f->type, FrameType::kResponse);
    break;
  }
  EXPECT_GE(progress, 2);
  EXPECT_GE(h.server->keepalives_sent(), 2u);
}

TEST(NetServerTest, DelayBeforeServePunishesKnownOffenders) {
  ReputationStore reputation;
  TarpitServerOptions sopts;
  sopts.reputation = &reputation;
  sopts.accept_delay_seconds = 0.4;
  sopts.accept_delay_threshold = 1.5;
  ServerHarness h(0.0, 0.0, sopts);

  // Fresh principal: HelloAck is immediate.
  FrameClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", h.server->port()).ok());
  double start = NowSecondsSteady();
  ASSERT_TRUE(fresh.Hello(/*identity=*/100).ok());
  EXPECT_LT(NowSecondsSteady() - start, 0.3);
  EXPECT_EQ(h.server->accept_delays(), 0u);

  // Known offender: one external signal doubles the factor (growth
  // 2.0 >= threshold 1.5), so the NEXT hello parks before serving.
  reputation.RecordSignal(/*identity=*/666, /*subnet24=*/0,
                          h.clock.NowSeconds(), ReputationSignal::kExternal);
  FrameClient offender;
  ASSERT_TRUE(offender.Connect("127.0.0.1", h.server->port()).ok());
  start = NowSecondsSteady();
  ASSERT_TRUE(offender.Hello(/*identity=*/666).ok());
  EXPECT_GE(NowSecondsSteady() - start, 0.4);
  EXPECT_EQ(h.server->accept_delays(), 1u);
}

TEST(NetServerTest, BackpressureClosesUnreadingClient) {
  TarpitServerOptions sopts;
  sopts.max_write_buffer_bytes = 8 * 1024;
  sopts.so_sndbuf_bytes = 4 * 1024;  // Deterministic EAGAIN on loopback.
  ServerHarness h(0.0, 0.0, sopts, /*rows=*/60000);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  // Pin our receive window small too, so the kernel cannot absorb the
  // response on our behalf.
  const int rcvbuf = 4 * 1024;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  // A full-table scan serializes to ~1MB -- far past the 8KB
  // write-buffer cap once the kernel buffers fill. We never read.
  ASSERT_TRUE(
      client.SendFrame(FrameType::kQuery, "SELECT * FROM items").ok());
  // Never read while the server is producing: the kernel buffers fill,
  // the server's write buffer crosses the cap, and it must give up.
  const double start = NowSecondsSteady();
  while (h.server->protocol_errors() == 0 &&
         NowSecondsSteady() - start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(h.server->protocol_errors(), 1u);
  // The close is observable client-side too: drain what the kernel
  // already buffered and hit the FIN (or RST).
  bool closed = false;
  char sink[64 * 1024];
  while (NowSecondsSteady() - start < 15.0) {
    pollfd pfd{client.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 1000) <= 0) continue;
    const ssize_t n = ::recv(client.fd(), sink, sizeof(sink), 0);
    if (n <= 0) {
      closed = true;
      break;
    }
  }
  EXPECT_TRUE(closed);
}

TEST(NetServerTest, HttpMetricsEndpoint) {
  TarpitServerOptions sopts;
  sopts.enable_http = true;
  ServerHarness h(0.01, 0.02, sopts);

  FrameClient q;
  ASSERT_TRUE(q.Connect("127.0.0.1", h.server->port()).ok());
  ASSERT_TRUE(q.GetByKey(1).ok());

  FrameClient http;
  ASSERT_TRUE(http.Connect("127.0.0.1", h.server->http_port()).ok());
  ASSERT_TRUE(
      http.SendRaw("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").ok());
  std::string body;
  char chunk[4096];
  while (true) {
    pollfd pfd{http.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) break;
    const ssize_t n = ::recv(http.fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    body.append(chunk, static_cast<size_t>(n));
  }
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("tarpit_net_responses_total"), std::string::npos);
  EXPECT_NE(body.find("tarpit_net_parked_connections"), std::string::npos);

  FrameClient health;
  ASSERT_TRUE(health.Connect("127.0.0.1", h.server->http_port()).ok());
  ASSERT_TRUE(health.SendRaw("GET /healthz HTTP/1.1\r\n\r\n").ok());
  std::string hb;
  while (true) {
    pollfd pfd{health.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) break;
    const ssize_t n = ::recv(health.fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    hb.append(chunk, static_cast<size_t>(n));
  }
  EXPECT_NE(hb.find("200 OK"), std::string::npos);
}

TEST(NetServerTest, PipelinedFramesServeInOrder) {
  ServerHarness h(0.01, 0.02);
  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  // Fire 8 requests back-to-back before reading anything: the server
  // parks them one at a time (engine serializes per connection) and
  // answers in order.
  std::string burst;
  for (int k = 1; k <= 8; ++k) {
    AppendFrame(&burst, FrameType::kGetKey, GetKeyPayload(k));
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());
  for (int k = 1; k <= 8; ++k) {
    auto f = client.RecvFrame(10.0);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    if (f->type == FrameType::kProgress) {
      --k;
      continue;
    }
    ASSERT_EQ(f->type, FrameType::kResponse);
    WireResponse r;
    ASSERT_TRUE(ParseResponse(f->payload, &r));
    EXPECT_EQ(r.status_code, static_cast<uint8_t>(StatusCode::kOk));
  }
}

/// True when one serialized row in `text` starts with key `k`.
bool HasRowWithKey(const std::string& text, int64_t k) {
  const std::string row = std::to_string(k) + "\t";
  for (size_t at = text.find(row); at != std::string::npos;
       at = text.find(row, at + 1)) {
    if (at == 0 || text[at - 1] == '\n') return true;
  }
  return false;
}

// Frames pipelined behind a PARKED request are bounded: past
// max_pipelined_frames the connection gets ResourceExhausted and is
// closed (its park cancelled), while every other connection is served.
TEST(NetServerTest, PipelinedFrameLimitClosesOnlyTheAbuser) {
  TarpitServerOptions sopts;
  sopts.max_pipelined_frames = 64;
  ServerHarness h(0.5, 0.5, sopts);

  FrameClient abuser;
  ASSERT_TRUE(abuser.Connect("127.0.0.1", h.server->port()).ok());
  std::string burst;
  for (int k = 0; k <= 100; ++k) {  // 1 parks, 100 pipeline behind it.
    AppendFrame(&burst, FrameType::kGetKey, GetKeyPayload(1 + k % 64));
  }
  ASSERT_TRUE(abuser.SendRaw(burst).ok());
  auto f = abuser.RecvFrame(10.0);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_EQ(f->type, FrameType::kError);
  WireResponse err;
  ASSERT_TRUE(ParseError(f->payload, &err));
  EXPECT_EQ(err.status_code,
            static_cast<uint8_t>(StatusCode::kResourceExhausted));
  auto eof = abuser.RecvFrame(10.0);
  EXPECT_FALSE(eof.ok());  // Closed: no response follows the error.
  EXPECT_EQ(h.server->responses_sent(), 0u);
  EXPECT_EQ(h.db->delay_scheduler()->cancelled_total(), 1u);
  EXPECT_EQ(h.metrics
                .GetCounter("tarpit_net_protocol_errors_total",
                            {{"reason", "pipeline_overflow"}})
                ->Value(),
            1);

  FrameClient other;
  ASSERT_TRUE(other.Connect("127.0.0.1", h.server->port()).ok());
  auto r = other.GetByKey(2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->status_code, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_GE(r->delay_micros, 500'000u);
}

// Zero-charge requests complete inline on the loop thread. A long
// pipeline of them must be answered iteratively, every response in
// order: a completion that re-entered frame processing would nest one
// stack level per queued frame and overflow here.
TEST(NetServerTest, ZeroChargeBurstOf10kFramesServesInOrder) {
  ServerHarness h(0.0, 0.0);
  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  constexpr int kFrames = 10'000;
  std::string burst;
  for (int i = 0; i < kFrames; ++i) {
    AppendFrame(&burst, FrameType::kGetKey, GetKeyPayload(1 + i % 64));
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());
  for (int i = 0; i < kFrames; ++i) {
    auto f = client.RecvFrame(30.0);
    ASSERT_TRUE(f.ok()) << "frame " << i << ": " << f.status().ToString();
    ASSERT_EQ(f->type, FrameType::kResponse) << "frame " << i;
    WireResponse r;
    ASSERT_TRUE(ParseResponse(f->payload, &r));
    ASSERT_EQ(r.status_code, static_cast<uint8_t>(StatusCode::kOk));
    ASSERT_EQ(r.row_count, 1u);
    ASSERT_TRUE(HasRowWithKey(r.text, 1 + i % 64))
        << "frame " << i << ": " << r.text;
  }
  EXPECT_EQ(h.server->protocol_errors(), 0u);
  EXPECT_EQ(h.server->responses_sent(), static_cast<uint64_t>(kFrames));
  EXPECT_EQ(h.server->peak_parked_connections(), 0u);
}

// The principal's /24 is what the server observes, not what the Hello
// claims: a client on a penalised subnet cannot step out of the subnet
// penalty by naming another address.
TEST(NetServerTest, HelloCannotChooseItsOwnSubnet) {
  ReputationStore reputation;
  TarpitServerOptions sopts;
  sopts.reputation = &reputation;
  sopts.accept_delay_seconds = 0.3;
  sopts.accept_delay_threshold = 1.5;
  ServerHarness h(0.0, 0.0, sopts);

  // Another identity on 127.0.0.0/24 earned the subnet two signals:
  // subnet factor 1.5^2 >= threshold, for every identity on it.
  constexpr uint32_t kLoopback24 = 0x7F000000u;   // 127.0.0.0/24
  constexpr uint32_t kClaimedIpv4 = 0x0A090901u;  // 10.9.9.1
  for (int i = 0; i < 2; ++i) {
    reputation.RecordSignal(/*identity=*/31337, kLoopback24,
                            h.clock.NowSeconds(),
                            ReputationSignal::kExternal);
  }
  const double now = h.clock.NowSeconds();
  ASSERT_GE(reputation.PenaltyFactor(4242, kLoopback24, now), 1.5);
  ASSERT_LT(reputation.PenaltyFactor(4242, kClaimedIpv4 & 0xFFFFFF00u, now),
            1.5);

  FrameClient spoofer;
  ASSERT_TRUE(spoofer.Connect("127.0.0.1", h.server->port()).ok());
  const double start = NowSecondsSteady();
  ASSERT_TRUE(spoofer.Hello(/*identity=*/4242, kClaimedIpv4).ok());
  EXPECT_GE(NowSecondsSteady() - start, 0.3);
  EXPECT_EQ(h.server->accept_delays(), 1u);
}

// Satellite regression: shutdown with ~1k connections parked mid-stall
// must (a) return promptly, (b) leak no fds, (c) never serve a stall
// short, and (d) keep every charge on the books. This pins the
// documented ordering: stop accepting -> drain connections -> only
// then may the scheduler die.
TEST(NetShutdownTest, ShutdownWithParkedConnectionsDrainsClean) {
  const size_t kConns = 1000;
  const size_t fds_before = OpenFdCount();
  double charged = 0.0;
  uint64_t charges = 0;
  {
    TarpitServerOptions sopts;
    sopts.num_event_loops = 2;
    ServerHarness h(30.0, 30.0, sopts);  // Parks outlive the test.

    LoadClientOptions lopts;
    lopts.host = "127.0.0.1";
    lopts.port = h.server->port();
    lopts.connections = kConns;
    lopts.key_min = 1;
    lopts.key_max = 64;
    LoadClient lc(lopts);
    ASSERT_TRUE(lc.Init().ok());
    const double ramp_start = NowSecondsSteady();
    while (!lc.done() && NowSecondsSteady() - ramp_start < 60.0) {
      lc.Drive(100);
    }
    ASSERT_EQ(lc.requests_sent(), kConns);
    // Let the engine park everything.
    const double park_start = NowSecondsSteady();
    while (h.server->parked_connections() < kConns &&
           NowSecondsSteady() - park_start < 30.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_EQ(h.server->parked_connections(), kConns);

    const double stop_start = NowSecondsSteady();
    h.server->Stop();
    // (a) Prompt: cancellation, not stall expiry (stalls are 30s).
    EXPECT_LT(NowSecondsSteady() - stop_start, 10.0);
    // (c) No stall served short: zero responses went out.
    EXPECT_EQ(h.server->responses_sent(), 0u);
    EXPECT_EQ(h.server->parked_connections(), 0u);
    EXPECT_EQ(h.server->active_connections(), 0u);
    EXPECT_EQ(h.server->peak_parked_connections(), kConns);
    // (d) Charges kept: every cancelled stall left its 30s on the
    // ledger (keep-the-charge is what makes hanging up pointless).
    const auto m = h.db->Metrics();
    charged = m.total_delay_seconds;
    charges = m.delays_charged;
    lc.CloseAll();
  }
  EXPECT_GE(charges, kConns);
  EXPECT_GE(charged, 30.0 * kConns * 0.999);
  // (b) No fd leak: everything (server sockets, epoll fds, eventfds,
  // client sockets, database files) is back where we started.
  const size_t fds_after = OpenFdCount();
  EXPECT_LE(fds_after, fds_before + 4);
}

}  // namespace
}  // namespace net
}  // namespace tarpit
