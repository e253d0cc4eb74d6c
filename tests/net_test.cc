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

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "http_get.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/load_client.h"
#include "net/stack.h"
#include "obs/metrics.h"
#include "registry_series.h"

namespace tarpit {
namespace net {
namespace {

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

/// Stack options for a test server: popularity with beta=0, so the
/// bounds clamp forces every request to a known stall; {0, 0} serves
/// no delay at all (kNone). The stack's default 4096 rows keep a
/// principal that reads a few keys below the reputation store's 1%
/// breadth threshold, so no test's charges are escalated by accident.
TarpitStackOptions StallOptions(double delay_min, double delay_max) {
  TarpitStackOptions opts;
  opts.database.mode =
      delay_max > 0 ? DelayMode::kAccessPopularity : DelayMode::kNone;
  opts.database.popularity.beta = 0.0;
  opts.database.popularity.scale = delay_min;
  opts.database.popularity.bounds = {delay_min, delay_max};
  return opts;
}

std::unique_ptr<TarpitStack> Serve(const TarpitStackOptions& opts) {
  auto opened = TarpitStack::Open(opts);
  if (!opened.ok()) std::abort();
  return std::move(*opened);
}

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

// The stack wires its own registry and reputation store; a caller that
// hands it either is refused before anything opens.
TEST(NetStackTest, OpenRefusesCallerWiring) {
  obs::MetricRegistry other_registry;
  ReputationStore other_store;
  TarpitStackOptions registry_opts;
  registry_opts.door.metrics = &other_registry;
  TarpitStackOptions store_opts;
  store_opts.server.reputation = &other_store;
  for (const TarpitStackOptions& opts : {registry_opts, store_opts}) {
    auto opened = TarpitStack::Open(opts);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(NetServerTest, EndToEndQueryAndGetKey) {
  TarpitStackOptions opts = StallOptions(0.01, 0.02);
  opts.server.num_event_loops = 2;
  const std::unique_ptr<TarpitStack> h = Serve(opts);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h->server()->port()).ok());
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
  const std::unique_ptr<TarpitStack> h = Serve(StallOptions(0.0, 0.0));
  {
    FrameClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", h->server()->port()).ok());
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
  ASSERT_TRUE(probe.Connect("127.0.0.1", h->server()->port()).ok());
  auto r = probe.GetByKey(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status_code, static_cast<uint8_t>(StatusCode::kOk));
}

TEST(NetServerTest, OversizedFrameClosedWithError) {
  TarpitStackOptions opts = StallOptions(0.0, 0.0);
  opts.server.max_frame_bytes = 4096;
  const std::unique_ptr<TarpitStack> h = Serve(opts);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h->server()->port()).ok());
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
  EXPECT_GE(
      h->metrics().Snapshot().Total("tarpit_net_protocol_errors_total"), 1);
}

TEST(NetServerTest, SlowLorisPartialFrameTimesOut) {
  TarpitStackOptions opts = StallOptions(0.0, 0.0);
  opts.server.read_timeout_seconds = 0.3;
  const std::unique_ptr<TarpitStack> h = Serve(opts);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h->server()->port()).ok());
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
  EXPECT_GE(
      h->metrics().Snapshot().Total("tarpit_net_protocol_errors_total"), 1);
}

TEST(NetServerTest, IdleCompleteFrameConnectionIsNotTimedOut) {
  TarpitStackOptions opts = StallOptions(0.0, 0.0);
  opts.server.read_timeout_seconds = 0.2;
  const std::unique_ptr<TarpitStack> h = Serve(opts);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h->server()->port()).ok());
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
  TarpitStackOptions opts = StallOptions(0.0, 0.0);
  opts.server.max_frame_bytes = 4096;
  opts.server.read_timeout_seconds = 1.0;
  const std::unique_ptr<TarpitStack> h = Serve(opts);

  const int iters = StressIters(60);
  Rng rng(0xF4A57EEDu);
  for (int i = 0; i < iters; ++i) {
    FrameClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", h->server()->port()).ok());
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
  ASSERT_TRUE(probe.Connect("127.0.0.1", h->server()->port()).ok());
  auto r = probe.GetByKey(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status_code, static_cast<uint8_t>(StatusCode::kOk));
}

TEST(NetServerTest, KeepaliveProgressFramesDuringStall) {
  TarpitStackOptions opts = StallOptions(0.7, 0.7);
  opts.server.keepalive_interval_seconds = 0.1;
  const std::unique_ptr<TarpitStack> h = Serve(opts);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h->server()->port()).ok());
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
  EXPECT_GE(SeriesValue(h->metrics(), "tarpit_net_keepalives_total"), 2);
}

TEST(NetServerTest, DelayBeforeServePunishesKnownOffenders) {
  TarpitStackOptions opts = StallOptions(0.0, 0.0);
  opts.server.accept_delay_seconds = 0.4;
  const std::unique_ptr<TarpitStack> h = Serve(opts);

  // Fresh principal: HelloAck is immediate.
  FrameClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", h->server()->port()).ok());
  double start = NowSecondsSteady();
  ASSERT_TRUE(fresh.Hello(/*identity=*/100).ok());
  EXPECT_LT(NowSecondsSteady() - start, 0.3);
  EXPECT_EQ(SeriesValue(h->metrics(), "tarpit_net_accept_delays_total"), 0);

  // Known offender: one external signal doubles the factor (growth
  // 2.0 >= threshold 1.5), so the NEXT hello parks before serving.
  h->reputation().RecordSignal(/*identity=*/666, /*subnet24=*/0,
                               h->clock()->NowSeconds(),
                               ReputationSignal::kExternal);
  FrameClient offender;
  ASSERT_TRUE(offender.Connect("127.0.0.1", h->server()->port()).ok());
  start = NowSecondsSteady();
  ASSERT_TRUE(offender.Hello(/*identity=*/666).ok());
  EXPECT_GE(NowSecondsSteady() - start, 0.4);
  EXPECT_EQ(SeriesValue(h->metrics(), "tarpit_net_accept_delays_total"), 1);
}

TEST(NetServerTest, BackpressureClosesUnreadingClient) {
  TarpitStackOptions opts = StallOptions(0.0, 0.0);
  opts.server.max_write_buffer_bytes = 8 * 1024;
  // Deterministic EAGAIN on loopback.
  opts.server.so_sndbuf_bytes = 4 * 1024;
  opts.rows = 60000;
  const std::unique_ptr<TarpitStack> h = Serve(opts);

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h->server()->port()).ok());
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
  auto errors = [&] {
    return h->metrics().Snapshot().Total("tarpit_net_protocol_errors_total");
  };
  const double start = NowSecondsSteady();
  while (errors() == 0 && NowSecondsSteady() - start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(errors(), 1);
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
  const std::unique_ptr<TarpitStack> h = Serve(StallOptions(0.01, 0.02));

  FrameClient q;
  ASSERT_TRUE(q.Connect("127.0.0.1", h->server()->port()).ok());
  ASSERT_TRUE(q.GetByKey(1).ok());

  const std::string body = HttpGet(h->server()->http_port(), "/metrics");
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("tarpit_net_responses_total"), std::string::npos);
  EXPECT_NE(body.find("tarpit_net_parked_connections"), std::string::npos);

  const std::string hb = HttpGet(h->server()->http_port(), "/healthz");
  EXPECT_NE(hb.find("200 OK"), std::string::npos);
}

TEST(NetServerTest, PipelinedFramesServeInOrder) {
  const std::unique_ptr<TarpitStack> h = Serve(StallOptions(0.01, 0.02));
  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h->server()->port()).ok());
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
// TarpitServer::kMaxPipelinedFrames the connection gets
// ResourceExhausted and is closed (its park cancelled), while every
// other connection is served.
TEST(NetServerTest, PipelinedFrameLimitClosesOnlyTheAbuser) {
  const std::unique_ptr<TarpitStack> h = Serve(StallOptions(0.5, 0.5));

  FrameClient abuser;
  ASSERT_TRUE(abuser.Connect("127.0.0.1", h->server()->port()).ok());
  std::string burst;
  static_assert(TarpitServer::kMaxPipelinedFrames < 100);
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
  EXPECT_EQ(h->metrics().Snapshot().Total("tarpit_net_responses_total"), 0);
  EXPECT_EQ(SeriesValue(h->metrics(), "tarpit_scheduler_cancelled_total"), 1);
  EXPECT_EQ(h->metrics()
                .GetCounter("tarpit_net_protocol_errors_total",
                            {{"reason", "pipeline_overflow"}})
                ->Value(),
            1);

  FrameClient other;
  ASSERT_TRUE(other.Connect("127.0.0.1", h->server()->port()).ok());
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
  const std::unique_ptr<TarpitStack> h = Serve(StallOptions(0.0, 0.0));
  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h->server()->port()).ok());
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
  EXPECT_EQ(
      h->metrics().Snapshot().Total("tarpit_net_protocol_errors_total"), 0);
  EXPECT_EQ(h->metrics().Snapshot().Total("tarpit_net_responses_total"),
            kFrames);
  EXPECT_EQ(h->server()->peak_parked_connections(), 0u);
}

// The principal's /24 is what the server observes, not what the Hello
// claims: a client on a penalised subnet cannot step out of the subnet
// penalty by naming another address.
TEST(NetServerTest, HelloCannotChooseItsOwnSubnet) {
  TarpitStackOptions opts = StallOptions(0.0, 0.0);
  opts.server.accept_delay_seconds = 0.3;
  const std::unique_ptr<TarpitStack> h = Serve(opts);
  ReputationStore& reputation = h->reputation();

  // Another identity on 127.0.0.0/24 earned the subnet two signals:
  // subnet factor 1.5^2 >= threshold, for every identity on it.
  constexpr uint32_t kLoopback24 = 0x7F000000u;   // 127.0.0.0/24
  constexpr uint32_t kClaimedIpv4 = 0x0A090901u;  // 10.9.9.1
  for (int i = 0; i < 2; ++i) {
    reputation.RecordSignal(/*identity=*/31337, kLoopback24,
                            h->clock()->NowSeconds(),
                            ReputationSignal::kExternal);
  }
  const double now = h->clock()->NowSeconds();
  ASSERT_GE(reputation.PenaltyFactor(4242, kLoopback24, now), 1.5);
  ASSERT_LT(reputation.PenaltyFactor(4242, kClaimedIpv4 & 0xFFFFFF00u, now),
            1.5);

  FrameClient spoofer;
  ASSERT_TRUE(spoofer.Connect("127.0.0.1", h->server()->port()).ok());
  const double start = NowSecondsSteady();
  ASSERT_TRUE(spoofer.Hello(/*identity=*/4242, kClaimedIpv4).ok());
  EXPECT_GE(NowSecondsSteady() - start, 0.3);
  EXPECT_EQ(SeriesValue(h->metrics(), "tarpit_net_accept_delays_total"), 1);
}

// Satellite regression: shutdown with ~1k connections parked mid-stall
// must (a) return promptly, (b) leak no fds, (c) never serve a stall
// short, and (d) keep every charge on the books. This pins the
// documented ordering: stop accepting -> drain connections -> only
// then may the scheduler die.
// "name{k=v,...}" for every series in `snap`, sorted.
std::vector<std::string> SeriesInventory(const obs::RegistrySnapshot& snap) {
  std::vector<std::string> out;
  for (const obs::MetricSnapshot& m : snap.metrics) {
    std::string s = m.name + "{";
    for (size_t i = 0; i < m.labels.size(); ++i) {
      if (i > 0) s += ",";
      s += m.labels[i].first + "=" + m.labels[i].second;
    }
    out.push_back(s + "}");
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Polls `series` until it reads `want` (the server counts on its loop
// threads, after the client has seen the effect).
void AwaitSeries(const obs::MetricRegistry& metrics, std::string_view name,
                 const obs::Labels& labels, int64_t want) {
  const double start = NowSecondsSteady();
  while (SeriesValue(metrics, name, labels) != want &&
         NowSecondsSteady() - start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// The registry is the only source of the engine's event counts, so its
// inventory is pinned: the tarpit_server wiring (door, server, and the
// reputation store on one registry) driven through one fixed sequence
// must publish exactly this set of (name, labels), and the counts that
// the sequence fixes by construction. A series that disappears, appears
// or double-counts fails here.
TEST(NetServerTest, RegistryInventory) {
  // Update-rate pricing with c = 0: a never-updated tuple parks for the
  // cap, an updated one is charged exactly 0 (completes inline).
  TarpitStackOptions opts;
  opts.database.mode = DelayMode::kUpdateRate;
  opts.database.update.c = 0.0;
  opts.database.update.bounds = {0.0, 1.0};
  opts.server.num_event_loops = 2;
  const std::unique_ptr<TarpitStack> stack = Serve(opts);
  TarpitServer& server = *stack->server();
  const obs::MetricRegistry& metrics = stack->metrics();

  {
    FrameClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(client.Hello(/*identity=*/11).ok());
    auto parked = client.GetByKey(1);  // Never updated: parks 1 s.
    ASSERT_TRUE(parked.ok()) << parked.status().ToString();
    EXPECT_EQ(parked->status_code, static_cast<uint8_t>(StatusCode::kOk));
    EXPECT_EQ(parked->delay_micros, 1000000u);
    auto update = client.Query("UPDATE items SET v = 9.5 WHERE id = 2");
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    EXPECT_EQ(update->status_code, static_cast<uint8_t>(StatusCode::kOk));
    auto select = client.Query("SELECT * FROM items WHERE id = 2");
    ASSERT_TRUE(select.ok()) << select.status().ToString();
    EXPECT_EQ(select->status_code, static_cast<uint8_t>(StatusCode::kOk));
    EXPECT_EQ(select->row_count, 1u);
    EXPECT_EQ(select->delay_micros, 0u);
    auto zero = client.GetByKey(2);  // Updated: charged 0.
    ASSERT_TRUE(zero.ok()) << zero.status().ToString();
    EXPECT_EQ(zero->status_code, static_cast<uint8_t>(StatusCode::kOk));
    EXPECT_EQ(zero->delay_micros, 0u);
    auto absent = client.GetByKey(99999);  // Not in the table.
    ASSERT_TRUE(absent.ok()) << absent.status().ToString();
    EXPECT_EQ(absent->status_code,
              static_cast<uint8_t>(StatusCode::kNotFound));
    auto bad = client.Query("SELEC * FROM items");
    ASSERT_TRUE(bad.ok()) << bad.status().ToString();
    EXPECT_NE(bad->status_code, static_cast<uint8_t>(StatusCode::kOk));
  }
  {
    FrameClient quitter;  // Hangs up mid-stall.
    ASSERT_TRUE(quitter.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(quitter.Hello(/*identity=*/12).ok());
    ASSERT_TRUE(quitter.SendFrame(FrameType::kGetKey, GetKeyPayload(3)).ok());
    const double start = NowSecondsSteady();
    while (server.parked_connections() == 0 &&
           NowSecondsSteady() - start < 10.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.parked_connections(), 1u);
    quitter.Close();
  }
  AwaitSeries(metrics, "tarpit_net_hangups_mid_stall_total", {}, 1);
  {
    FrameClient fuzzer;  // One malformed frame: a short get-key payload.
    ASSERT_TRUE(fuzzer.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(fuzzer.SendFrame(FrameType::kGetKey, "xx").ok());
    AwaitSeries(metrics, "tarpit_net_protocol_errors_total",
                {{"reason", "malformed"}}, 1);
  }
  server.Stop();
  ASSERT_TRUE(stack->db()->Checkpoint().ok());

  std::vector<std::string> expected = {
      "tarpit_btree_write_restarts_total{table=items}",
      "tarpit_bufferpool_evictions_total{pool=heap,table=items}",
      "tarpit_bufferpool_evictions_total{pool=index,table=items}",
      "tarpit_bufferpool_hits_total{pool=heap,table=items}",
      "tarpit_bufferpool_hits_total{pool=index,table=items}",
      "tarpit_bufferpool_misses_total{pool=heap,table=items}",
      "tarpit_bufferpool_misses_total{pool=index,table=items}",
      "tarpit_db_cancelled_total{}",
      "tarpit_db_requests_total{}",
      "tarpit_delay_charged_ns{policy=update-rate}",
      "tarpit_mvcc_commit_epoch{}",
      "tarpit_mvcc_ddl_fences_total{}",
      "tarpit_mvcc_live_versions{}",
      "tarpit_mvcc_min_active_epoch{}",
      "tarpit_mvcc_reclaim_passes_total{}",
      "tarpit_mvcc_snapshot_pins_total{}",
      "tarpit_mvcc_versions_applied_total{}",
      "tarpit_mvcc_versions_installed_total{}",
      "tarpit_mvcc_versions_reclaimed_total{}",
      "tarpit_net_accept_delays_total{}",
      "tarpit_net_accept_micros{}",
      "tarpit_net_active_connections{}",
      "tarpit_net_bytes_read_total{}",
      "tarpit_net_bytes_written_total{}",
      "tarpit_net_connections_total{kind=frame}",
      "tarpit_net_connections_total{kind=http}",
      "tarpit_net_frames_read_total{}",
      "tarpit_net_hangups_mid_stall_total{}",
      "tarpit_net_http_requests_total{}",
      "tarpit_net_keepalives_total{}",
      "tarpit_net_park_micros{}",
      "tarpit_net_parked_connections_peak{}",
      "tarpit_net_parked_connections{}",
      "tarpit_net_protocol_errors_total{reason=backpressure}",
      "tarpit_net_protocol_errors_total{reason=malformed}",
      "tarpit_net_protocol_errors_total{reason=oversized}",
      "tarpit_net_protocol_errors_total{reason=pipeline_overflow}",
      "tarpit_net_protocol_errors_total{reason=read_timeout}",
      "tarpit_net_read_micros{}",
      "tarpit_net_responses_total{status=error}",
      "tarpit_net_responses_total{status=ok}",
      "tarpit_net_write_micros{}",
      "tarpit_plan_cache_evictions_total{table=items}",
      "tarpit_plan_cache_hits_total{table=items}",
      "tarpit_plan_cache_misses_total{table=items}",
      "tarpit_reputation_escalations_total{door=concurrent}",
      "tarpit_reputation_evictions_total{}",
      "tarpit_reputation_signals_total{source=breadth}",
      "tarpit_reputation_signals_total{source=external}",
      "tarpit_reputation_signals_total{source=rate_anomaly}",
      "tarpit_reputation_tracked_principals{scope=identity}",
      "tarpit_reputation_tracked_principals{scope=subnet24}",
      "tarpit_row_cache_hits_total{}",
      "tarpit_row_cache_misses_total{}",
      "tarpit_scan_batch_rows{table=items}",
      "tarpit_scheduler_cancelled_total{}",
      "tarpit_scheduler_cascades_total{}",
      "tarpit_scheduler_completion_queue_depth{}",
      "tarpit_scheduler_dispatch_lag_micros{}",
      "tarpit_scheduler_driver_wakes_total{}",
      "tarpit_scheduler_fired_total{}",
      "tarpit_scheduler_overflow_promotions_total{}",
      "tarpit_scheduler_park_micros{}",
      "tarpit_scheduler_parked_peak{}",
      "tarpit_scheduler_parked{}",
      "tarpit_scheduler_scheduled_total{}",
      "tarpit_wal_append_bytes_total{table=items}",
      "tarpit_wal_fsync_micros{table=items}",
      "tarpit_wal_group_commit_batch_size{table=items}",
      "tarpit_write_batch_ops{}",
      "tarpit_write_batches_total{}",
  };
  for (const char* kind : {"hits", "misses"}) {
    for (const char* pool : {"heap", "index"}) {
      for (int shard = 0; shard < 16; ++shard) {
        expected.push_back(std::string("tarpit_bufpool_shard_") + kind +
                           "_total{pool=" + pool +
                           ",shard=" + std::to_string(shard) +
                           ",table=items}");
      }
    }
  }
  std::sort(expected.begin(), expected.end());
  const obs::RegistrySnapshot snap = metrics.Snapshot();
  const std::vector<std::string> actual = SeriesInventory(snap);
  if (actual != expected) {
    std::string listing;
    for (const std::string& s : actual) listing += "      \"" + s + "\",\n";
    ADD_FAILURE() << "registry inventory changed; it is now:\n" << listing;
  }

  auto value = [&](std::string_view name, const obs::Labels& labels = {}) {
    return SeriesValue(metrics, name, labels);
  };
  EXPECT_EQ(value("tarpit_net_connections_total", {{"kind", "frame"}}), 3);
  EXPECT_EQ(value("tarpit_net_connections_total", {{"kind", "http"}}), 0);
  EXPECT_EQ(value("tarpit_net_responses_total", {{"status", "ok"}}), 4);
  EXPECT_EQ(value("tarpit_net_responses_total", {{"status", "error"}}), 2);
  EXPECT_EQ(value("tarpit_net_hangups_mid_stall_total"), 1);
  EXPECT_EQ(value("tarpit_net_accept_delays_total"), 0);
  EXPECT_EQ(value("tarpit_net_keepalives_total"), 0);
  EXPECT_EQ(
      value("tarpit_net_protocol_errors_total", {{"reason", "malformed"}}), 1);
  for (const char* reason :
       {"oversized", "read_timeout", "pipeline_overflow", "backpressure"}) {
    EXPECT_EQ(value("tarpit_net_protocol_errors_total", {{"reason", reason}}),
              0)
        << reason;
  }
  EXPECT_EQ(value("tarpit_reputation_signals_total", {{"source", "external"}}),
            1);
  const int64_t scheduled = value("tarpit_scheduler_scheduled_total");
  const int64_t fired = value("tarpit_scheduler_fired_total");
  const int64_t cancelled = value("tarpit_scheduler_cancelled_total");
  EXPECT_GT(scheduled, 0);
  EXPECT_EQ(scheduled, fired + cancelled);
  EXPECT_EQ(cancelled, 1);  // The hang-up.
  // Four gets: three found a row (the parked one, the zero-charge one
  // and the hang-up's) and one went to storage for an absent key; each
  // is exactly one row-cache hit or miss.
  EXPECT_EQ(value("tarpit_row_cache_hits_total") +
                value("tarpit_row_cache_misses_total"),
            4);
  EXPECT_EQ(value("tarpit_mvcc_versions_installed_total"), 1);
  EXPECT_EQ(value("tarpit_mvcc_versions_reclaimed_total"),
            value("tarpit_mvcc_versions_installed_total"));
}

TEST(NetShutdownTest, ShutdownWithParkedConnectionsDrainsClean) {
  const size_t kConns = 1000;
  const size_t fds_before = OpenFdCount();
  double charged = 0.0;
  uint64_t charges = 0;
  {
    TarpitStackOptions opts = StallOptions(30.0, 30.0);
    opts.server.num_event_loops = 2;
    // Parks outlive the test.
    const std::unique_ptr<TarpitStack> h = Serve(opts);

    LoadClientOptions lopts;
    lopts.host = "127.0.0.1";
    lopts.port = h->server()->port();
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
    while (h->server()->parked_connections() < kConns &&
           NowSecondsSteady() - park_start < 30.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_EQ(h->server()->parked_connections(), kConns);

    const double stop_start = NowSecondsSteady();
    h->server()->Stop();
    // (a) Prompt: cancellation, not stall expiry (stalls are 30s).
    EXPECT_LT(NowSecondsSteady() - stop_start, 10.0);
    // (c) No stall served short: zero responses went out.
    EXPECT_EQ(h->metrics().Snapshot().Total("tarpit_net_responses_total"), 0);
    EXPECT_EQ(h->server()->parked_connections(), 0u);
    EXPECT_EQ(h->server()->active_connections(), 0u);
    EXPECT_EQ(h->server()->peak_parked_connections(), kConns);
    // (d) Charges kept: every cancelled stall left its 30s on the
    // ledger (keep-the-charge is what makes hanging up pointless).
    const auto m = h->db()->Metrics();
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
