// Keep-the-charge over the wire: a client that connects, triggers a
// long stall, and hangs up mid-park must (1) leave the full delay
// charge on the ledger, (2) earn a reputation penalty for its
// principal, and (3) find its NEXT connection delay-before-served with
// the escalated factor. Disconnect-and-retry gains nothing -- the PR 2
// cancellation semantics, proven end-to-end through real sockets,
// EPOLLRDHUP detection, CancelSession, and the ReputationStore.
//
// Labeled `adversary` (it is an attack regression) and `concurrency`
// (acceptor + reactors + scheduler driver under TSan).

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/concurrent_db.h"
#include "defense/identity.h"
#include "defense/reputation.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/metrics.h"

namespace tarpit {
namespace net {
namespace {

namespace fs = std::filesystem;

double NowSecondsSteady() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TEST(NetChargeTest, HangupMidStallKeepsChargeAndEscalatesReconnect) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("tarpit_net_charge_" +
       std::to_string(
           std::chrono::steady_clock::now().time_since_epoch().count()));
  fs::create_directories(dir);
  RealClock clock;
  obs::MetricRegistry metrics;
  ReputationStore reputation;

  // Every read stalls exactly 3s -- long enough that the hangup
  // beats the expiry by a wide margin.
  ProtectedDatabaseOptions dopts;
  dopts.mode = DelayMode::kAccessPopularity;
  dopts.popularity.beta = 0.0;
  dopts.popularity.scale = 3.0;
  dopts.popularity.bounds = {3.0, 3.0};
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = true;
  copts.async_stalls = true;
  copts.metrics = &metrics;
  copts.reputation = &reputation;
  auto opened = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                  &clock, dopts, copts);
  ASSERT_TRUE(opened.ok());
  auto db = std::move(*opened);
  ASSERT_TRUE(
      db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
          .ok());
  // A LARGE universe matters: with a tiny table, the attacker's single
  // key access covers enough of the key space to fire the store's
  // breadth-stride signals too, compounding the factor to ~2^6 and
  // stretching the escalated stall into minutes. At 4096 rows one
  // access is 0.02% coverage -- the measured factor isolates exactly
  // the hangup signal this test is about.
  for (int i = 1; i <= 4096; ++i) {
    ASSERT_TRUE(
        db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(i * 0.5)})
            .ok());
  }

  TarpitServerOptions sopts;
  sopts.keepalive_interval_seconds = 0.1;
  sopts.accept_delay_seconds = 0.5;
  sopts.accept_delay_threshold = 1.5;
  sopts.reputation = &reputation;
  sopts.metrics = &metrics;
  TarpitServer server(db.get(), &clock, sopts);
  ASSERT_TRUE(server.Start().ok());

  const uint64_t kIdentity = 0xBADF00Du;
  const double before_charge = db->Metrics().total_delay_seconds;

  // --- Connect, stall, hang up mid-park. ----------------------------
  {
    FrameClient attacker;
    ASSERT_TRUE(attacker.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(attacker.Hello(kIdentity).ok());
    ASSERT_TRUE(
        attacker.SendFrame(FrameType::kGetKey, GetKeyPayload(1)).ok());
    // Wait for the first kProgress keep-alive: positive proof the
    // request is parked (ADMIT and COMPUTE_DELAY are behind us, the
    // charge is on the books) before we yank the cable.
    auto f = attacker.RecvFrame(10.0);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ASSERT_EQ(f->type, FrameType::kProgress);
    attacker.Close();  // Abrupt hangup, 3s stall still pending.
  }

  // The server notices via EPOLLRDHUP, cancels the park, and records
  // the reputation signal -- all asynchronously; give it a moment.
  const double start = NowSecondsSteady();
  while (server.hangups_mid_stall() == 0 &&
         NowSecondsSteady() - start < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(server.hangups_mid_stall(), 1u);
  // Hangup was detected well before the 3s stall would have expired.
  EXPECT_LT(NowSecondsSteady() - start, 2.5);

  // (1) The charge survived the cancellation. The full 3s is on the
  // ledger even though no tuple was ever delivered.
  const auto m = db->Metrics();
  EXPECT_GE(m.total_delay_seconds - before_charge, 3.0 * 0.999);
  // The response never went out.
  EXPECT_EQ(server.responses_sent(), 0u);

  // (2) The principal's penalty factor escalated (growth 2.0 per
  // external signal; baseline is 1.0).
  const double factor = reputation.PenaltyFactor(
      kIdentity, /*subnet24=*/Ipv4FromString("127.0.0.1") & 0xFFFFFF00u,
      clock.NowSeconds());
  EXPECT_GE(factor, 1.9);
  // ...and not much more: one hangup = one kExternal signal (growth
  // 2.0). A factor blowup here means some other heuristic misfired.
  EXPECT_LE(factor, 4.1);

  // (3) Reconnecting with the same identity is delay-before-served:
  // the factor (>= threshold 1.5) parks the HelloAck for
  // accept_delay * factor ~= 1s before any query is accepted.
  {
    FrameClient retry;
    ASSERT_TRUE(retry.Connect("127.0.0.1", server.port()).ok());
    const double hello_start = NowSecondsSteady();
    ASSERT_TRUE(retry.Hello(kIdentity).ok());
    const double hello_elapsed = NowSecondsSteady() - hello_start;
    EXPECT_GE(hello_elapsed, 0.5 * 1.9);
    EXPECT_LE(hello_elapsed, 10.0);
    EXPECT_GE(server.accept_delays(), 1u);
    // ...and the stall itself is escalated too (engine-side principal
    // escalation): the charged delay exceeds the base 3s.
    auto r = retry.GetByKey(2, /*timeout_seconds=*/60.0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status_code, static_cast<uint8_t>(StatusCode::kOk));
    EXPECT_GE(r->delay_micros, static_cast<uint64_t>(3.0 * 1.9 * 1e6));
    EXPECT_LE(r->delay_micros, static_cast<uint64_t>(3.0 * 4.2 * 1e6));
  }

  server.Stop();
  db.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace net
}  // namespace tarpit
