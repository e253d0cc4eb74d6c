// Ablation: the adversary zoo vs the reputation ladder.
//
// Matrix: {slow-and-low, sybil churn, volume inference, brute sweep}
// x {popularity-only, + coverage escalation, + reputation}. Each cell
// reports virtual time-to-extract; each layer column also reports the
// p99 delay a benign population pays under it, because an escalation
// mechanism that taxes browsers is not a defense.
//
// Acceptance (the binary exits non-zero on FAIL):
//   - every adversary's time-to-extract strictly increases when the
//     reputation layer is enabled on top of coverage;
//   - sybil churn pays >= 5x vs popularity-only (identity churn sheds
//     per-identity state; only the subnet-keyed reputation factor and
//     breadth tracking survive churn, and this is the number that
//     proves they bite);
//   - benign p99 under the full ladder regresses < 5% vs
//     popularity-only.
//
// Env: TARPIT_BENCH_TINY=1 shrinks the relation for CI smoke runs;
// TARPIT_BENCH_JSON=<path> emits the matrix as machine-readable JSON
// (the CI artifact BENCH_adversary.json).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/protected_db.h"
#include "defense/query_gate.h"
#include "defense/reputation.h"
#include "openloop.h"
#include "sim/adversary_zoo.h"
#include "sim/gate_attack.h"

using namespace tarpit;

namespace {

namespace fs = std::filesystem;

bool TinyConfig() {
  const char* env = std::getenv("TARPIT_BENCH_TINY");
  return env != nullptr && env[0] == '1';
}

enum class Layer {
  kPopularityOnly,
  kCoverage,
  kCoverageReputation,
};

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPopularityOnly:
      return "popularity";
    case Layer::kCoverage:
      return "coverage";
    case Layer::kCoverageReputation:
      return "coverage+reputation";
  }
  return "?";
}

struct Stack {
  fs::path dir;
  std::unique_ptr<VirtualClock> clock;
  std::unique_ptr<ProtectedDatabase> pdb;
  std::unique_ptr<ReputationStore> reputation;
  std::unique_ptr<QueryGate> gate;

  ~Stack() {
    gate.reset();
    pdb.reset();
    if (!dir.empty()) fs::remove_all(dir);
  }
};

std::unique_ptr<Stack> MakeStack(Layer layer, const std::string& tag,
                                 int64_t tuples,
                                 bool (*present)(int64_t) = nullptr) {
  auto stack = std::make_unique<Stack>();
  stack->dir = fs::temp_directory_path() / ("tarpit_abrep_" + tag);
  fs::remove_all(stack->dir);
  fs::create_directories(stack->dir);
  stack->clock = std::make_unique<VirtualClock>();

  ProtectedDatabaseOptions db_opts;
  db_opts.popularity.scale = 0.05;
  db_opts.popularity.beta = 1.0;
  db_opts.popularity.bounds = {0.0, 10.0};
  db_opts.defer_delay_sleep = true;  // Discrete-event adversaries.
  auto pdb = ProtectedDatabase::Open(stack->dir.string(), "items",
                                     stack->clock.get(), db_opts);
  if (!pdb.ok()) std::abort();
  stack->pdb = std::move(*pdb);
  (void)stack->pdb->ExecuteSql(
      "CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)");
  for (int64_t i = 1; i <= tuples; ++i) {
    if (present != nullptr && !present(i)) continue;
    if (!stack->pdb->BulkLoadRow({Value(i), Value(1.0)}).ok()) {
      std::abort();
    }
  }
  // Warm the head so popular tuples are cheap and the cold tail sits
  // at the cap -- without a skewed distribution every layer looks the
  // same and the ablation measures nothing.
  for (int rep = 0; rep < 200; ++rep) {
    for (int64_t k = 1; k <= 20; ++k) {
      (void)stack->pdb->ExecuteSql("SELECT * FROM items WHERE id = " +
                                   std::to_string(k));
    }
  }

  QueryGateOptions gate_opts;
  gate_opts.registration_seconds_per_account = 0.0;
  gate_opts.registration_burst = 1e9;
  gate_opts.per_user_queries_per_second = 5.0;
  gate_opts.per_user_burst = 20.0;
  gate_opts.per_subnet_queries_per_second = 1e9;
  gate_opts.per_subnet_burst = 1e9;
  // Free lines sized so benign browsing (a head-heavy ~17% slice) is
  // comfortably inside them while every zoo adversary's footprint
  // (50-100% of the relation, per identity or per subnet) is far past.
  if (layer != Layer::kPopularityOnly) {
    gate_opts.coverage_escalation = true;
    gate_opts.coverage.free_coverage = 0.25;
    gate_opts.coverage.max_coverage = 0.5;
    gate_opts.coverage.max_escalation = 20.0;
  }
  if (layer == Layer::kCoverageReputation) {
    ReputationOptions rep;
    rep.growth = 2.0;
    rep.subnet_growth = 2.0;
    rep.half_life_seconds = 1e9;
    rep.max_penalty = 64.0;
    rep.max_subnet_penalty = 64.0;
    rep.breadth_free_fraction = 0.25;
    rep.breadth_signal_stride = 0.025;
    stack->reputation = std::make_unique<ReputationStore>(rep);
    gate_opts.reputation = stack->reputation.get();
  }
  stack->gate =
      std::make_unique<QueryGate>(stack->pdb.get(), gate_opts);
  return stack;
}

/// p99 delay (ms) across a benign population: users browse the warm
/// head with zipf-ish repetition, each well under every threshold the
/// ladder watches. Deterministic (fixed seed).
double BenignP99Ms(Layer layer, const std::string& tag, int64_t tuples,
                   int users, int queries_per_user) {
  auto stack = MakeStack(layer, tag, tuples);
  Rng rng(4242);
  std::vector<double> delays;
  delays.reserve(static_cast<size_t>(users) * queries_per_user);
  for (int u = 0; u < users; ++u) {
    // Each benign user browses from their own /24 (households do not
    // share an extraction fleet's subnet).
    auto id = stack->gate->RegisterUser(
        0xC0000201u + (static_cast<uint32_t>(u) << 8));
    if (!id.ok()) std::abort();
    for (int q = 0; q < queries_per_user; ++q) {
      // Head-heavy browsing: mostly the top 15, occasionally deeper,
      // never past a ~17% slice of the relation.
      const int64_t key =
          rng.Bernoulli(0.9)
              ? 1 + static_cast<int64_t>(rng.Uniform(15))
              : 1 + static_cast<int64_t>(rng.Uniform(25));
      auto r = stack->gate->ExecuteSql(
          *id, "SELECT * FROM items WHERE id = " + std::to_string(key));
      if (r.ok()) {
        delays.push_back(r->delay_seconds * 1e3);
        stack->clock->SleepForMicros(2'000'000);  // 0.5 qps: casual.
      } else {
        stack->clock->SleepForMicros(5'000'000);
      }
    }
  }
  if (delays.empty()) return -1.0;
  std::sort(delays.begin(), delays.end());
  return delays[static_cast<size_t>(0.99 * (delays.size() - 1))];
}

struct Cell {
  std::string adversary;
  Layer layer;
  double attack_seconds = 0;
  double charged_delay = 0;
  uint64_t queries = 0;
  bool completed = false;
};

/// Open-loop (coordinated-omission-free) processing latency of the
/// full-ladder gate on a REAL clock: delays stay deferred (charged, not
/// slept), so the percentiles measure gate + SQL engine work under a
/// fixed exponential arrival schedule -- what a benign user's request
/// costs before any policy stall is added. Rate limits are opened up;
/// policy behaviour is the virtual-clock matrix's job, not this one's.
bench::OpenLoopStats RunOpenLoopGate(int64_t tuples, bool tiny) {
  const fs::path dir = fs::temp_directory_path() / "tarpit_abrep_ol";
  fs::remove_all(dir);
  fs::create_directories(dir);
  RealClock clock;
  ProtectedDatabaseOptions db_opts;
  db_opts.popularity.scale = 0.05;
  db_opts.popularity.beta = 1.0;
  db_opts.popularity.bounds = {0.0, 10.0};
  db_opts.defer_delay_sleep = true;
  auto pdb = ProtectedDatabase::Open(dir.string(), "items", &clock,
                                     db_opts);
  if (!pdb.ok()) std::abort();
  auto db = std::move(*pdb);
  (void)db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)");
  for (int64_t i = 1; i <= tuples; ++i) {
    if (!db->BulkLoadRow({Value(i), Value(1.0)}).ok()) std::abort();
  }

  ReputationOptions rep;
  rep.breadth_free_fraction = 0.25;
  ReputationStore reputation(rep);
  QueryGateOptions gate_opts;
  gate_opts.registration_seconds_per_account = 0.0;
  gate_opts.registration_burst = 1e9;
  gate_opts.per_user_queries_per_second = 1e9;
  gate_opts.per_user_burst = 1e9;
  gate_opts.per_subnet_queries_per_second = 1e9;
  gate_opts.per_subnet_burst = 1e9;
  gate_opts.coverage_escalation = true;
  gate_opts.reputation = &reputation;
  QueryGate gate(db.get(), gate_opts);

  constexpr int kUsers = 4;
  std::vector<Identity> ids;
  for (int u = 0; u < kUsers; ++u) {
    auto id = gate.RegisterUser(0xC0000301u +
                                (static_cast<uint32_t>(u) << 8));
    if (!id.ok()) std::abort();
    ids.push_back(*id);
  }
  std::vector<std::string> statements;
  statements.reserve(32);
  for (int k = 1; k <= 32; ++k) {
    statements.push_back("SELECT * FROM items WHERE id = " +
                         std::to_string(k));
  }
  for (const Identity& id : ids) {  // Warm plans + pools.
    for (const std::string& sql : statements) {
      (void)gate.ExecuteSql(id, sql);
    }
  }

  // The serial front door is single-threaded by contract; arrivals
  // queue on one door mutex and the intended-time latency charges the
  // queue wait -- the honest cost of a serial door under load.
  std::mutex door;
  bench::OpenLoopOptions olopts;
  olopts.threads = kUsers;
  olopts.ops_per_thread = tiny ? 400 : 2000;
  olopts.mean_interarrival_us = tiny ? 600.0 : 300.0;
  const bench::OpenLoopStats stats =
      bench::RunOpenLoop(olopts, [&](int t, int i) {
        std::lock_guard<std::mutex> lock(door);
        (void)gate.ExecuteSql(
            ids[static_cast<size_t>(t)],
            statements[static_cast<size_t>(i) % statements.size()]);
      });
  db.reset();
  fs::remove_all(dir);
  return stats;
}

}  // namespace

int main() {
  const bool tiny = TinyConfig();
  const int64_t kTuples = tiny ? 150 : 600;
  const int64_t kDomain = tiny ? 120 : 500;
  const int kBenignUsers = tiny ? 8 : 20;
  const int kBenignQueries = tiny ? 40 : 150;

  std::printf("# Ablation: adversary zoo x reputation ladder "
              "(%lld tuples, cap 10 s)%s\n",
              static_cast<long long>(kTuples), tiny ? " [tiny]" : "");

  std::vector<Cell> cells;
  const Layer ladder[3] = {Layer::kPopularityOnly, Layer::kCoverage,
                           Layer::kCoverageReputation};

  std::printf("%-18s %-22s %-14s %-12s %-10s\n", "adversary", "layer",
              "attack (h)", "queries", "completed");
  auto record = [&cells](const std::string& adversary, Layer layer,
                         double seconds, double delay, uint64_t queries,
                         bool completed) {
    cells.push_back(
        Cell{adversary, layer, seconds, delay, queries, completed});
    std::printf("%-18s %-22s %-14.3f %-12llu %-10s\n",
                adversary.c_str(), LayerName(layer), seconds / 3600.0,
                static_cast<unsigned long long>(queries),
                completed ? "yes" : "NO");
  };

  for (Layer layer : ladder) {
    const std::string tag = LayerName(layer);
    {
      SlowLowConfig config;
      config.n = static_cast<uint64_t>(kTuples);
      auto stack = MakeStack(layer, "sl_" + tag, kTuples);
      SlowLowReport r = RunSlowLowExtraction(stack->gate.get(),
                                             stack->clock.get(), config);
      record("slow-low", layer, r.attack_seconds, r.total_delay_seconds,
             r.queries_issued, r.completed);
    }
    {
      SybilChurnConfig config;
      config.n = static_cast<uint64_t>(kTuples);
      config.fleet_size = 4;
      config.queries_per_identity = 10;
      config.subnet_pool = 2;
      auto stack = MakeStack(layer, "sy_" + tag, kTuples);
      SybilChurnReport r = RunSybilChurnExtraction(
          stack->gate.get(), stack->clock.get(), config);
      record("sybil-churn", layer, r.attack_seconds,
             r.total_delay_seconds, r.queries_issued, r.completed);
    }
    {
      // A gapped key domain (every 5th key absent): dense tables fall
      // to a single COUNT, gaps force the full binary-split probe
      // tree.
      VolumeInferenceConfig config;
      config.domain_max = kDomain;
      auto stack = MakeStack(layer, "vi_" + tag, kDomain,
                             [](int64_t key) { return key % 5 != 0; });
      VolumeInferenceReport r = RunVolumeInference(
          stack->gate.get(), stack->clock.get(), config);
      record("volume-infer", layer, r.attack_seconds,
             r.total_delay_seconds, r.queries_issued, r.completed);
    }
    {
      GateAttackConfig config;
      config.n = static_cast<uint64_t>(kTuples);
      config.identities = 2;  // 50% coverage each: past every line.
      config.spread_subnets = true;
      auto stack = MakeStack(layer, "bf_" + tag, kTuples);
      GateAttackReport r = RunGateExtraction(stack->gate.get(),
                                             stack->clock.get(), config);
      record("brute-sweep", layer, r.attack_seconds, 0.0,
             r.queries_issued, r.completed);
    }
  }

  const double p99_pop = BenignP99Ms(Layer::kPopularityOnly, "bn_pop",
                                     kTuples, kBenignUsers,
                                     kBenignQueries);
  const double p99_full = BenignP99Ms(Layer::kCoverageReputation,
                                      "bn_full", kTuples, kBenignUsers,
                                      kBenignQueries);

  // ---- Acceptance. ----
  auto cell_seconds = [&cells](const std::string& adversary,
                               Layer layer) {
    for (const Cell& c : cells) {
      if (c.adversary == adversary && c.layer == layer) {
        return c.attack_seconds;
      }
    }
    return -1.0;
  };
  const char* adversaries[4] = {"slow-low", "sybil-churn",
                                "volume-infer", "brute-sweep"};
  bool ordering_pass = true;
  for (const char* adv : adversaries) {
    const double cov = cell_seconds(adv, Layer::kCoverage);
    const double rep = cell_seconds(adv, Layer::kCoverageReputation);
    if (!(rep > cov)) ordering_pass = false;
  }
  const double sybil_factor =
      cell_seconds("sybil-churn", Layer::kCoverageReputation) /
      cell_seconds("sybil-churn", Layer::kPopularityOnly);
  const bool sybil_pass = sybil_factor >= 5.0;
  const double benign_regression =
      p99_pop > 0 ? (p99_full - p99_pop) / p99_pop : 1.0;
  const bool benign_pass = benign_regression < 0.05;

  std::printf("\n# Acceptance\n");
  std::printf("reputation strictly slows every adversary vs coverage: "
              "%s\n",
              ordering_pass ? "PASS" : "FAIL");
  std::printf("sybil-churn pays %.1fx vs popularity-only "
              "(target >= 5x) %s\n",
              sybil_factor, sybil_pass ? "PASS" : "FAIL");
  std::printf("benign p99 %.3f ms -> %.3f ms (%+.2f%%, target < +5%%) "
              "%s\n",
              p99_pop, p99_full, 100.0 * benign_regression,
              benign_pass ? "PASS" : "FAIL");

  const bench::OpenLoopStats ol = RunOpenLoopGate(kTuples, tiny);
  std::printf("open-loop gate (real clock, deferred delays): p50 %.0fus "
              "p99 %.0fus p999 %.0fus, achieved %.0f qps\n",
              ol.p50_us, ol.p99_us, ol.p999_us, ol.achieved_qps);
  const bool floor_pass = bench::HarnessFloorOk(ol);

  if (const char* json_path = std::getenv("TARPIT_BENCH_JSON")) {
    if (json_path[0] != '\0') {
      if (std::FILE* f = std::fopen(json_path, "w")) {
        std::string rows;
        for (size_t i = 0; i < cells.size(); ++i) {
          const Cell& c = cells[i];
          char buf[512];
          std::snprintf(
              buf, sizeof(buf),
              "    {\"adversary\": \"%s\", \"layer\": \"%s\", "
              "\"attack_seconds\": %.6f, \"charged_delay\": %.6f, "
              "\"queries\": %llu, \"completed\": %s}%s\n",
              c.adversary.c_str(), LayerName(c.layer),
              c.attack_seconds, c.charged_delay,
              static_cast<unsigned long long>(c.queries),
              c.completed ? "true" : "false",
              i + 1 < cells.size() ? "," : "");
          rows += buf;
        }
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"ablation_reputation\",\n"
                     "  \"tiny\": %s,\n"
                     "  \"tuples\": %lld,\n"
                     "  \"cells\": [\n%s  ],\n"
                     "  \"benign_p99_popularity_ms\": %.6f,\n"
                     "  \"benign_p99_full_ms\": %.6f,\n"
                     "  \"benign_regression\": %.6f,\n"
                     "  \"benign_pass\": %s,\n"
                     "  \"sybil_factor\": %.3f,\n"
                     "  \"sybil_pass\": %s,\n"
                     "%s"
                     "  \"ordering_pass\": %s\n"
                     "}\n",
                     tiny ? "true" : "false",
                     static_cast<long long>(kTuples), rows.c_str(),
                     p99_pop, p99_full, benign_regression,
                     benign_pass ? "true" : "false", sybil_factor,
                     sybil_pass ? "true" : "false",
                     bench::OpenLoopJsonFields(ol).c_str(),
                     ordering_pass ? "true" : "false");
        std::fclose(f);
        std::printf("json written to %s\n", json_path);
      }
    }
  }

  return (ordering_pass && sybil_pass && benign_pass && floor_pass) ? 0 : 1;
}
