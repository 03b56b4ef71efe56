// The overload-safe sharded serving daemon, end to end:
//
//  * BoundedQueue — FIFO order, power-of-two capacity, full => TryPush
//    false immediately (the backpressure signal), generation wrap-around,
//    and a multi-producer stress run that checks nothing is lost,
//    duplicated, or reordered within a producer;
//  * LoadGen — bit-identical replay for a seed, per-shard streams that do
//    not shift when the fleet grows, and phase-cycled rates;
//  * Daemon — the SLO conservation law (every ingested request is served,
//    shed, expired, or queued — attributed, never lost) under clean runs,
//    overload, injected queue-full/stall/crash faults, and deadline
//    pressure; the watchdog quarantine -> restart-from-checkpoint ->
//    probation -> serving arc; and the replay digest: no-fault runs are
//    bit-identical across repeats AND thread counts, fault-armed runs
//    across repeats on one thread.
//
// Every test arms its own faults with ScopedFaults (possibly empty), so
// the binary is safe under an ambient EALGAP_FAULTS.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/bounded_queue.h"
#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/ealgap.h"
#include "core/experiment.h"
#include "data/aggregate.h"
#include "data/dataset.h"
#include "data/synthetic_city.h"
#include "serve/adaptive_predictor.h"
#include "serve/daemon.h"
#include "serve/load_gen.h"
#include "serve/shard.h"

namespace ealgap {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : saved_(GetNumThreads()) { SetNumThreads(n); }
  ~ScopedThreads() { SetNumThreads(saved_); }

 private:
  int saved_;
};

// --- BoundedQueue ------------------------------------------------------------

TEST(BoundedQueueTest, FifoUntilFullThenRejects) {
  BoundedQueue<int> q(5);  // rounds up to 8
  EXPECT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i)) << i;
  EXPECT_FALSE(q.TryPush(99));  // full: immediate, non-blocking rejection
  EXPECT_EQ(q.SizeApprox(), 8u);
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, i);  // FIFO
  }
  EXPECT_FALSE(q.TryPop(&v));  // empty
  EXPECT_TRUE(q.EmptyApprox());
}

TEST(BoundedQueueTest, WrapsCleanlyAcrossManyGenerations) {
  BoundedQueue<int64_t> q(4);
  int64_t expect = 0;
  int64_t next = 0;
  for (int round = 0; round < 1000; ++round) {
    for (int k = 0; k < 3; ++k) ASSERT_TRUE(q.TryPush(next++));
    int64_t v;
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(q.TryPop(&v));
      EXPECT_EQ(v, expect++);
    }
  }
  EXPECT_TRUE(q.EmptyApprox());
}

TEST(BoundedQueueTest, MultiProducerStressLosesNothing) {
  constexpr int kProducers = 4;
  constexpr int64_t kPerProducer = 20000;
  BoundedQueue<int64_t> q(256);
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int64_t i = 0; i < kPerProducer; ++i) {
        // Value encodes (producer, sequence) so the consumer can check
        // per-producer order. Spin on full: the stress is on the ring, the
        // producers are allowed to wait.
        while (!q.TryPush(p * kPerProducer + i)) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<int64_t> next_seq(kProducers, 0);
  int64_t popped = 0;
  go.store(true, std::memory_order_release);
  while (popped < kProducers * kPerProducer) {
    int64_t v;
    if (!q.TryPop(&v)) continue;
    const int p = static_cast<int>(v / kPerProducer);
    const int64_t seq = v % kPerProducer;
    ASSERT_GE(p, 0);
    ASSERT_LT(p, kProducers);
    // Committed pushes from one producer pop in that producer's order.
    ASSERT_EQ(seq, next_seq[p]) << "producer " << p;
    ++next_seq[p];
    ++popped;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(q.EmptyApprox());
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

// --- LoadGen -----------------------------------------------------------------

TEST(LoadGenTest, ReplaysBitIdenticallyForASeed) {
  serve::LoadGenConfig config;
  config.num_shards = 3;
  config.seed = 99;
  config.phases = {{10, 2.0}, {5, 16.0}};
  serve::LoadGen a(config), b(config);
  std::vector<int> va, vb;
  for (int64_t t = 0; t < 64; ++t) {
    a.ArrivalsAt(t, &va);
    b.ArrivalsAt(t, &vb);
    ASSERT_EQ(va, vb) << "tick " << t;
  }
}

TEST(LoadGenTest, ShardStreamsAreInvariantToFleetSize) {
  serve::LoadGenConfig small;
  small.num_shards = 2;
  small.seed = 7;
  serve::LoadGenConfig big = small;
  big.num_shards = 5;
  serve::LoadGen a(small), b(big);
  std::vector<int> va, vb;
  for (int64_t t = 0; t < 32; ++t) {
    a.ArrivalsAt(t, &va);
    b.ArrivalsAt(t, &vb);
    // Growing the fleet must not perturb existing shards' schedules.
    ASSERT_EQ(va[0], vb[0]) << "tick " << t;
    ASSERT_EQ(va[1], vb[1]) << "tick " << t;
  }
}

TEST(LoadGenTest, RatesCyclePhases) {
  serve::LoadGenConfig config;
  config.phases = {{4, 1.0}, {2, 32.0}};
  serve::LoadGen gen(config);
  for (int64_t cycle = 0; cycle < 3; ++cycle) {
    const int64_t base = cycle * 6;
    for (int64_t t = 0; t < 4; ++t) EXPECT_EQ(gen.RateAt(base + t), 1.0);
    for (int64_t t = 4; t < 6; ++t) EXPECT_EQ(gen.RateAt(base + t), 32.0);
  }
}

// --- daemon fleet fixture ----------------------------------------------------

struct FleetOptions {
  int shards = 2;
  int regions_per_shard = 3;
  serve::DaemonConfig daemon;
  size_t queue_capacity = 128;
  serve::WatchdogPolicy watchdog;
  int checkpoint_every_steps = 8;
  std::string state_root;  ///< empty => in-memory restarts
  /// Restarts reload the base model from the checkpoint, like the tool.
  bool with_reloader = false;
  /// Serve every shard through the test-time-adaptation wrapper.
  bool adapt = false;
  serve::AdaptOptions aopt;
};

/// Adaptation knobs hot enough that an epochs=0 model over a 40-day city
/// triggers and attempts within a ~100-tick run.
serve::AdaptOptions HotAdaptOptions() {
  serve::AdaptOptions aopt;
  aopt.cusum_h = 4.0;
  aopt.window = 32;
  aopt.min_window = 12;
  aopt.holdout = 4;
  aopt.cooldown = 8;
  return aopt;
}

/// Builds a daemon over contiguous region slices of one synthetic city,
/// one initialized (epochs=0) EALGAP model per shard — weight values do
/// not matter to the control plane under test, and training would
/// dominate the suite's runtime.
std::unique_ptr<serve::Daemon> MakeFleet(const FleetOptions& opt) {
  fault::ScopedFaults off("");  // never build the fleet under faults
  data::RegionSeriesConfig series_config;
  series_config.num_regions = opt.shards * opt.regions_per_shard;
  series_config.num_days = 40;
  series_config.seed = 5;
  const data::MobilitySeries city = data::GenerateRegionSeries(series_config);

  auto daemon = std::make_unique<serve::Daemon>(opt.daemon);
  for (int s = 0; s < opt.shards; ++s) {
    auto slice = data::SliceRegions(city, s * opt.regions_per_shard,
                                    (s + 1) * opt.regions_per_shard);
    EXPECT_TRUE(slice.ok()) << slice.status().ToString();
    data::DatasetOptions dopts;
    dopts.history_length = 5;
    dopts.num_windows = 3;
    dopts.norm_history = 3;
    auto dataset =
        data::SlidingWindowDataset::Create(std::move(slice).value(), dopts);
    EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
    auto split = data::MakeChronoSplit(*dataset);
    EXPECT_TRUE(split.ok()) << split.status().ToString();
    auto model = std::make_unique<core::EalgapForecaster>();
    TrainConfig train;
    train.epochs = 0;
    train.seed = 11 + s;
    EXPECT_TRUE(model->Fit(*dataset, *split, train).ok());

    serve::ShardConfig config;
    config.name = "s" + std::to_string(s);
    config.queue_capacity = opt.queue_capacity;
    config.watchdog = opt.watchdog;
    config.checkpoint_every_steps = opt.checkpoint_every_steps;
    if (!opt.state_root.empty()) {
      config.state_dir = opt.state_root + "/" + config.name;
    }
    config.guard.on_bad_value = serve::RepairPolicy::kImpute;
    config.guard.on_gap = serve::RepairPolicy::kImpute;
    config.guard.max_gap_steps = 4096;
    if (opt.adapt) config.stack.adapt = opt.aopt;
    serve::ModelReloader reloader = nullptr;
    if (opt.with_reloader) reloader = core::LoadForecasterFromCheckpoint;
    auto shard = serve::Shard::Create(std::move(*dataset), std::move(model),
                                      split->test_begin, config, reloader);
    EXPECT_TRUE(shard.ok()) << shard.status().ToString();
    daemon->AddShard(std::move(shard).value());
  }
  return daemon;
}

/// Fleet options for tests that compare or pin replay digests. The digest
/// records each answer's DegradeCause, and kDeadline comes from a
/// steady_clock measurement against min(model_deadline_ms, (remaining + 1)
/// * ms_per_tick) — so a host stall longer than that budget changes the
/// digest. Both wall-clock inputs are zeroed (zeroing ms_per_tick alone
/// would also switch the cap off, by accident of the min); the virtual
/// deadline_ticks expiry stays on. The wall-clock path keeps its own tests
/// (InjectedModelDelayDegradesWithDeadlineCause,
/// FaultArmedSoakNeverLosesARequest).
FleetOptions VirtualTimeFleet() {
  FleetOptions opt;
  opt.daemon.model_deadline_ms = 0.0;
  opt.daemon.ms_per_tick = 0.0;
  return opt;
}

serve::SloReport RunLoad(serve::Daemon* daemon, int64_t ticks,
                         double steady_rate = 3.0, double burst_rate = 3.0,
                         uint64_t seed = 17) {
  serve::LoadGenConfig config;
  config.num_shards = daemon->num_shards();
  config.seed = seed;
  config.phases = {{24, steady_rate}, {8, burst_rate}};
  serve::LoadGen gen(config);
  return daemon->Run(&gen, ticks);
}

void ExpectFullyAttributed(const serve::SloReport& report) {
  EXPECT_EQ(report.UnattributedPredicts(), 0)
      << "predicts lost: " << report.UnattributedPredicts();
  EXPECT_EQ(report.UnattributedObserves(), 0)
      << "observes lost: " << report.UnattributedObserves();
  EXPECT_EQ(report.DegradedCauseMismatch(), 0);
}

// --- clean runs --------------------------------------------------------------

TEST(DaemonTest, CleanRunServesEverythingFromTheModel) {
  fault::ScopedFaults off("");
  auto daemon = MakeFleet({});
  const serve::SloReport report = RunLoad(daemon.get(), 96);
  EXPECT_EQ(report.ticks, 96);
  EXPECT_GT(report.predict_requests, 0);
  EXPECT_GT(report.served_model, 0);
  // Nothing in a healthy, amply-provisioned run degrades or sheds.
  EXPECT_EQ(report.served_degraded, 0);
  EXPECT_EQ(report.expired_fallback, 0);
  EXPECT_EQ(report.shed_overload_predict + report.shed_quarantine_predict, 0);
  EXPECT_EQ(report.watchdog_quarantines, 0);
  EXPECT_EQ(report.observe_requests, 96 * daemon->num_shards());
  ExpectFullyAttributed(report);
  for (int s = 0; s < daemon->num_shards(); ++s) {
    EXPECT_EQ(daemon->shard(s)->health(), serve::ShardHealth::kServing);
  }
}

TEST(DaemonTest, NoFaultReplayIsBitIdenticalAcrossRunsAndThreadCounts) {
  fault::ScopedFaults off("");
  uint32_t digests[3];
  int64_t served[3];
  const int threads[3] = {1, 4, 4};
  for (int i = 0; i < 3; ++i) {
    ScopedThreads scoped(threads[i]);
    FleetOptions opt = VirtualTimeFleet();
    opt.shards = 3;
    auto daemon = MakeFleet(opt);
    const serve::SloReport report = RunLoad(daemon.get(), 120, 3.0, 20.0);
    digests[i] = daemon->digest();
    served[i] = report.served_model + report.served_degraded;
    ExpectFullyAttributed(report);
  }
  // Same seed => same decisions and same served bits, no matter the
  // thread count: 1 thread, 4 threads, and a 4-thread repeat all match.
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
  EXPECT_EQ(served[0], served[1]);
  EXPECT_EQ(served[1], served[2]);
}

// --- overload and admission control ------------------------------------------

TEST(DaemonTest, OverloadShedsInsteadOfGrowing) {
  fault::ScopedFaults off("");
  FleetOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 4;
  opt.daemon.batch_max = 2;
  opt.daemon.deadline_ticks = 0;  // isolate the overload path
  auto daemon = MakeFleet(opt);
  // Sustained 16 predicts/tick against a drain rate of 2: the 4-slot ring
  // must reject nearly everything, and reject it ATTRIBUTED.
  const serve::SloReport report = RunLoad(daemon.get(), 64, 16.0, 16.0);
  EXPECT_GT(report.shed_overload_predict, 0);
  EXPECT_LE(daemon->shard(0)->queue().SizeApprox(), 4u);
  ExpectFullyAttributed(report);
  // Overload must not poison health: the shard is slow, not sick.
  EXPECT_EQ(report.watchdog_quarantines, 0);
  EXPECT_EQ(daemon->shard(0)->health(), serve::ShardHealth::kServing);
}

TEST(DaemonTest, QueueFullFaultShedsDeterministically) {
  FleetOptions opt = VirtualTimeFleet();
  opt.shards = 2;
  auto daemon_a = MakeFleet(opt);
  auto daemon_b = MakeFleet(opt);
  uint32_t digest_a, digest_b;
  int64_t sheds_a, sheds_b;
  {
    ScopedThreads single(1);
    fault::ScopedFaults faults("daemon.queue.full:p=0.2:seed=3");
    const serve::SloReport report = RunLoad(daemon_a.get(), 80);
    sheds_a = report.shed_overload_predict + report.shed_overload_observe;
    digest_a = daemon_a->digest();
    EXPECT_GT(sheds_a, 0);
    ExpectFullyAttributed(report);
  }
  {
    ScopedThreads single(1);
    fault::ScopedFaults faults("daemon.queue.full:p=0.2:seed=3");
    const serve::SloReport report = RunLoad(daemon_b.get(), 80);
    sheds_b = report.shed_overload_predict + report.shed_overload_observe;
    digest_b = daemon_b->digest();
    ExpectFullyAttributed(report);
  }
  // The fault site draws from its own seeded stream on the supervisor
  // thread: armed replays are bit-identical too.
  EXPECT_EQ(digest_a, digest_b);
  EXPECT_EQ(sheds_a, sheds_b);
}

// --- deadlines ---------------------------------------------------------------

TEST(DaemonTest, BackloggedRequestsExpireToFallbackAnswers) {
  fault::ScopedFaults off("");
  FleetOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 256;
  opt.daemon.batch_max = 2;      // drain far slower than arrivals
  opt.daemon.deadline_ticks = 2; // tight budget
  auto daemon = MakeFleet(opt);
  const serve::SloReport report = RunLoad(daemon.get(), 96, 10.0, 10.0);
  // The backlog outlives the budget: expired requests are answered from
  // the fallback (attributed kExpired), not dropped and not served late.
  EXPECT_GT(report.expired_fallback, 0);
  ExpectFullyAttributed(report);
}

TEST(DaemonTest, InjectedModelDelayDegradesWithDeadlineCause) {
  FleetOptions opt;
  opt.shards = 1;
  opt.daemon.model_deadline_ms = 5.0;
  opt.daemon.deadline_ticks = 0;  // only the per-attempt cap is in play
  opt.watchdog.max_consecutive_failures = 1000;  // keep the shard serving
  opt.watchdog.max_degraded_steps = 1000;
  auto daemon = MakeFleet(opt);
  fault::ScopedFaults faults("nn.predict.delay:every=3:ms=30");
  const serve::SloReport report = RunLoad(daemon.get(), 24, 2.0, 2.0);
  using serve::DegradeCause;
  EXPECT_GT(report.degraded_by_cause[static_cast<int>(DegradeCause::kDeadline)],
            0);
  EXPECT_GT(report.served_degraded, 0);
  ExpectFullyAttributed(report);
}

// --- watchdog: crash, stall, restart, probation ------------------------------

TEST(DaemonTest, CrashedShardRestartsFromCheckpointAndRecovers) {
  const std::string state_root = ::testing::TempDir() + "/daemon_ckpt_fleet";
  FleetOptions opt;
  opt.shards = 1;
  opt.state_root = state_root;
  opt.with_reloader = true;
  auto daemon = MakeFleet(opt);
  {
    // Exactly one crash, on the 13th health check (tick 12).
    fault::ScopedFaults faults("daemon.shard.crash:every=1:after=12:max=1");
    const serve::SloReport report = RunLoad(daemon.get(), 80, 4.0, 4.0);
    EXPECT_EQ(report.crashes_injected, 1);
    EXPECT_GE(report.watchdog_quarantines, 1);
    EXPECT_EQ(report.restarts, 1);
    // The state dir held CRC'd checkpoints: the restart restored from
    // disk instead of cold re-seeding.
    EXPECT_EQ(report.restarts_from_checkpoint, 1);
    // Requests that hit the fenced shard were shed, attributed.
    EXPECT_GT(report.shed_quarantine_predict + report.shed_quarantine_observe,
              0);
    ExpectFullyAttributed(report);
  }
  // Long after the crash the shard has cleared probation and serves again.
  EXPECT_EQ(daemon->shard(0)->health(), serve::ShardHealth::kServing);
  const serve::ShardTotals totals = daemon->shard(0)->Totals();
  EXPECT_EQ(totals.crashes, 1);
  EXPECT_EQ(totals.restarts, 1);
  EXPECT_EQ(totals.restarts_from_checkpoint, 1);
}

TEST(DaemonTest, CrashWithoutStateDirColdRestartsAndRecovers) {
  FleetOptions opt;
  opt.shards = 1;
  auto daemon = MakeFleet(opt);  // no state_root: in-memory restart path
  {
    fault::ScopedFaults faults("daemon.shard.crash:every=1:after=10:max=1");
    const serve::SloReport report = RunLoad(daemon.get(), 80, 4.0, 4.0);
    EXPECT_EQ(report.crashes_injected, 1);
    EXPECT_EQ(report.restarts, 1);
    EXPECT_EQ(report.restarts_from_checkpoint, 0);  // cold re-seed
    ExpectFullyAttributed(report);
  }
  EXPECT_EQ(daemon->shard(0)->health(), serve::ShardHealth::kServing);
}

TEST(DaemonTest, StallStreakTripsTheWatchdog) {
  FleetOptions opt;
  opt.shards = 1;
  opt.watchdog.max_stalled_ticks = 3;
  auto daemon = MakeFleet(opt);
  // Six consecutive stalled ticks: the third trips the watchdog.
  fault::ScopedFaults faults("daemon.shard.stall:every=1:max=6");
  const serve::SloReport report = RunLoad(daemon.get(), 60, 4.0, 4.0);
  EXPECT_GT(report.stall_ticks_injected, 0);
  EXPECT_GE(report.watchdog_quarantines, 1);
  EXPECT_GE(report.restarts, 1);
  ExpectFullyAttributed(report);
  EXPECT_EQ(daemon->shard(0)->health(), serve::ShardHealth::kServing);
}

// --- the chaos acceptance soak -----------------------------------------------

// Everything armed at once — queue-full, stalls, crashes, model delays —
// over a bursty load: no crash, no hang, every single request attributed.
// (No digest assertion here: the delay fault makes deadline verdicts
// depend on measured wall time, which is exactly the nondeterminism the
// bit-identity contract scopes out — it covers no-fault and
// virtual-time-fault replays, tested separately below.)
TEST(DaemonTest, FaultArmedSoakNeverLosesARequest) {
  const char* kSpec =
      "daemon.queue.full:p=0.05:seed=5,daemon.shard.crash:p=0.02:seed=9,"
      "daemon.shard.stall:p=0.05:seed=13,nn.predict.delay:p=0.05:seed=21:ms=8";
  FleetOptions opt;
  opt.shards = 3;
  opt.daemon.model_deadline_ms = 2.0;
  auto daemon = MakeFleet(opt);
  fault::ScopedFaults faults(kSpec);
  const serve::SloReport report =
      RunLoad(daemon.get(), 300, 3.0, 24.0, /*seed=*/23);
  EXPECT_GT(report.crashes_injected, 0);
  EXPECT_GT(report.restarts, 0);
  EXPECT_GT(report.shed_overload_predict, 0);
  EXPECT_GT(report.served_degraded, 0);
  ExpectFullyAttributed(report);
}

// Virtual-time faults (queue-full, crash, stall) decide from seeded
// streams drawn on the supervisor thread in shard order — a chaos run
// armed with ONLY those replays bit-identically, even across thread
// counts.
TEST(DaemonTest, VirtualTimeFaultReplayIsBitIdentical) {
  const char* kSpec =
      "daemon.queue.full:p=0.05:seed=5,daemon.shard.crash:p=0.02:seed=9,"
      "daemon.shard.stall:p=0.05:seed=13";
  FleetOptions opt = VirtualTimeFleet();
  opt.shards = 3;
  uint32_t digests[2];
  const int threads[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    ScopedThreads scoped(threads[run]);
    auto daemon = MakeFleet(opt);
    fault::ScopedFaults faults(kSpec);
    const serve::SloReport report =
        RunLoad(daemon.get(), 300, 3.0, 24.0, /*seed=*/23);
    digests[run] = daemon->digest();
    EXPECT_GT(report.crashes_injected, 0);
    ExpectFullyAttributed(report);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

// --- pinned replay digests ---------------------------------------------------
//
// The repeat-equality tests above cannot see a change in behaviour that is
// itself deterministic. tests/testdata/golden_daemon_digests.txt pins the
// replay digest of each fleet below; every fleet runs at 1 and at 4 threads
// and both runs must match the pin. Regenerating after an INTENDED change
// (one command):
//
//   EALGAP_REGEN_GOLDEN=1 ./build/tests/daemon_test --gtest_filter='*Digest*'
//
// which rewrites the fixture in the source tree (via the compiled-in
// EALGAP_TESTDATA_DIR); commit the result alongside the change.

std::string DigestFixturePath() {
  return std::string(EALGAP_TESTDATA_DIR) + "/golden_daemon_digests.txt";
}

std::map<std::string, std::string> ReadPinnedDigests() {
  std::map<std::string, std::string> pins;
  std::ifstream in(DigestFixturePath());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string name, hex;
    if (is >> name >> hex) pins[name] = hex;
  }
  return pins;
}

/// Checks `digest` against the pin for `name`, or records it under
/// EALGAP_REGEN_GOLDEN=1.
void ExpectPinnedDigest(const std::string& name, uint32_t digest) {
  std::map<std::string, std::string> pins = ReadPinnedDigests();
  if (std::getenv("EALGAP_REGEN_GOLDEN") != nullptr) {
    pins[name] = Crc32Hex(digest);
    std::ofstream out(DigestFixturePath());
    ASSERT_TRUE(out.good()) << "cannot write " << DigestFixturePath();
    out << "# pinned daemon replay digests (tests/daemon_test.cc); "
           "regenerate with\n"
        << "#   EALGAP_REGEN_GOLDEN=1 ./build/tests/daemon_test "
           "--gtest_filter='*Digest*'\n";
    for (const auto& [fleet, hex] : pins) out << fleet << " " << hex << "\n";
    ASSERT_TRUE(out.good());
    return;
  }
  auto it = pins.find(name);
  ASSERT_NE(it, pins.end())
      << "no pinned digest for " << name << " in " << DigestFixturePath()
      << " — generate it with EALGAP_REGEN_GOLDEN=1 (see above)";
  EXPECT_EQ(Crc32Hex(digest), it->second)
      << "replay digest of fleet " << name << " changed";
}

struct PinnedFleet {
  std::string name;
  FleetOptions fleet = VirtualTimeFleet();
  /// Virtual-time fault sites only: their decisions are drawn on the
  /// supervisor thread, so the digest stays independent of the pool size.
  std::string faults;
  int64_t ticks = 120;
  double steady_rate = 3.0;
  double burst_rate = 20.0;
  uint64_t load_seed = 17;
  bool expect_checkpoint_restarts = false;
  bool expect_commits = false;
};

void PrintTo(const PinnedFleet& fleet, std::ostream* os) { *os << fleet.name; }

std::vector<PinnedFleet> PinnedFleets() {
  const char* kChaos =
      "daemon.queue.full:p=0.05:seed=5,daemon.shard.crash:p=0.02:seed=9,"
      "daemon.shard.stall:p=0.05:seed=13";
  const char* kCrash =
      "daemon.queue.full:p=0.05:seed=5,daemon.shard.crash:p=0.02:seed=9";
  std::vector<PinnedFleet> fleets;

  PinnedFleet no_fault;
  no_fault.name = "no_fault";
  no_fault.fleet.shards = 3;
  fleets.push_back(no_fault);

  PinnedFleet chaos;
  chaos.name = "virtual_time_faults";
  chaos.fleet.shards = 3;
  chaos.faults = kChaos;
  chaos.ticks = 300;
  chaos.burst_rate = 24.0;
  chaos.load_seed = 23;
  fleets.push_back(chaos);

  PinnedFleet adapt;
  adapt.name = "adapt";
  adapt.fleet.adapt = true;
  adapt.fleet.aopt = HotAdaptOptions();
  adapt.expect_commits = true;
  fleets.push_back(adapt);

  // Adaptation across crashes and checkpoint restarts: every restart
  // reloads the adapted weights and the detector state from disk.
  PinnedFleet adapt_crash;
  adapt_crash.name = "adapt_crash_checkpoint";
  adapt_crash.fleet.adapt = true;
  adapt_crash.fleet.aopt = HotAdaptOptions();
  adapt_crash.fleet.with_reloader = true;
  adapt_crash.faults = kCrash;
  adapt_crash.ticks = 300;
  adapt_crash.burst_rate = 10.0;
  adapt_crash.load_seed = 23;
  adapt_crash.expect_checkpoint_restarts = true;
  adapt_crash.expect_commits = true;
  fleets.push_back(adapt_crash);
  return fleets;
}

class DaemonDigestTest : public ::testing::TestWithParam<PinnedFleet> {};

TEST_P(DaemonDigestTest, ReplayMatchesPinnedDigestAtOneAndFourThreads) {
  const PinnedFleet& pinned = GetParam();
  uint32_t digests[2];
  const int threads[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    ScopedThreads scoped(threads[run]);
    FleetOptions opt = pinned.fleet;
    if (opt.with_reloader) {
      // A fresh state dir per run: a leftover adapt.state from an earlier
      // run would otherwise leak into the first restart.
      opt.state_root = ::testing::TempDir() + "/pinned_" + pinned.name +
                       "_t" + std::to_string(threads[run]);
      std::filesystem::remove_all(opt.state_root);
    }
    auto daemon = MakeFleet(opt);
    fault::ScopedFaults faults(pinned.faults);
    const serve::SloReport report =
        RunLoad(daemon.get(), pinned.ticks, pinned.steady_rate,
                pinned.burst_rate, pinned.load_seed);
    digests[run] = daemon->digest();
    ExpectFullyAttributed(report);
    EXPECT_EQ(report.adapt.UnattributedAdaptations(), 0);
    // A pin over a fleet that never exercised its path would pin nothing.
    if (pinned.expect_checkpoint_restarts) {
      EXPECT_GT(report.restarts_from_checkpoint, 0);
    }
    if (pinned.expect_commits) {
      EXPECT_GT(report.adapt.commits, 0);
    }
  }
  EXPECT_EQ(digests[0], digests[1]) << "digest depends on the thread count";
  ExpectPinnedDigest(pinned.name, digests[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, DaemonDigestTest, ::testing::ValuesIn(PinnedFleets()),
    [](const ::testing::TestParamInfo<PinnedFleet>& info) {
      return info.param.name;
    });

// --- test-time adaptation ----------------------------------------------------

void ExpectAdaptAttributed(const serve::AdaptStats& adapt) {
  EXPECT_EQ(adapt.UnattributedAdaptations(), 0)
      << "attempts " << adapt.attempts << " commits " << adapt.commits
      << " rollbacks " << adapt.Rollbacks();
}

/// Byte-exact equality of two parameter snapshots (name set, shapes, and
/// every float bit).
void ExpectParamsBitIdentical(const std::map<std::string, Tensor>& a,
                              const std::map<std::string, Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, ta] : a) {
    auto it = b.find(name);
    ASSERT_NE(it, b.end()) << name;
    const Tensor& tb = it->second;
    ASSERT_EQ(ta.numel(), tb.numel()) << name;
    EXPECT_EQ(std::memcmp(ta.data(), tb.data(),
                          static_cast<size_t>(ta.numel()) * sizeof(float)),
              0)
        << "parameter " << name << " differs";
  }
}

// Adaptation is driven entirely by the observed stream (virtual time): an
// adapt-on, no-fault run commits real weight updates and STILL replays
// bit-identically across repeats and thread counts.
TEST(DaemonAdaptTest, AdaptOnReplayIsBitIdenticalAcrossRunsAndThreadCounts) {
  fault::ScopedFaults off("");
  FleetOptions opt = VirtualTimeFleet();
  opt.shards = 2;
  opt.adapt = true;
  opt.aopt = HotAdaptOptions();
  uint32_t digests[3];
  int64_t commits[3];
  const int threads[3] = {1, 4, 4};
  for (int i = 0; i < 3; ++i) {
    ScopedThreads scoped(threads[i]);
    auto daemon = MakeFleet(opt);
    const serve::SloReport report = RunLoad(daemon.get(), 120, 3.0, 20.0);
    digests[i] = daemon->digest();
    commits[i] = report.adapt.commits;
    ExpectFullyAttributed(report);
    ExpectAdaptAttributed(report.adapt);
  }
  // The run must actually adapt — a zero-commit run would make this test
  // vacuously pass on the pre-adaptation digest.
  EXPECT_GT(commits[0], 0);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
  EXPECT_EQ(commits[0], commits[1]);
  EXPECT_EQ(commits[1], commits[2]);
}

// A cold restart (no state dir) must not count the dying incarnation's
// adaptation twice: its stats are folded into the shard totals once, and
// the restarted shard serves through a fresh wrapper that starts from zero.
TEST(DaemonAdaptTest, ColdRestartCountsAdaptationOnce) {
  FleetOptions opt;
  opt.shards = 1;
  opt.adapt = true;
  opt.aopt = HotAdaptOptions();
  auto daemon = MakeFleet(opt);  // no state_root: cold restarts
  fault::ScopedFaults faults("daemon.shard.crash:every=1:after=40:max=2");
  const serve::SloReport report = RunLoad(daemon.get(), 160, 3.0, 3.0);
  EXPECT_EQ(report.crashes_injected, 2);
  EXPECT_EQ(report.restarts, 2);
  EXPECT_EQ(report.restarts_from_checkpoint, 0);
  EXPECT_GT(report.adapt.observed, 0);
  // Each observed sample needs an applied observe, in every incarnation.
  EXPECT_LE(report.adapt.observed, report.observes_applied);
  ExpectFullyAttributed(report);
  ExpectAdaptAttributed(report.adapt);
}

// Every rejected attempt must restore the snapshot bit-exactly: with
// serve.adapt.reject forcing rejection on every attempt, the weights after
// the run are byte-identical to the weights before it.
TEST(DaemonAdaptTest, RejectedAttemptsRollBackBitExactly) {
  FleetOptions opt;
  opt.shards = 1;
  opt.adapt = true;
  opt.aopt = HotAdaptOptions();
  opt.aopt.freeze_after = 1000;  // keep attempting; freeze tested separately
  auto daemon = MakeFleet(opt);
  auto* adaptive = daemon->shard(0)->stack().adaptive.get();
  ASSERT_NE(adaptive, nullptr);
  auto before = adaptive->trainee()->CaptureParams();
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  fault::ScopedFaults faults("serve.adapt.reject:every=1");
  const serve::SloReport report = RunLoad(daemon.get(), 120, 3.0, 3.0);
  EXPECT_GT(report.adapt.attempts, 0);
  EXPECT_EQ(report.adapt.commits, 0);
  EXPECT_EQ(report.adapt.rollbacks_reject, report.adapt.attempts);
  ExpectAdaptAttributed(report.adapt);

  auto after = adaptive->trainee()->CaptureParams();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectParamsBitIdentical(*before, *after);
}

// Consecutive failed attempts trip the sticky freeze; once the injected
// failures stop, the hysteresis probe attempts again and a committed probe
// unfreezes the wrapper.
TEST(DaemonAdaptTest, FreezeTripsAndProbeRecovers) {
  FleetOptions opt;
  opt.shards = 1;
  opt.adapt = true;
  opt.aopt = HotAdaptOptions();
  opt.aopt.freeze_after = 2;
  opt.aopt.frozen_probe_after = 16;
  auto daemon = MakeFleet(opt);
  {
    // Exactly two attempts fail, then the site disarms: the second failure
    // trips the freeze. 28 ticks is past both attempts (~ring fill + one
    // cooldown) but short of the probe horizon, so the run ends frozen.
    fault::ScopedFaults faults("serve.adapt.nan:every=1:max=2");
    const serve::SloReport mid = RunLoad(daemon.get(), 28, 3.0, 3.0);
    EXPECT_EQ(mid.adapt.rollbacks_nan, 2);
    EXPECT_EQ(mid.adapt.freezes, 1);
    EXPECT_TRUE(mid.adapt.frozen);
    ExpectAdaptAttributed(mid.adapt);
  }
  {
    // Fault gone: after frozen_probe_after observed steps a probe runs,
    // commits, and lifts the freeze. (The wrapper may legitimately freeze
    // and recover again later in the stream, so the sticky counters are
    // lower bounds.)
    fault::ScopedFaults off("");
    const serve::SloReport report = RunLoad(daemon.get(), 120, 3.0, 3.0);
    EXPECT_GT(report.adapt.attempts, 2);
    EXPECT_GT(report.adapt.commits, 0);
    EXPECT_GE(report.adapt.unfreezes, 1);
    EXPECT_GE(report.adapt.freezes, 1);
    ExpectAdaptAttributed(report.adapt);
  }
}

// The adaptation chaos soak: every adapt fault plus shard crashes, over a
// checkpointing fleet whose restarts reload the model. No crash, every
// attempt attributed to a commit or exactly one rollback kind, and the
// A/B harness keeps scoring across restarts.
TEST(DaemonAdaptTest, AdaptFaultSoakAttributesEveryAttempt) {
  const std::string state_root = ::testing::TempDir() + "/daemon_adapt_soak";
  FleetOptions opt;
  opt.shards = 2;
  opt.adapt = true;
  opt.aopt = HotAdaptOptions();
  opt.aopt.freeze_after = 3;
  opt.aopt.frozen_probe_after = 24;
  opt.state_root = state_root;
  opt.with_reloader = true;
  auto daemon = MakeFleet(opt);
  fault::ScopedFaults faults(
      "serve.adapt.nan:every=3,serve.adapt.reject:every=4,"
      "serve.adapt.error:every=5,serve.adapt.delay:every=7:ms=1,"
      "daemon.shard.crash:every=83");
  const serve::SloReport report = RunLoad(daemon.get(), 300, 3.0, 10.0);
  EXPECT_GT(report.adapt.attempts, 0);
  EXPECT_GT(report.adapt.Rollbacks(), 0);
  EXPECT_GT(report.adapt.rollbacks_nan, 0);
  EXPECT_GT(report.crashes_injected, 0);
  EXPECT_GT(report.restarts_from_checkpoint, 0);
  EXPECT_GT(report.adapt.pairs, 0);
  ExpectFullyAttributed(report);
  ExpectAdaptAttributed(report.adapt);
}

// --- the restart contract ----------------------------------------------------

// Every spec x {cold restart, restart from checkpoint}: the restarted shard
// serves through exactly the spec's layers, every wrapper is fresh (zeroed
// stats), and a checkpoint restart serves model.ckpt's parameters.
const char* LayersName(bool adapt) { return adapt ? "adapt" : "plain"; }

/// (adapt, from_checkpoint)
class ShardRestartTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(ShardRestartTest, RestartBuildsTheSpecsLayersFresh) {
  const auto [adapt, from_checkpoint] = GetParam();
  FleetOptions opt;
  opt.shards = 1;
  opt.adapt = adapt;
  opt.aopt = HotAdaptOptions();
  if (from_checkpoint) {
    opt.state_root = ::testing::TempDir() + "/restart_contract_" +
                     LayersName(adapt);
    std::filesystem::remove_all(opt.state_root);
    opt.with_reloader = true;
  }
  auto daemon = MakeFleet(opt);
  {
    fault::ScopedFaults off("");
    RunLoad(daemon.get(), 60, 3.0, 3.0);
  }
  serve::Shard* shard = daemon->shard(0);
  if (opt.adapt) {
    ASSERT_GT(shard->stack().adaptive->stats().steps, 0);
  }

  shard->BeginQuarantine(daemon->now_tick(), /*injected_crash=*/false);
  ASSERT_TRUE(shard->Restart().ok());
  EXPECT_EQ(shard->Totals().restarts_from_checkpoint, from_checkpoint ? 1 : 0);

  const serve::ServingStack& stack = shard->stack();
  ASSERT_NE(stack.base, nullptr);
  EXPECT_EQ(stack.adaptive != nullptr, opt.adapt);
  EXPECT_EQ(shard->model(), stack.top());
  if (stack.adaptive != nullptr) {
    const serve::AdaptStats& a = stack.adaptive->stats();
    EXPECT_EQ(a.steps, 0);
    EXPECT_EQ(a.observed, 0);
    EXPECT_EQ(a.triggers, 0);
    EXPECT_EQ(a.attempts, 0);
    EXPECT_EQ(a.commits, 0);
    EXPECT_EQ(a.pairs, 0);
  }
  if (from_checkpoint) {
    auto saved = core::LoadForecasterFromCheckpoint(opt.state_root +
                                                    "/s0/model.ckpt");
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    auto want = static_cast<NeuralForecaster*>(saved->get())->CaptureParams();
    auto got = stack.checkpointable()->CaptureParams();
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectParamsBitIdentical(*want, *got);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ShardRestartTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(LayersName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_from_checkpoint" : "_cold");
    });

}  // namespace
}  // namespace ealgap
