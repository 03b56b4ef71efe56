#ifndef EALGAP_SERVE_DAEMON_H_
#define EALGAP_SERVE_DAEMON_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/load_gen.h"
#include "serve/shard.h"

namespace ealgap {
namespace serve {

/// Daemon-level policy. Everything that decides WHAT happens is virtual
/// (ticks, counts, seeds); wall-clock enters only as the model-attempt
/// latency budget, min(model_deadline_ms, (remaining + 1) * ms_per_tick).
/// An injected delay or a host stall longer than that budget fires
/// kDeadline, so runs replay bit-identically only when no model attempt
/// exceeds its wall-clock budget. Setting both model_deadline_ms and
/// ms_per_tick to 0 takes wall-clock out of the decisions entirely.
struct DaemonConfig {
  /// Max requests popped per shard per tick. Backlog beyond this stays
  /// queued (and may expire) — the serve loop's work per tick is bounded
  /// no matter how deep the queues run.
  int batch_max = 64;
  /// Per-request deadline budget in ticks (admission stamp). A request
  /// not served within its budget is answered from the fallback chain,
  /// never by a late model answer. <= 0 disables deadlines.
  int64_t deadline_ticks = 8;
  /// Wall-clock milliseconds one tick's budget is worth when propagating
  /// the REMAINING budget into ResilientPredictor::deadline_ms.
  double ms_per_tick = 10.0;
  /// Hard cap on any single model attempt (ms); the propagated deadline
  /// is min(cap, remaining budget). <= 0 means only the budget applies.
  double model_deadline_ms = 50.0;
};

/// The daemon's SLO accounting. Conservation law: every ingested request
/// is served, shed, expired-to-fallback, or still queued at report time —
/// Unattributed*() must be zero, and the chaos harness asserts it.
struct SloReport {
  int64_t ticks = 0;

  // Predict requests.
  int64_t predict_requests = 0;
  int64_t served_model = 0;      ///< answered by the full model
  int64_t served_degraded = 0;   ///< answered by the degradation chain
  int64_t expired_fallback = 0;  ///< deadline blown in queue; fallback answer
  int64_t shed_overload_predict = 0;
  int64_t shed_quarantine_predict = 0;
  int64_t queued_predict = 0;  ///< still in queues at report time
  std::array<int64_t, kNumDegradeCauses> degraded_by_cause{};
  std::array<int64_t, kNumFallbackLevels> served_by_level{};

  // Observe requests.
  int64_t observe_requests = 0;
  int64_t observes_applied = 0;
  int64_t observes_guard_rejected = 0;
  int64_t shed_overload_observe = 0;
  int64_t shed_quarantine_observe = 0;
  int64_t queued_observe = 0;

  /// Adaptation telemetry, folded from every shard across restarts
  /// (all-zero when the stacks lack the wrapper). Adaptation has its own
  /// conservation law — attempts == commits + rollbacks — riding along
  /// with the request law: adapt.UnattributedAdaptations() must be zero.
  AdaptStats adapt;

  // Supervisor.
  int64_t crashes_injected = 0;
  int64_t stall_ticks_injected = 0;
  int64_t watchdog_quarantines = 0;
  int64_t restarts = 0;
  int64_t restarts_from_checkpoint = 0;
  int64_t checkpoints_written = 0;
  int64_t checkpoint_failures = 0;

  // Wall-clock telemetry (reported, never part of the replay digest).
  double mean_ms = 0.0, p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;  ///< predict answers per wall second

  int64_t UnattributedPredicts() const {
    return predict_requests -
           (served_model + served_degraded + expired_fallback +
            shed_overload_predict + shed_quarantine_predict + queued_predict);
  }
  int64_t UnattributedObserves() const {
    return observe_requests -
           (observes_applied + observes_guard_rejected +
            shed_overload_observe + shed_quarantine_observe + queued_observe);
  }
  int64_t DegradedCauseMismatch() const {
    int64_t by_cause = 0;
    for (int64_t c : degraded_by_cause) by_cause += c;
    return served_degraded - by_cause;
  }
};

/// Overload-safe sharded serving daemon (DESIGN.md §8f).
///
/// Owns many Shards and advances them in discrete virtual-time ticks:
///
///   supervisor: due restarts run; daemon.shard.crash / daemon.shard.stall
///               fault sites fire (per shard, in index order — replayable);
///   ingest:     one feed Observe per shard plus the load generator's
///               Predict arrivals are admitted through each shard's
///               bounded queue. Full queue (or daemon.queue.full) =>
///               deterministic shed, attributed kOverload; quarantined
///               shard => shed kQuarantined. Nothing ever grows unbounded.
///   drain:      up to batch_max requests pop per shard; observes apply
///               through the guards; predicts coalesce;
///   serve:      one forward pass per shard answers every coalesced
///               predict, fanned across shards on the process thread pool
///               (per-shard work is independent, so the fan-out is
///               bit-identical at any thread count). Each pass carries the
///               coalesced batch's tightest remaining deadline budget.
///               Requests already past their deadline get the matched-mean
///               fallback instead — late answers degrade, they never block;
///   watchdog:   each served step feeds the shard's health counters;
///               tripping thresholds quarantines the shard, drains its
///               queue as attributed sheds, and schedules a restart from
///               the last CRC'd checkpoint with probation hysteresis;
///   checkpoint: periodic predictor-state snapshots per cadence.
///
/// digest() is a CRC over everything the daemon decided and served —
/// values, sources, causes, sheds, restarts, in deterministic order, with
/// wall-clock telemetry excluded — so a no-fault replay with the same
/// seed is bit-identical across runs and thread counts (asserted by
/// tests/daemon_test.cc), and a fault-armed single-thread replay is too.
class Daemon {
 public:
  explicit Daemon(DaemonConfig config);

  void AddShard(std::unique_ptr<Shard> shard);
  int num_shards() const { return static_cast<int>(shards_.size()); }
  Shard* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }

  /// One virtual tick; `predict_arrivals[s]` Predict requests arrive at
  /// shard s (usually from LoadGen::ArrivalsAt).
  void Tick(const std::vector<int>& predict_arrivals);

  /// Drives `ticks` ticks from the load generator (which must have
  /// num_shards streams) and returns the finalized SLO report.
  SloReport Run(LoadGen* gen, int64_t ticks);

  /// Running totals + queue occupancy + latency percentiles, finalized
  /// on demand (Run() returns the same thing).
  SloReport Report() const;

  /// Deterministic replay digest (see class comment).
  uint32_t digest() const { return digest_; }
  int64_t now_tick() const { return tick_; }

 private:
  void DigestAdd(uint64_t word);
  void DigestAddValues(const std::vector<double>& values);

  void Shed(int shard_index, const Request& request, RejectCause cause);
  void DrainQueueAsShed(int shard_index, RejectCause cause);
  void Quarantine(int shard_index, bool injected_crash);
  void EnqueueOrShed(int shard_index, const Request& request);

  DaemonConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  int64_t tick_ = 0;
  int64_t next_request_id_ = 0;
  uint32_t digest_ = 0;
  /// Live queue occupancy by kind, maintained at push/pop time on the
  /// supervisor thread — deliberately independent of the SLO counters so
  /// the conservation law is a cross-check, not a definition.
  int64_t inq_predict_ = 0;
  int64_t inq_observe_ = 0;

  SloReport stats_;  ///< running counters (queue/latency fields unset)
  std::vector<double> latency_ms_;
  double wall_seconds_ = 0.0;

  // Per-tick scratch, reused.
  std::vector<uint8_t> stalled_;
  std::vector<std::vector<Request>> pending_;  // popped predicts per shard
  std::vector<int> active_;                    // shards with pending work
  std::vector<double> deadline_ms_;            // propagated budget per active
  std::vector<uint8_t> serve_ok_;
  std::vector<double> serve_ms_;
  std::vector<uint8_t> has_live_;  // active shard has unexpired predicts
};

}  // namespace serve
}  // namespace ealgap

#endif  // EALGAP_SERVE_DAEMON_H_
