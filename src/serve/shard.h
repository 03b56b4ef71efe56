#ifndef EALGAP_SERVE_SHARD_H_
#define EALGAP_SERVE_SHARD_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/forecaster.h"
#include "common/bounded_queue.h"
#include "common/result.h"
#include "data/dataset.h"
#include "serve/online_predictor.h"
#include "serve/resilient_predictor.h"
#include "serve/stack.h"

namespace ealgap {
namespace serve {

/// One unit of work flowing through a shard's bounded queue. Requests are
/// plain values (no heap payload) so the queue cells never allocate:
/// an Observe carries the feed step it reports and the daemon resolves
/// the actual counts from the shard's feed at service time.
enum class RequestKind : uint8_t { kObserve = 0, kPredict = 1 };

struct Request {
  RequestKind kind = RequestKind::kPredict;
  int64_t id = 0;            ///< globally unique, for attribution
  int64_t arrival_tick = 0;  ///< virtual tick the request arrived
  int64_t deadline_tick = -1;  ///< absolute tick budget; < 0 = none
  int64_t feed_step = 0;     ///< kObserve: stream step being reported
};

/// Why a request was shed instead of served. Every rejected request is
/// attributed to exactly one cause — the SLO report's conservation law
/// (served + shed == ingested) depends on it.
enum class RejectCause {
  kOverload = 0,    ///< bounded queue full: admission control shed it
  kQuarantined = 1, ///< shard is quarantined/restarting
  kExpired = 2,     ///< deadline passed while queued; answered by fallback
};
constexpr int kNumRejectCauses = 3;
const char* RejectCauseName(RejectCause cause);

/// Watchdog health of a shard, supervised by the daemon.
///  kServing     normal operation.
///  kProbation   restarted recently; must serve `probation_steps` healthy
///               model steps before it counts as recovered (hysteresis,
///               so a flapping shard cannot bounce serving<->quarantine
///               every tick).
///  kQuarantined fenced off: requests are shed, a restart is scheduled.
enum class ShardHealth { kServing = 0, kProbation = 1, kQuarantined = 2 };
const char* ShardHealthName(ShardHealth health);

/// Watchdog thresholds. All counters are step/tick-based (virtual time),
/// never wall-clock, so supervised runs replay deterministically.
struct WatchdogPolicy {
  /// Consecutive model failures (non-finite / error / deadline) before
  /// the shard is declared sick and quarantined.
  int max_consecutive_failures = 4;
  /// Consecutive degraded-served steps (any fallback source) tolerated
  /// before quarantine — catches a model that is "up" but useless.
  int max_degraded_steps = 32;
  /// Consecutive stalled ticks (queue not drained) before quarantine.
  int max_stalled_ticks = 4;
  /// Healthy full-model steps required to leave probation.
  int probation_steps = 3;
  /// Virtual ticks a quarantined shard stays down before its restart
  /// (simulated process respawn + checkpoint load time).
  int restart_ticks = 2;
};

struct ShardConfig {
  std::string name = "shard";
  size_t queue_capacity = 128;
  /// Directory for this shard's CRC'd checkpoints (model + predictor
  /// state). Empty => restarts re-seed from the original dataset instead
  /// of loading from disk (in-memory restart; still deterministic).
  std::string state_dir;
  /// Predictor-state checkpoint cadence in applied observes. The initial
  /// checkpoint is always written at creation so a restart can never find
  /// nothing.
  int checkpoint_every_steps = 16;
  WatchdogPolicy watchdog;
  /// Guard policy applied to every (re)created predictor. Daemons default
  /// to impute with a generous max_gap_steps: steps lost while a shard was
  /// quarantined come back as a gap on the first post-restart observe, and
  /// the guard must absorb it instead of rejecting the feed forever.
  GuardPolicy guard;
  ResilienceOptions resilience;
  /// Wrappers every incarnation serves through; each restart builds them
  /// afresh around its base model (BuildStack). Empty: the base itself.
  StackSpec stack;
};

/// Loads the bare base model from a checkpoint path. Callers pass
/// core::LoadForecasterFromCheckpoint itself (serve cannot link core).
/// When absent, restarts rebuild the stack around the in-memory base,
/// which carries any committed adaptation; the reloader additionally
/// rehearses the model-file load path.
using ModelReloader =
    std::function<Result<std::unique_ptr<Forecaster>>(const std::string&)>;

/// Per-shard lifetime counters, accumulated ACROSS restarts (the live
/// predictor/chain counters die with each incarnation).
struct ShardTotals {
  int64_t crashes = 0;            ///< injected daemon.shard.crash fires
  int64_t stall_ticks = 0;        ///< injected daemon.shard.stall ticks
  int64_t quarantines = 0;        ///< watchdog + crash fences
  int64_t restarts = 0;
  int64_t restarts_from_checkpoint = 0;  ///< vs cold re-seeds
  int64_t checkpoints_written = 0;
  int64_t checkpoint_failures = 0;
  int64_t observes_applied = 0;
  int64_t observes_rejected = 0;  ///< guard-rejected (attributed)
  int64_t predicts_model = 0;
  int64_t predicts_degraded = 0;
  std::array<int64_t, kNumDegradeCauses> degraded_by_cause{};
  std::array<int64_t, kNumFallbackLevels> served_by_level{};
  /// Guard repair/quarantine counters folded in from every incarnation.
  int64_t repaired_values = 0;
  int64_t gap_steps_filled = 0;
  std::vector<int64_t> quarantine_by_region;
  /// Adaptation telemetry folded in from every incarnation (all-zero unless
  /// the stack carries the wrapper).
  AdaptStats adapt;
};

/// One serving shard: a ResilientPredictor chain over an OnlinePredictor
/// over the shard's ServingStack, fed through a bounded MPSC queue,
/// supervised by the daemon's watchdog, and restartable from its last
/// CRC'd checkpoint. The shard owns its dataset slice — it doubles as the
/// replay feed (the synthetic sensor) and as the cold-restart seed.
///
/// Thread contract: Enqueue() is safe from any thread (that is the
/// queue's job); everything else is called by the daemon loop — either
/// from the single supervisor thread, or (ServePredictStep only) from at
/// most one pool worker at a time during the cross-shard fan-out.
class Shard {
 public:
  /// `serve_begin` is the stream step serving starts at (usually the
  /// dataset's test_begin). Writes the initial checkpoint when state_dir
  /// is set. The dataset must outlive nothing — it is moved in.
  static Result<std::unique_ptr<Shard>> Create(
      data::SlidingWindowDataset dataset, std::unique_ptr<Forecaster> model,
      int64_t serve_begin, ShardConfig config,
      ModelReloader reloader = nullptr);

  const std::string& name() const { return config_.name; }
  ShardHealth health() const { return health_; }
  int64_t restart_at_tick() const { return restart_at_tick_; }
  BoundedQueue<Request>& queue() { return *queue_; }

  // --- feed (the synthetic sensor stream) ----------------------------------
  /// Returns the next stream step the feed reports, advancing the cursor.
  /// The feed advances regardless of shard health: a quarantined shard's
  /// sensor keeps measuring, which is what creates the post-restart gap.
  int64_t TakeFeedStep() { return next_feed_step_++; }
  /// Counts for stream step `step`, cycled over the dataset's serve range
  /// (long soaks outlive the recorded series). Returns a reference to
  /// member scratch.
  const std::vector<double>& FeedCounts(int64_t step);

  // --- serving -------------------------------------------------------------
  /// Applies one Observe through the guard chain. A guard rejection is
  /// counted (observes_rejected) and reported OK here: the feed is
  /// advancing, the rejection is attributed, the loop must not stop.
  void ApplyObserve(const Request& request);

  /// One coalesced model step: every pending Predict popped this tick is
  /// answered from this single forward pass. `deadline_ms` is the
  /// propagated remaining budget (<= 0 disables). The result lands in
  /// last_served(). Returns false only on an internal chain error (the
  /// daemon then quarantines the shard).
  bool ServePredictStep(double deadline_ms);
  const ServedPrediction& last_served() const { return last_served_; }

  /// Fallback-only answer for requests whose deadline already expired at
  /// dequeue: matched-mean (never touches the model, never blocks).
  const std::vector<double>& ExpiredFallback();

  // --- watchdog (driven by the daemon, single-threaded) --------------------
  /// Folds the last served step into the health counters. Returns true
  /// when the watchdog verdict is "quarantine this shard now".
  bool NoteServedStep();
  /// Counts a stalled tick; true when the stall streak trips the watchdog.
  bool NoteStalledTick();
  void NoteDrainedTick() { stalled_streak_ = 0; }

  /// Fences the shard and schedules its restart.
  void BeginQuarantine(int64_t now_tick, bool injected_crash);

  /// Folds the dying incarnation's counters into totals, then starts a
  /// new one in probation: fresh wrappers (BuildStack) around the reloaded
  /// model checkpoint, or around the in-memory base on a cold restart or a
  /// failed reload; the predictor restored from its CRC'd checkpoint, or
  /// re-seeded from the dataset when there is none / no state_dir.
  Status Restart();

  /// Writes the periodic predictor-state checkpoint when the cadence says
  /// so. Failures are counted, never fatal (the previous checkpoint
  /// survives — that is WriteFileAtomic's contract). When the stack carries
  /// an AdaptivePredictor, committed adaptations also re-save the
  /// model checkpoint (so a quarantine-restart resumes the adapted
  /// weights) and the adapt state rides along on the same cadence.
  void MaybeCheckpoint();

  /// Runs at most one deferred adaptation attempt (no-op unless the stack
  /// carries an AdaptivePredictor and the shard is not quarantined).
  /// Called by the daemon's single-threaded supervisor phase, never during
  /// the serve fan-out.
  Result<AdaptEvent> MaybeAdapt();

  /// Lifetime totals + the live incarnation's counters folded together.
  ShardTotals Totals() const;

  OnlinePredictor* predictor() { return predictor_.get(); }
  /// The served model: the stack's top (the base model under an empty
  /// spec). Every restart replaces it; do not hold across ticks.
  Forecaster* model() { return stack_.top(); }
  /// The live incarnation's layers. Same lifetime caveat as model().
  const ServingStack& stack() const { return stack_; }

 private:
  Shard() = default;

  std::string StatePath() const { return config_.state_dir + "/predictor.state"; }
  std::string ModelPath() const { return config_.state_dir + "/model.ckpt"; }
  std::string AdaptStatePath() const {
    return config_.state_dir + "/adapt.state";
  }

  /// Builds predictor+chain around the stack's top from a fresh dataset
  /// seed.
  Status SeedPredictor();
  /// Installs `predictor` with the configured guard and its chain.
  void WirePredictor(OnlinePredictor predictor);
  /// Folds the live incarnation's guard and wrapper counters into `totals`.
  void FoldIncarnation(ShardTotals* totals) const;

  ShardConfig config_;
  data::SlidingWindowDataset dataset_;
  ServingStack stack_;
  ModelReloader reloader_;
  int64_t serve_begin_ = 0;

  std::unique_ptr<BoundedQueue<Request>> queue_;
  std::unique_ptr<OnlinePredictor> predictor_;
  std::unique_ptr<ResilientPredictor> resilient_;

  ShardHealth health_ = ShardHealth::kServing;
  int64_t restart_at_tick_ = -1;
  int consecutive_model_failures_ = 0;
  int degraded_streak_ = 0;
  int stalled_streak_ = 0;
  int probation_healthy_ = 0;

  int64_t next_feed_step_ = 0;
  int64_t observes_since_checkpoint_ = 0;
  /// Commits already persisted into ModelPath(); a difference at the next
  /// checkpoint cadence re-saves the model file.
  int64_t adapt_commits_checkpointed_ = 0;

  ServedPrediction last_served_;
  std::vector<double> feed_scratch_;
  std::vector<double> expired_scratch_;

  ShardTotals totals_;
};

}  // namespace serve
}  // namespace ealgap

#endif  // EALGAP_SERVE_SHARD_H_
