#ifndef EALGAP_SERVE_QUANTIZED_FORECASTER_H_
#define EALGAP_SERVE_QUANTIZED_FORECASTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/neural.h"
#include "common/result.h"

namespace ealgap {
namespace serve {

/// Drift-guard configuration for QuantizedForecaster.
struct QuantOptions {
  /// Shadow parity probe cadence: on steps with target_step divisible by
  /// this, the float forward also runs and the per-region drift of the
  /// quantized output is measured against it. 0 disables probing (the
  /// quantized path then serves unconditionally). The probe predicate is
  /// input-determined, so replays are deterministic at any thread count.
  int64_t check_every = 64;
  /// Maximum tolerated per-region relative drift |q - f| / max(|f|,
  /// abs_floor). A probe above this trips the guard: the step is served
  /// from the float values and every later step serves float — a
  /// deterministic, sticky fallback. The default is loose on purpose:
  /// near-zero counts quantize coarsely under per-tensor activation
  /// scales (relative drift ~0.4 on real trip data is normal and does
  /// not move ER/MSLE), so the guard's job is catching genuine
  /// quantization blowups, not enforcing tight parity on tiny counts.
  double drift_threshold = 0.5;
  /// Denominator floor of the relative drift (counts near zero would
  /// otherwise turn rounding noise into huge ratios).
  double abs_floor = 1.0;
};

/// Drift-guard telemetry, attributed in the serve/daemon reports.
struct QuantStats {
  int64_t quant_steps = 0;   ///< steps served by the int8 path
  int64_t float_steps = 0;   ///< steps served float (post-trip or probes' serve)
  int64_t probes = 0;        ///< shadow parity probes run
  int64_t drift_trips = 0;   ///< probes whose drift exceeded the threshold
  double max_drift = 0.0;    ///< largest per-region relative drift probed
  bool tripped = false;      ///< guard is tripped (serving float)

  /// Folds another incarnation's counters in (daemon restart accounting;
  /// max_drift takes the larger value, the sticky trip is OR'd).
  void Accumulate(const QuantStats& other);
};

/// Wraps a fitted NeuralForecaster so the serve path runs its forward
/// passes through the int8 quantized kernels (nn/quant.cc), guarded by a
/// shadow float-parity probe:
///
///   - healthy: every PredictSample* runs under quant mode — bit-identical
///     across SIMD backends and thread counts (int32 accumulation);
///   - probe steps (target_step % check_every == 0): the float forward
///     runs too; drift above the threshold (or an armed `nn.quant.drift`
///     fault) trips the guard;
///   - tripped: this step and all later steps serve the float model — the
///     fallback is sticky and deterministic, and the serving chain above
///     (ResilientPredictor) keeps its own independent degradation logic.
///
/// The wrapper implements Forecaster, so it slots directly under
/// OnlinePredictor/ResilientPredictor; name() delegates to the inner model
/// so serve-state files stay interchangeable between float and quantized
/// serving. Concurrent PredictSample calls are safe (stats are atomic);
/// streams sharing one wrapper share its trip state, so bit-exact replay
/// guarantees apply per single-stream predictor.
class QuantizedForecaster : public Forecaster {
 public:
  /// `inner` must be fitted (Fit or LoadCheckpoint) and outlive the
  /// wrapper; its Linears are packed here (repacking is idempotent).
  static Result<std::unique_ptr<QuantizedForecaster>> Create(
      NeuralForecaster* inner, QuantOptions options = {});

  std::string name() const override;
  bool SupportsStreaming() const override;

  /// Refits the inner model, then rebuilds the int8 packs.
  Status Fit(const data::SlidingWindowDataset& dataset,
             const data::StepRanges& split, const TrainConfig& config) override;

  Result<std::vector<double>> Predict(const data::SlidingWindowDataset& dataset,
                                      int64_t target_step) override;

  Result<std::vector<double>> PredictSample(
      const data::WindowSample& sample) override;

  /// Zero-allocation serve step (same contract as the inner forecaster's):
  /// quantized forward, shadow probe on schedule, sticky float fallback.
  Status PredictSampleInto(const data::WindowSample& sample,
                           std::vector<double>* out) override;

  /// Snapshot of the drift-guard counters.
  QuantStats stats() const;

  /// Guard state; once true every step serves float.
  bool tripped() const { return tripped_.load(std::memory_order_relaxed); }

  /// Trips the guard from outside the probe path (sticky, attributed in
  /// drift_trips): AdaptivePredictor calls this when a committed adaptation
  /// invalidates the int8 packs and the repack fails — serving a stale pack
  /// is never an option, so the wrapper degrades to float.
  void TripFloatFallback() {
    if (!tripped_.exchange(true, std::memory_order_relaxed)) {
      drift_trips_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  NeuralForecaster* inner() { return inner_; }
  const QuantOptions& options() const { return options_; }

 private:
  QuantizedForecaster(NeuralForecaster* inner, QuantOptions options);

  NeuralForecaster* inner_;
  QuantOptions options_;

  std::atomic<bool> tripped_{false};
  std::atomic<int64_t> quant_steps_{0};
  std::atomic<int64_t> float_steps_{0};
  std::atomic<int64_t> probes_{0};
  std::atomic<int64_t> drift_trips_{0};
  /// max drift as a CAS-max over the double's bit pattern (non-negative
  /// doubles order like their bits).
  std::atomic<uint64_t> max_drift_bits_{0};
};

}  // namespace serve
}  // namespace ealgap

#endif  // EALGAP_SERVE_QUANTIZED_FORECASTER_H_
