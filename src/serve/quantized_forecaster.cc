#include "serve/quantized_forecaster.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/fault_injection.h"
#include "nn/quant.h"

namespace ealgap {
namespace serve {

namespace {

/// Lock-free max over non-negative doubles (their bit patterns order like
/// their values).
void AtomicMax(std::atomic<uint64_t>& bits, double d) {
  uint64_t cur = bits.load(std::memory_order_relaxed);
  const uint64_t nb = std::bit_cast<uint64_t>(d);
  while (std::bit_cast<double>(cur) < d &&
         !bits.compare_exchange_weak(cur, nb, std::memory_order_relaxed)) {
  }
}

}  // namespace

void QuantStats::Accumulate(const QuantStats& other) {
  quant_steps += other.quant_steps;
  float_steps += other.float_steps;
  probes += other.probes;
  drift_trips += other.drift_trips;
  max_drift = std::max(max_drift, other.max_drift);
  tripped = tripped || other.tripped;
}

QuantizedForecaster::QuantizedForecaster(NeuralForecaster* inner,
                                         QuantOptions options)
    : inner_(inner), options_(options) {}

Result<std::unique_ptr<QuantizedForecaster>> QuantizedForecaster::Create(
    NeuralForecaster* inner, QuantOptions options) {
  if (inner == nullptr) {
    return Status::InvalidArgument("QuantizedForecaster needs a model");
  }
  EALGAP_ASSIGN_OR_RETURN(int64_t packed, inner->PackQuantized());
  if (packed == 0) {
    return Status::InvalidArgument(
        inner->name() +
        " has no quantizable Linear layers (every layer is narrower than "
        "nn::quant::kQuantMinDim on some side)");
  }
  return std::unique_ptr<QuantizedForecaster>(
      new QuantizedForecaster(inner, options));
}

std::string QuantizedForecaster::name() const { return inner_->name(); }

bool QuantizedForecaster::SupportsStreaming() const {
  return inner_->SupportsStreaming();
}

Status QuantizedForecaster::Fit(const data::SlidingWindowDataset& dataset,
                                const data::StepRanges& split,
                                const TrainConfig& config) {
  EALGAP_RETURN_IF_ERROR(inner_->Fit(dataset, split, config));
  // Weights changed: the packs must be rebuilt before the next serve.
  EALGAP_ASSIGN_OR_RETURN(int64_t packed, inner_->PackQuantized());
  (void)packed;
  return Status::OK();
}

Result<std::vector<double>> QuantizedForecaster::Predict(
    const data::SlidingWindowDataset& dataset, int64_t target_step) {
  // Routed through the sample path so offline evaluation exercises the
  // same quantized forward + drift guard the serve loop runs.
  return PredictSample(dataset.MakeSample(target_step));
}

Result<std::vector<double>> QuantizedForecaster::PredictSample(
    const data::WindowSample& sample) {
  std::vector<double> out;
  EALGAP_RETURN_IF_ERROR(PredictSampleInto(sample, &out));
  return out;
}

Status QuantizedForecaster::PredictSampleInto(const data::WindowSample& sample,
                                              std::vector<double>* out) {
  if (tripped_.load(std::memory_order_relaxed)) {
    float_steps_.fetch_add(1, std::memory_order_relaxed);
    return inner_->PredictSampleInto(sample, out);
  }
  {
    nn::quant::ScopedQuantMode quant_mode;
    EALGAP_RETURN_IF_ERROR(inner_->PredictSampleInto(sample, out));
  }
  const bool scheduled_probe =
      options_.check_every > 0 &&
      sample.target_step % options_.check_every == 0;
  const bool forced_trip =
      fault::Armed() && fault::ShouldFail("nn.quant.drift");
  if (!scheduled_probe && !forced_trip) {
    quant_steps_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  // Shadow parity probe: the float forward runs too and the quantized
  // output's worst per-region relative drift is measured against it. The
  // buffer is thread-local with reused capacity, so probing keeps the
  // zero-allocation steady state.
  static thread_local std::vector<double> float_values;
  EALGAP_RETURN_IF_ERROR(inner_->PredictSampleInto(sample, &float_values));
  probes_.fetch_add(1, std::memory_order_relaxed);
  double drift = 0.0;
  const size_t n = std::min(out->size(), float_values.size());
  for (size_t i = 0; i < n; ++i) {
    const double f = float_values[i];
    const double denom = std::max(std::fabs(f), options_.abs_floor);
    const double d = std::fabs((*out)[i] - f) / denom;
    if (d > drift) drift = d;
  }
  AtomicMax(max_drift_bits_, drift);

  if (forced_trip || drift > options_.drift_threshold) {
    drift_trips_.fetch_add(1, std::memory_order_relaxed);
    tripped_.store(true, std::memory_order_relaxed);
    // The tripping step itself is served from the float values, so the
    // fallback boundary is exact: quantized output never ships once drift
    // is detected.
    std::copy(float_values.begin(), float_values.begin() + n, out->begin());
    float_steps_.fetch_add(1, std::memory_order_relaxed);
  } else {
    quant_steps_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

QuantStats QuantizedForecaster::stats() const {
  QuantStats s;
  s.quant_steps = quant_steps_.load(std::memory_order_relaxed);
  s.float_steps = float_steps_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  s.drift_trips = drift_trips_.load(std::memory_order_relaxed);
  s.max_drift =
      std::bit_cast<double>(max_drift_bits_.load(std::memory_order_relaxed));
  s.tripped = tripped_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace serve
}  // namespace ealgap
