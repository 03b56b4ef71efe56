#include "serve/online_predictor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/state_file.h"
#include "common/thread_pool.h"

namespace ealgap {
namespace serve {

namespace {
/// Ceiling on a restored predictor's matched-statistic storage (4 GiB of
/// floats): far above any geometry in use, low enough that a forged
/// geometry cannot drive an unbounded allocation.
constexpr int64_t kMaxSlotValues = int64_t{1} << 30;
}  // namespace

Result<RepairPolicy> ParseRepairPolicy(const std::string& name) {
  if (name == "reject") return RepairPolicy::kReject;
  if (name == "hold-last") return RepairPolicy::kHoldLast;
  if (name == "impute") return RepairPolicy::kImpute;
  return Status::InvalidArgument(
      "unknown repair policy '" + name +
      "' (expected reject, hold-last, or impute)");
}

const char* RepairPolicyName(RepairPolicy policy) {
  switch (policy) {
    case RepairPolicy::kReject: return "reject";
    case RepairPolicy::kHoldLast: return "hold-last";
    case RepairPolicy::kImpute: return "impute";
  }
  return "unknown";
}

bool OnlinePredictor::IsWeekendStep(int64_t s) const {
  return IsWeekend(AddDays(start_date_, s / steps_per_day_));
}

int64_t OnlinePredictor::MinFirstTarget() const {
  const int64_t t_day = steps_per_day_;
  const int64_t window_floor =
      t_day * (options_.num_windows - 1) + options_.history_length;
  const int64_t norm_floor = t_day * (options_.norm_history + 2);
  return std::max(window_floor, norm_floor);
}

void OnlinePredictor::InitSlotStorage() {
  const int64_t nh = options_.norm_history;
  slot_data_.Reset(2 * static_cast<int64_t>(steps_per_day_) * nh *
                   num_regions_);
  slot_head_.assign(2 * steps_per_day_, 0);
  slot_count_.assign(2 * steps_per_day_, 0);
}

void OnlinePredictor::InitScratch() {
  const int n = num_regions_;
  scratch_x_.resize(n);
  scratch_mu_.resize(n);
  scratch_sigma_.resize(n);
  scratch_synth_.resize(n);
  slot_rows_.resize(options_.norm_history);
  const int64_t l = options_.history_length;
  const int64_t m = options_.num_windows;
  ring_rows_.resize(m * l + m);
  // One step's arena use is the sample — x (N, L); f, f_mu, f_sigma
  // (M, N, L); target (N); w_next* (M, N) — plus a model forward of about
  // the same size, so the first slab is twice the sample's storage (a
  // kCacheAlign header plus the rounded-up payload per tensor). Capped at
  // 1 MiB, above which the arena grows by doubling: an uncapped 4.6 MiB
  // first slab at N = 10k raised the process's peak RSS by 1.4 MiB.
  auto block = [](int64_t numel) {
    const std::size_t bytes = static_cast<std::size_t>(numel) * sizeof(float);
    return kCacheAlign + (bytes + kCacheAlign - 1) / kCacheAlign * kCacheAlign;
  };
  const std::size_t sample_bytes = block(n * l) + 3 * block(m * n * l) +
                                   block(n) + 3 * block(m * n);
  arena_ = std::make_unique<Arena>(
      std::min<std::size_t>(2 * sample_bytes, std::size_t{1} << 20));
}

void OnlinePredictor::SlotPush(int slot, const float* row) {
  const int nh = options_.norm_history;
  const int idx = (slot_head_[slot] + slot_count_[slot]) % nh;
  float* dst = slot_data_.data() +
               (static_cast<int64_t>(slot) * nh + idx) * num_regions_;
  std::copy(row, row + num_regions_, dst);
  if (slot_count_[slot] < nh) {
    ++slot_count_[slot];
  } else {
    slot_head_[slot] = (slot_head_[slot] + 1) % nh;
  }
}

Result<OnlinePredictor> OnlinePredictor::Create(
    Forecaster* model, const data::SlidingWindowDataset& history,
    int64_t history_end) {
  if (model == nullptr) {
    return Status::InvalidArgument("OnlinePredictor needs a model");
  }
  if (!model->SupportsStreaming()) {
    return Status::InvalidArgument(model->name() +
                                   " does not support streaming prediction");
  }
  const auto& series = history.series();
  OnlinePredictor p;
  p.model_ = model;
  p.options_ = history.options();
  p.num_regions_ = series.num_regions;
  p.steps_per_day_ = series.steps_per_day;
  p.start_date_ = series.start_date;
  p.window_span_ = static_cast<int64_t>(p.steps_per_day_) *
                       (p.options_.num_windows - 1) +
                   p.options_.history_length;
  if (history_end < history.MinTargetStep() ||
      history_end > series.total_steps()) {
    return Status::OutOfRange(
        "history_end must lie in [MinTargetStep, total_steps]");
  }
  p.next_step_ = history_end;
  const int n = p.num_regions_;
  p.ring_x_.Reset(p.window_span_ * n);
  p.ring_mu_.Reset(p.window_span_ * n);
  p.ring_sigma_.Reset(p.window_span_ * n);
  p.InitSlotStorage();
  p.window_sum_.assign(n, 0.0);
  p.guard_stats_.quarantine.assign(n, 0);

  for (int64_t s = 0; s < history_end; ++s) {
    std::vector<float> x_row = history.StepCounts(s);
    if (s >= history_end - p.window_span_) {
      std::vector<float> mu_row = history.StepMu(s);
      std::vector<float> sigma_row = history.StepSigma(s);
      const int64_t base = p.RingIndex(s);
      std::copy(x_row.begin(), x_row.end(), p.ring_x_.begin() + base);
      std::copy(mu_row.begin(), mu_row.end(), p.ring_mu_.begin() + base);
      std::copy(sigma_row.begin(), sigma_row.end(),
                p.ring_sigma_.begin() + base);
    }
    if (s >= history_end - p.options_.history_length) {
      for (int r = 0; r < n; ++r) p.window_sum_[r] += x_row[r];
    }
    p.SlotPush(p.SlotIndex(s), x_row.data());
  }
  p.InitScratch();
  return p;
}

void OnlinePredictor::MatchedStats(int64_t s, const std::vector<float>& x_row,
                                   std::vector<float>* mu_row,
                                   std::vector<float>* sigma_row) const {
  // Mirrors SlidingWindowDataset::RefreshMatchedStats: the matched set is
  // the step itself plus the newest `norm_history` same-slot observations,
  // accumulated newest-to-oldest in double precision — the identical
  // floating-point summation order is what makes streaming bit-identical
  // to the batch pipeline.
  const int slot = SlotIndex(s);
  const int prior = slot_count_[slot];
  const double inv = 1.0 / static_cast<double>(1 + prior);
  const int n = num_regions_;
  // Resolve the circular-window ages once: SlotRowNewest costs a modulo
  // and a 64-bit multiply, which must not run per region in this loop.
  const float** rows = slot_rows_.data();
  for (int k = 0; k < prior; ++k) rows[k] = SlotRowNewest(slot, k);
  mu_row->resize(n);
  sigma_row->resize(n);
  for (int r = 0; r < n; ++r) {
    double m = x_row[r];
    for (int k = 0; k < prior; ++k) {
      m += rows[k][r];
    }
    m *= inv;
    double ss = 0.0;
    {
      const double d = x_row[r] - m;
      ss += d * d;
    }
    for (int k = 0; k < prior; ++k) {
      const double d = rows[k][r] - m;
      ss += d * d;
    }
    (*mu_row)[r] = static_cast<float>(m);
    (*sigma_row)[r] = static_cast<float>(std::sqrt(ss * inv));
  }
}

float OnlinePredictor::HoldLastValue(int r) const {
  return ring_x_[RingIndex(next_step_ - 1) + r];
}

float OnlinePredictor::SlotMeanOrHold(int64_t s, int r) const {
  const int slot = SlotIndex(s);
  const int count = slot_count_[slot];
  if (count == 0) return HoldLastValue(r);
  // Oldest-first, matching the nested-vector implementation's slot order.
  double m = 0.0;
  for (int j = 0; j < count; ++j) m += SlotRowOldest(slot, j)[r];
  return static_cast<float>(m / static_cast<double>(count));
}

Status OnlinePredictor::GuardRow(const std::vector<double>& counts,
                                 std::vector<float>* x_row) {
  const int n = num_regions_;
  if (static_cast<int>(counts.size()) != n) {
    ++guard_stats_.rejected_observations;
    return Status::InvalidArgument(
        "expected one count per region (" + std::to_string(n) + "), got " +
        std::to_string(counts.size()));
  }
  x_row->resize(n);
  int repaired = 0;
  for (int r = 0; r < n; ++r) {
    const double v = counts[r];
    const float f = static_cast<float>(v);
    // A count is usable only if it is finite (in float too — a 1e300
    // double would overflow to inf and poison the matched statistics)
    // and non-negative.
    if (std::isfinite(v) && std::isfinite(f) && v >= 0.0) {
      (*x_row)[r] = f;
      continue;
    }
    switch (guard_policy_.on_bad_value) {
      case RepairPolicy::kReject:
        ++guard_stats_.rejected_observations;
        return Status::InvalidArgument(
            "invalid count " + std::to_string(v) + " for region " +
            std::to_string(r) + " at step " + std::to_string(next_step_));
      case RepairPolicy::kHoldLast:
        (*x_row)[r] = HoldLastValue(r);
        break;
      case RepairPolicy::kImpute:
        (*x_row)[r] = SlotMeanOrHold(next_step_, r);
        break;
    }
    ++repaired;
    ++guard_stats_.quarantine[r];
  }
  if (repaired > 0) {
    guard_stats_.repaired_values += repaired;
    ++guard_stats_.repaired_steps;
  }
  return Status::OK();
}

Status OnlinePredictor::ObserveRow(const std::vector<float>& x_row) {
  const int n = num_regions_;
  const int64_t s = next_step_;
  MatchedStats(s, x_row, &scratch_mu_, &scratch_sigma_);

  // O(1) exponential-MLE refresh: slide the L-window sum before the ring
  // slot of step s-L is overwritten (they coincide when M == 1).
  const int64_t leaving = RingIndex(s - options_.history_length);
  for (int r = 0; r < n; ++r) {
    // Widen before subtracting: float arithmetic here would round each
    // slide and drift the sum off the exact value.
    window_sum_[r] += static_cast<double>(x_row[r]) -
                      static_cast<double>(ring_x_[leaving + r]);
  }

  const int64_t base = RingIndex(s);
  std::copy(x_row.begin(), x_row.end(), ring_x_.begin() + base);
  std::copy(scratch_mu_.begin(), scratch_mu_.end(), ring_mu_.begin() + base);
  std::copy(scratch_sigma_.begin(), scratch_sigma_.end(),
            ring_sigma_.begin() + base);

  SlotPush(SlotIndex(s), x_row.data());
  ++next_step_;
  return Status::OK();
}

Status OnlinePredictor::Observe(const std::vector<double>& counts) {
  EALGAP_RETURN_IF_ERROR(GuardRow(counts, &scratch_x_));
  return ObserveRow(scratch_x_);
}

Status OnlinePredictor::ObserveAt(int64_t step,
                                  const std::vector<double>& counts) {
  if (step < next_step_) {
    ++guard_stats_.rejected_observations;
    return Status::InvalidArgument(
        "stale observation for step " + std::to_string(step) +
        " (stream is at " + std::to_string(next_step_) + ")");
  }
  if (step > next_step_) {
    const int64_t gap = step - next_step_;
    if (guard_policy_.on_gap == RepairPolicy::kReject ||
        gap > guard_policy_.max_gap_steps) {
      ++guard_stats_.rejected_observations;
      return Status::FailedPrecondition(
          "stream gap of " + std::to_string(gap) + " steps before step " +
          std::to_string(step) +
          (gap > guard_policy_.max_gap_steps ? " exceeds max_gap_steps"
                                             : " (gap policy is reject)"));
    }
    // Synthesize the missing steps so the calendar-aligned state stays
    // consistent; every synthetic row is finite by construction.
    while (next_step_ < step) {
      const int n = num_regions_;
      for (int r = 0; r < n; ++r) {
        scratch_synth_[r] = guard_policy_.on_gap == RepairPolicy::kImpute
                                ? SlotMeanOrHold(next_step_, r)
                                : HoldLastValue(r);
      }
      EALGAP_RETURN_IF_ERROR(ObserveRow(scratch_synth_));
      ++guard_stats_.gap_steps_filled;
    }
  }
  return Observe(counts);
}

Status OnlinePredictor::PredictNextInto(std::vector<double>* out) {
  // Everything the forward pass allocates — the sample tensors here, the
  // activations and graph nodes inside the model — lands on this
  // predictor's arena and is rewound when the scope dies. `sample` is
  // declared after `scope` so its arena-backed tensors are released before
  // the rewind.
  ArenaScope scope(arena_.get());

  const int64_t t = next_step_;  // target step
  const int n = num_regions_;
  const int64_t l = options_.history_length;
  const int64_t m = options_.num_windows;
  const int64_t t_day = steps_per_day_;

  // Assemble the exact WindowSample MakeSample(t) would build, reading the
  // ring buffer instead of the full series.
  data::WindowSample sample;
  sample.target_step = t;
  sample.x = Tensor::Zeros({n, l});
  sample.f = Tensor::Zeros({m, n, l});
  sample.f_mu = Tensor::Zeros({m, n, l});
  sample.f_sigma = Tensor::Zeros({m, n, l});
  sample.target = Tensor::Zeros({n});
  sample.w_next = Tensor::Zeros({m, n});
  sample.w_next_mu = Tensor::Zeros({m, n});
  sample.w_next_sigma = Tensor::Zeros({m, n});

  // Ring offsets of the rows the sample reads, resolved once per (window,
  // lag) row (a modulo per copied element is measurable at N = 10k):
  // rows[w * l + j] is lag j of window w; next_rows[w] is the step after
  // window w, or -1 for the target itself.
  int64_t* rows = ring_rows_.data();
  int64_t* next_rows = rows + m * l;
  for (int64_t w = 0; w < m; ++w) {
    const int64_t offset = t_day * (m - 1 - w);
    for (int64_t j = 0; j < l; ++j) {
      rows[w * l + j] = RingIndex(t - offset - l + j);
    }
    next_rows[w] = offset > 0 ? RingIndex(t - offset) : -1;
  }
  float* pf = sample.f.data();
  float* pfm = sample.f_mu.data();
  float* pfs = sample.f_sigma.data();
  float* pwn = sample.w_next.data();
  float* pwm = sample.w_next_mu.data();
  float* pws = sample.w_next_sigma.data();
  for (int64_t w = 0; w < m; ++w) {
    const int64_t* wrows = rows + w * l;
    for (int r = 0; r < n; ++r) {
      const int64_t dst = (w * n + r) * l;
      for (int64_t j = 0; j < l; ++j) {
        const int64_t src = wrows[j] + r;
        pf[dst + j] = ring_x_[src];
        pfm[dst + j] = ring_mu_[src];
        pfs[dst + j] = ring_sigma_[src];
      }
    }
    // Step following window w. For the last window that is the target
    // itself — unobserved, and unused by the no-grad sample path; it stays
    // zero exactly as sample.target does.
    if (next_rows[w] >= 0) {
      const int64_t src = next_rows[w];
      std::copy(ring_x_.data() + src, ring_x_.data() + src + n, pwn + w * n);
      std::copy(ring_mu_.data() + src, ring_mu_.data() + src + n, pwm + w * n);
      std::copy(ring_sigma_.data() + src, ring_sigma_.data() + src + n,
                pws + w * n);
    }
  }
  // The last window (offset 0) is x's history.
  std::copy(pf + (m - 1) * n * l, pf + m * n * l, sample.x.data());
  return model_->PredictSampleInto(sample, out);
}

Result<std::vector<double>> OnlinePredictor::PredictNext() {
  std::vector<double> out;
  EALGAP_RETURN_IF_ERROR(PredictNextInto(&out));
  return out;
}

void OnlinePredictor::PredictManyInto(
    const std::vector<OnlinePredictor*>& predictors,
    std::vector<Status>* statuses, std::vector<std::vector<double>>* outs) {
  const int64_t k = static_cast<int64_t>(predictors.size());
  statuses->resize(k);
  outs->resize(k);
  // Each slot is written by exactly one index, so the result cannot depend
  // on how the pool splits the range; the model's internal kernels detect
  // the nested region and run serially per request.
  ParallelFor(0, k, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (predictors[i] == nullptr) {
        (*statuses)[i] = Status::InvalidArgument("null predictor");
      } else {
        (*statuses)[i] = predictors[i]->PredictNextInto(&(*outs)[i]);
      }
    }
  });
}

std::vector<Result<std::vector<double>>> OnlinePredictor::PredictMany(
    const std::vector<OnlinePredictor*>& predictors) {
  std::vector<Status> statuses;
  std::vector<std::vector<double>> values;
  PredictManyInto(predictors, &statuses, &values);
  std::vector<Result<std::vector<double>>> out;
  out.reserve(predictors.size());
  for (size_t i = 0; i < predictors.size(); ++i) {
    if (statuses[i].ok()) {
      out.emplace_back(std::move(values[i]));
    } else {
      out.emplace_back(statuses[i]);
    }
  }
  return out;
}

void OnlinePredictor::MatchedMeanNextInto(std::vector<double>* out) const {
  out->resize(num_regions_);
  for (int r = 0; r < num_regions_; ++r) {
    (*out)[r] = std::max(0.0,
                         static_cast<double>(SlotMeanOrHold(next_step_, r)));
  }
}

void OnlinePredictor::RecentMeanNextInto(std::vector<double>* out) const {
  const double inv = 1.0 / static_cast<double>(options_.history_length);
  out->resize(num_regions_);
  for (int r = 0; r < num_regions_; ++r) {
    (*out)[r] = std::max(0.0, window_sum_[r] * inv);
  }
}

void OnlinePredictor::LastObservedInto(std::vector<double>* out) const {
  out->resize(num_regions_);
  for (int r = 0; r < num_regions_; ++r) {
    (*out)[r] = std::max(0.0, static_cast<double>(HoldLastValue(r)));
  }
}

std::vector<double> OnlinePredictor::MatchedMeanNext() const {
  std::vector<double> out;
  MatchedMeanNextInto(&out);
  return out;
}

std::vector<double> OnlinePredictor::RecentMeanNext() const {
  std::vector<double> out;
  RecentMeanNextInto(&out);
  return out;
}

std::vector<double> OnlinePredictor::LastObserved() const {
  std::vector<double> out;
  LastObservedInto(&out);
  return out;
}

double OnlinePredictor::ExponentialRate(int region) const {
  EALGAP_CHECK_GE(region, 0);
  EALGAP_CHECK_LT(region, num_regions_);
  const double mean = std::max(
      window_sum_[region] / static_cast<double>(options_.history_length),
      1e-12);
  return 1.0 / mean;
}

// Sections (common/state_file.h): model; geometry (num_regions,
// steps_per_day, L, M, norm_history, the start date's year/month/day,
// next_step); ring (x, mu, sigma rows of steps [next_step - W, next_step),
// oldest first); slots (per slot: row count, rows oldest first);
// window_sum.

Status OnlinePredictor::SaveState(const std::string& path) const {
  StateFileWriter out(kServeStateFormat);
  out.Section("model");
  out.Str(model_->name());
  out.Section("geometry");
  for (int64_t v : {int64_t{num_regions_}, int64_t{steps_per_day_},
                    int64_t{options_.history_length},
                    int64_t{options_.num_windows},
                    int64_t{options_.norm_history}, int64_t{start_date_.year},
                    int64_t{start_date_.month}, int64_t{start_date_.day},
                    next_step_}) {
    out.I64(v);
  }
  const size_t n = static_cast<size_t>(num_regions_);
  out.Section("ring");
  for (int64_t s = next_step_ - window_span_; s < next_step_; ++s) {
    const int64_t base = RingIndex(s);
    out.F32s(ring_x_.data() + base, n);
    out.F32s(ring_mu_.data() + base, n);
    out.F32s(ring_sigma_.data() + base, n);
  }
  // Slot rows oldest-first — the order LoadState re-inserts them in, which
  // keeps the circular window's age resolution identical after a restore.
  out.Section("slots");
  for (int i = 0; i < 2 * steps_per_day_; ++i) {
    out.I64(slot_count_[i]);
    for (int j = 0; j < slot_count_[i]; ++j) out.F32s(SlotRowOldest(i, j), n);
  }
  out.Section("window_sum");
  out.F64s(window_sum_.data(), n);
  return out.Save(path);
}

Result<OnlinePredictor> OnlinePredictor::LoadState(const std::string& path,
                                                   Forecaster* model) {
  if (model == nullptr) {
    return Status::InvalidArgument("OnlinePredictor needs a model");
  }
  if (!model->SupportsStreaming()) {
    return Status::InvalidArgument(model->name() +
                                   " does not support streaming prediction");
  }
  EALGAP_ASSIGN_OR_RETURN(StateFileReader in,
                          StateFileReader::Open(path, kServeStateFormat));
  EALGAP_RETURN_IF_ERROR(in.ExpectModel(model->name()));
  EALGAP_ASSIGN_OR_RETURN(StateDecoder g, in.Section("geometry"));
  int64_t geometry[9];
  for (int64_t& v : geometry) v = g.I64();
  EALGAP_RETURN_IF_ERROR(g.Done());
  const auto [n, t, l, m, nh, year, month, day, next_step] = geometry;
  // Each geometry field is validated by name: a zero or negative count from
  // a corrupt file must die here, not as an OOB index or a giant
  // allocation when the rings are sized from it.
  auto field_in_range = [&](const char* field, int64_t v, int64_t lo,
                            int64_t hi) -> Status {
    if (v < lo || v > hi) {
      return g.Error("field " + std::string(field) + " = " +
                     std::to_string(v) + " out of range [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return Status::OK();
  };
  EALGAP_RETURN_IF_ERROR(field_in_range("num_regions", n, 1, 1 << 20));
  EALGAP_RETURN_IF_ERROR(field_in_range("steps_per_day", t, 1, 1440));
  EALGAP_RETURN_IF_ERROR(field_in_range("history_length", l, 1, 4096));
  EALGAP_RETURN_IF_ERROR(field_in_range("num_windows", m, 1, 4096));
  EALGAP_RETURN_IF_ERROR(field_in_range("norm_history", nh, 1, 4096));
  EALGAP_RETURN_IF_ERROR(field_in_range("year", year, 1, 9999));
  EALGAP_RETURN_IF_ERROR(field_in_range("month", month, 1, 12));
  EALGAP_RETURN_IF_ERROR(field_in_range("day", day, 1, 31));
  // Slot storage is sized from the geometry alone (2T slots of up to NH
  // rows), not from the rows stored, so it gets its own ceiling.
  if (2 * t * nh > kMaxSlotValues / n) {
    return g.Error("slot storage of 2 x " + std::to_string(t) + " x " +
                   std::to_string(nh) + " x " + std::to_string(n) +
                   " values exceeds 2^30");
  }
  OnlinePredictor p;
  p.model_ = model;
  p.num_regions_ = static_cast<int>(n);
  p.steps_per_day_ = static_cast<int>(t);
  p.options_.history_length = static_cast<int>(l);
  p.options_.num_windows = static_cast<int>(m);
  p.options_.norm_history = static_cast<int>(nh);
  p.start_date_ = {static_cast<int>(year), static_cast<int>(month),
                   static_cast<int>(day)};
  p.next_step_ = next_step;
  p.window_span_ = t * (m - 1) + l;
  if (p.next_step_ < p.MinFirstTarget()) {
    return Status::InvalidArgument("serve state has too little history");
  }

  // The ring's size follows from the geometry; check it before sizing a
  // buffer from the geometry.
  EALGAP_ASSIGN_OR_RETURN(StateDecoder rd, in.Section("ring"));
  if (rd.remaining() !=
      static_cast<uint64_t>(p.window_span_ * n) * 3 * sizeof(float)) {
    return rd.Error("holds " + std::to_string(rd.remaining()) +
                    " bytes, which does not match the geometry");
  }
  p.ring_x_.Reset(p.window_span_ * n);
  p.ring_mu_.Reset(p.window_span_ * n);
  p.ring_sigma_.Reset(p.window_span_ * n);
  for (int64_t s = p.next_step_ - p.window_span_; s < p.next_step_; ++s) {
    const int64_t base = p.RingIndex(s);
    rd.F32s(p.ring_x_.data() + base, n);
    rd.F32s(p.ring_mu_.data() + base, n);
    rd.F32s(p.ring_sigma_.data() + base, n);
  }
  EALGAP_RETURN_IF_ERROR(rd.Done());

  EALGAP_ASSIGN_OR_RETURN(StateDecoder sd, in.Section("slots"));
  EALGAP_RETURN_IF_ERROR(sd.Need(2 * t, sizeof(int64_t), "slot"));
  p.InitSlotStorage();
  for (int i = 0; i < 2 * p.steps_per_day_; ++i) {
    const int64_t count = sd.I64();
    if (count < 0 || count > nh) {
      return sd.Error("slot " + std::to_string(i) + " row count " +
                      std::to_string(count) + " out of range [0, " +
                      std::to_string(nh) + "]");
    }
    // Rows are stored oldest-first; with head at 0 the j-th row read is
    // exactly the j-th oldest, so age resolution survives the round trip.
    p.slot_count_[i] = static_cast<int>(count);
    sd.F32s(p.slot_data_.data() + i * nh * n, count * n);
  }
  EALGAP_RETURN_IF_ERROR(sd.Done());

  EALGAP_ASSIGN_OR_RETURN(StateDecoder wd, in.Section("window_sum"));
  p.window_sum_.assign(n, 0.0);
  wd.F64s(p.window_sum_.data(), n);
  EALGAP_RETURN_IF_ERROR(wd.Done());
  p.guard_stats_.quarantine.assign(n, 0);
  p.InitScratch();
  return p;
}

}  // namespace serve
}  // namespace ealgap
