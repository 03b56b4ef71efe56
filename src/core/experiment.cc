#include "core/experiment.h"

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "baselines/arima.h"
#include "baselines/chat.h"
#include "baselines/evl.h"
#include "baselines/historical_average.h"
#include "baselines/neural.h"
#include "baselines/recurrent.h"
#include "baselines/st_norm.h"
#include "baselines/st_resnet.h"
#include "common/logging.h"
#include "core/ealgap.h"

namespace ealgap {
namespace core {

Result<PreparedData> PrepareData(
    const data::PeriodConfig& config,
    std::optional<data::PartitionOptions> partition_override,
    data::CountKind count_kind) {
  PreparedData out;
  EALGAP_ASSIGN_OR_RETURN(out.city, data::GenerateCity(config.generator));
  out.stations = out.city.stations;
  std::vector<data::TripRecord> clean = data::CleanTrips(
      out.city.trips, out.stations, config.cleaning, &out.cleaning);
  const data::PartitionOptions& popts =
      partition_override.has_value() ? *partition_override : config.partition;
  EALGAP_ASSIGN_OR_RETURN(out.partition,
                          data::PartitionStations(out.stations, popts));
  EALGAP_ASSIGN_OR_RETURN(
      data::MobilitySeries series,
      data::AggregateTrips(clean, out.stations, out.partition,
                           config.generator.start_date,
                           config.generator.num_days,
                           /*dropped=*/nullptr, count_kind));
  EALGAP_ASSIGN_OR_RETURN(
      out.dataset,
      data::SlidingWindowDataset::Create(std::move(series), config.dataset));
  EALGAP_ASSIGN_OR_RETURN(out.split, data::MakeChronoSplit(out.dataset));
  return out;
}

std::vector<std::string> PaperSchemes() {
  return {"ARIMA", "GRU",       "LSTM", "RNN",  "ST-Norm",
          "ST-ResNet", "EVL",  "CHAT", "EALGAP"};
}

Result<std::unique_ptr<Forecaster>> MakeForecaster(const std::string& scheme,
                                                   const PreparedData& data) {
  if (scheme == "ARIMA") {
    return std::unique_ptr<Forecaster>(new ArimaForecaster());
  }
  if (scheme == "GRU") {
    return std::unique_ptr<Forecaster>(
        new RecurrentForecaster(RecurrentKind::kGru));
  }
  if (scheme == "LSTM") {
    return std::unique_ptr<Forecaster>(
        new RecurrentForecaster(RecurrentKind::kLstm));
  }
  if (scheme == "RNN") {
    return std::unique_ptr<Forecaster>(
        new RecurrentForecaster(RecurrentKind::kRnn));
  }
  if (scheme == "ST-Norm") {
    return std::unique_ptr<Forecaster>(new StNormForecaster());
  }
  if (scheme == "ST-ResNet") {
    return std::unique_ptr<Forecaster>(
        new StResNetForecaster(data.partition.region_centers));
  }
  if (scheme == "EVL") {
    return std::unique_ptr<Forecaster>(new EvlForecaster());
  }
  if (scheme == "CHAT") {
    return std::unique_ptr<Forecaster>(new ChatForecaster());
  }
  if (scheme == "EALGAP") {
    return std::unique_ptr<Forecaster>(new EalgapForecaster());
  }
  if (scheme == "HA") {
    return std::unique_ptr<Forecaster>(new HistoricalAverageForecaster());
  }
  if (scheme == "EALGAP-G") {  // ablation (ii): global module only
    EalgapOptions opts;
    opts.use_extreme = false;
    return std::unique_ptr<Forecaster>(new EalgapForecaster(opts));
  }
  if (scheme == "EALGAP-E") {  // ablation (iii): extreme module + MLP global
    EalgapOptions opts;
    opts.use_global_attention = false;
    return std::unique_ptr<Forecaster>(new EalgapForecaster(opts));
  }
  if (scheme == "EALGAP-N") {  // ablation (iv): normal distribution
    EalgapOptions opts;
    opts.family = stats::DistributionFamily::kNormal;
    return std::unique_ptr<Forecaster>(new EalgapForecaster(opts));
  }
  if (scheme == "EALGAP-BIG") {  // capacity probe
    EalgapOptions opts;
    opts.hidden = 64;
    opts.gru_hidden = 32;
    return std::unique_ptr<Forecaster>(new EalgapForecaster(opts));
  }
  if (scheme == "EALGAP-A0") {  // alias of the default (no Eq. 10 aux loss)
    EalgapOptions opts;
    opts.degree_loss_weight = 0.f;
    return std::unique_ptr<Forecaster>(new EalgapForecaster(opts));
  }
  if (scheme == "EALGAP-AUX") {  // design ablation: Eq. (10) supervision on
    EalgapOptions opts;
    opts.degree_loss_weight = 0.3f;
    return std::unique_ptr<Forecaster>(new EalgapForecaster(opts));
  }
  if (scheme == "EALGAP-J4") {  // extension: J = 4 attention
    EalgapOptions opts;
    opts.attention_dim = 4;
    return std::unique_ptr<Forecaster>(new EalgapForecaster(opts));
  }
  return Status::InvalidArgument("unknown scheme: " + scheme);
}

Result<std::unique_ptr<Forecaster>> LoadForecasterFromCheckpoint(
    const std::string& path) {
  // The model section names the forecaster that wrote the file.
  EALGAP_ASSIGN_OR_RETURN(StateFileReader in,
                          StateFileReader::Open(path, kCheckpointFormat));
  EALGAP_ASSIGN_OR_RETURN(const std::string model_name, in.Model());

  std::unique_ptr<NeuralForecaster> model;
  if (model_name == "EALGAP") {
    model = std::make_unique<EalgapForecaster>();
  } else if (model_name == "GRU") {
    model = std::make_unique<RecurrentForecaster>(RecurrentKind::kGru);
  } else if (model_name == "LSTM") {
    model = std::make_unique<RecurrentForecaster>(RecurrentKind::kLstm);
  } else if (model_name == "RNN") {
    model = std::make_unique<RecurrentForecaster>(RecurrentKind::kRnn);
  } else if (model_name == "EVL") {
    model = std::make_unique<EvlForecaster>();
  } else if (model_name == "ST-Norm") {
    model = std::make_unique<StNormForecaster>();
  } else {
    return Status::InvalidArgument("checkpoint is for model " + model_name +
                                   ", which has no checkpoint loader");
  }
  EALGAP_RETURN_IF_ERROR(model->LoadCheckpoint(in));
  return std::unique_ptr<Forecaster>(std::move(model));
}

Result<SchemeResult> RunScheme(const std::string& scheme,
                               const PreparedData& data,
                               const TrainConfig& train) {
  EALGAP_ASSIGN_OR_RETURN(std::unique_ptr<Forecaster> model,
                          MakeForecaster(scheme, data));
  SchemeResult result;
  result.scheme = scheme;
  const auto t0 = std::chrono::steady_clock::now();
  Status fit_status = model->Fit(data.dataset, data.split, train);
  if (auto* neural = dynamic_cast<NeuralForecaster*>(model.get())) {
    // Rollback/retry attribution survives even a failed fit, so the caller
    // can report *why* a cell died (e.g. retries exhausted).
    result.train_stats = neural->train_stats();
    result.train_step_ms = neural->mean_step_ms();
  }
  if (!fit_status.ok()) return fit_status;
  const auto t1 = std::chrono::steady_clock::now();
  result.fit_seconds = std::chrono::duration<double>(t1 - t0).count();
  std::vector<double> pred, truth;
  EALGAP_RETURN_IF_ERROR(model->PredictRange(
      data.dataset, data.split.test_begin, data.split.test_end, &pred,
      &truth));
  result.metrics = stats::ComputeMetrics(pred, truth);
  return result;
}

namespace {

/// Runs one scheme with per-scheme isolation: an error becomes a row with
/// a non-OK status (keeping one row per scheme) instead of propagating.
SchemeResult RunSchemeIsolated(const std::string& scheme,
                               const PreparedData& data,
                               const TrainConfig& train,
                               const std::string& context) {
  auto row_or = RunScheme(scheme, data, train);
  if (row_or.ok()) return std::move(*row_or);
  SchemeResult row;
  row.scheme = scheme;
  row.status = row_or.status();
  EALGAP_LOG(Warning) << context << " " << scheme
                      << " failed (isolated): " << row.status.ToString();
  return row;
}

}  // namespace

Result<PeriodResult> RunPeriod(const data::PeriodConfig& config,
                               const ExperimentOptions& options) {
  EALGAP_ASSIGN_OR_RETURN(PreparedData data, PrepareData(config));
  PeriodResult out;
  out.label = config.label;
  for (const std::string& scheme : options.schemes) {
    TrainConfig train = options.train;
    train.seed = options.seed;
    train.verbose = options.verbose;
    SchemeResult row = RunSchemeIsolated(scheme, data, train, config.label);
    if (options.verbose && row.status.ok()) {
      EALGAP_LOG(Info) << config.label << " " << scheme << ": ER "
                       << row.metrics.er << " MSLE " << row.metrics.msle
                       << " R2 " << row.metrics.r2 << " (fit "
                       << row.fit_seconds << "s)";
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

namespace {

Status EnsureDirectory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IoError("cannot create directory " + path + ": " +
                         std::strerror(errno));
}

}  // namespace

Result<SweepResult> RunSweep(const SweepOptions& options) {
  ExperimentJournal journal(options.journal_path);
  const bool journaling = !options.journal_path.empty();
  if (journaling && options.resume) {
    EALGAP_RETURN_IF_ERROR(journal.Load());
  }
  if (!options.state_dir.empty()) {
    EALGAP_RETURN_IF_ERROR(EnsureDirectory(options.state_dir));
  }

  SweepResult out;
  for (data::City city : options.cities) {
    for (data::Period period : options.periods) {
      const std::string city_name = data::CityName(city);
      const std::string period_name = data::PeriodName(period);
      // Skip data preparation entirely when every cell of this (city,
      // period) is already journaled.
      bool all_done = journaling && options.resume;
      for (const std::string& scheme : options.experiment.schemes) {
        all_done = all_done && journal.Has(city_name, period_name, scheme);
      }
      std::optional<PreparedData> data;
      if (!all_done) {
        const data::PeriodConfig config = data::MakePeriodConfig(
            city, period, options.experiment.seed,
            options.experiment.data_scale);
        EALGAP_ASSIGN_OR_RETURN(data, PrepareData(config));
      }
      for (const std::string& scheme : options.experiment.schemes) {
        if (journaling && options.resume &&
            journal.Has(city_name, period_name, scheme)) {
          ++out.cells_skipped;
          continue;
        }
        TrainConfig train = options.experiment.train;
        train.seed = options.experiment.seed;
        train.verbose = options.experiment.verbose;
        if (!options.state_dir.empty()) {
          train.checkpoint_path = options.state_dir + "/" + city_name + "." +
                                  period_name + "." + scheme + ".train";
          train.checkpoint_every = options.checkpoint_every;
          train.resume = options.resume;
        }
        const std::string context = city_name + "/" + period_name;
        SchemeResult row = RunSchemeIsolated(scheme, *data, train, context);
        ++out.cells_run;
        JournalEntry entry;
        entry.city = city_name;
        entry.period = period_name;
        entry.scheme = scheme;
        entry.ok = row.status.ok();
        if (entry.ok) {
          entry.metrics = row.metrics;
          if (options.experiment.verbose) {
            EALGAP_LOG(Info) << context << " " << scheme << ": ER "
                             << row.metrics.er << " MSLE " << row.metrics.msle
                             << " R2 " << row.metrics.r2;
          }
        } else {
          entry.error = row.status.ToString();
          ++out.cells_failed;
        }
        if (journaling) {
          // A journal write failure aborts the sweep: the cell's result is
          // not durably recorded, so continuing would let a later resume
          // double-count or lose it.
          EALGAP_RETURN_IF_ERROR(journal.Record(entry));
        } else {
          out.entries.push_back(entry);
        }
      }
    }
  }
  if (journaling) {
    // Resume consistency check: the final journal covers exactly the
    // requested grid (entries from an older, different grid stay listed
    // but are not re-validated here).
    out.entries = journal.entries();
  }
  return out;
}

}  // namespace core
}  // namespace ealgap
