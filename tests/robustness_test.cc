// Failure-injection and boundary-condition tests: corrupt feeds, degenerate
// configurations, and edge-of-range behaviour across the pipeline.

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/recurrent.h"
#include "core/ealgap.h"
#include "core/experiment.h"
#include "core/extreme_degree.h"
#include "data/aggregate.h"
#include "data/cleaning.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "data/synthetic_city.h"
#include "data/trip.h"
#include "nn/loss.h"
#include "serve/adaptive_predictor.h"
#include "serve/online_predictor.h"

namespace ealgap {
namespace {

// --- corrupt CSV feeds -------------------------------------------------------

TEST(RobustnessTest, TripCsvMissingColumnsRejected) {
  const std::string path = ::testing::TempDir() + "/rb_missing_cols.csv";
  {
    std::ofstream out(path);
    out << "started_at,start_station_id\n";
    out << "2020-06-01 10:00:00,1\n";
  }
  auto trips = data::ReadTripsCsv(path);
  EXPECT_FALSE(trips.ok());
  EXPECT_EQ(trips.status().code(), StatusCode::kParseError);
}

TEST(RobustnessTest, TripCsvRaggedRowRejected) {
  const std::string path = ::testing::TempDir() + "/rb_ragged.csv";
  {
    std::ofstream out(path);
    out << "started_at,ended_at,start_station_id,end_station_id\n";
    out << "2020-06-01 10:00:00,2020-06-01 10:20:00,1\n";  // 3 fields
  }
  EXPECT_FALSE(data::ReadTripsCsv(path).ok());
}

TEST(RobustnessTest, StationCsvGarbageCoordinatesRejected) {
  const std::string path = ::testing::TempDir() + "/rb_stations.csv";
  {
    std::ofstream out(path);
    out << "station_id,lon,lat\n";
    out << "1,not_a_number,40.7\n";
  }
  // Historical wart, now fixed: atof silently parsed garbage to 0.0 and
  // relocated the station to (0, 0). Strict parsing rejects the row.
  auto stations = data::ReadStationsCsv(path);
  ASSERT_FALSE(stations.ok());
  EXPECT_EQ(stations.status().code(), StatusCode::kParseError);
  EXPECT_NE(stations.status().message().find("not_a_number"),
            std::string::npos);

  // Garbage ids and partially-numeric fields ("40.7abc") are rejected too;
  // clean rows still parse, including negative coordinates.
  {
    std::ofstream out(path);
    out << "station_id,lon,lat\n";
    out << "x1,-73.99,40.7\n";
  }
  EXPECT_FALSE(data::ReadStationsCsv(path).ok());
  {
    std::ofstream out(path);
    out << "station_id,lon,lat\n";
    out << "1,-73.99,40.7abc\n";
  }
  EXPECT_FALSE(data::ReadStationsCsv(path).ok());
  {
    std::ofstream out(path);
    out << "station_id,lon,lat\n";
    out << "1,-73.990000,40.700000\n";
  }
  auto good = data::ReadStationsCsv(path);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ((*good)[0].id, 1);
  EXPECT_NEAR((*good)[0].lon, -73.99, 1e-9);
  EXPECT_NEAR((*good)[0].lat, 40.7, 1e-9);
}

TEST(RobustnessTest, AllTripsDirtyYieldsEmptyCleanSet) {
  std::vector<data::TripRecord> trips;
  for (int i = 0; i < 50; ++i) {
    trips.push_back({1000 + i, 1000 + i - 5, 1, 1});  // end before start
  }
  std::vector<data::Station> stations{{1, 0, 0}};
  data::CleaningReport report;
  auto clean = data::CleanTrips(trips, stations, {}, &report);
  EXPECT_TRUE(clean.empty());
  EXPECT_EQ(report.removed_bad_timestamps, 50u);
}

// --- degenerate pipeline configurations ---------------------------------------

TEST(RobustnessTest, SingleRegionPipelineWorks) {
  data::CityConfig config;
  config.num_stations = 5;
  config.num_regions = 1;
  config.num_days = 30;
  config.base_region_hour_rate = 6.0;
  config.seed = 61;
  auto city = data::GenerateCity(config);
  ASSERT_TRUE(city.ok());
  data::PartitionOptions popts;
  popts.num_regions = 1;
  auto part = data::PartitionStations(city->stations, popts);
  ASSERT_TRUE(part.ok());
  auto series = data::AggregateTrips(city->trips, city->stations, *part,
                                     config.start_date, config.num_days);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->num_regions, 1);
}

TEST(RobustnessTest, ZeroTurbulenceGeneratorIsValid) {
  data::CityConfig config;
  config.num_stations = 10;
  config.num_regions = 2;
  config.num_days = 14;
  config.turbulence_sigma = 0.0;
  config.weather_sigma = 0.0;
  config.seed = 62;
  auto city = data::GenerateCity(config);
  ASSERT_TRUE(city.ok());
  // Counts finite and non-negative.
  for (int64_t i = 0; i < city->region_counts.numel(); ++i) {
    EXPECT_GE(city->region_counts.data()[i], 0.f);
    EXPECT_TRUE(std::isfinite(city->region_counts.data()[i]));
  }
}

TEST(RobustnessTest, ConstantSeriesDatasetIsFinite) {
  // A constant series has zero variance everywhere; the matched sigma is 0
  // and downstream extreme degrees must stay finite (epsilon floor).
  data::MobilitySeries series;
  series.num_regions = 2;
  series.steps_per_day = 24;
  series.start_date = {2020, 6, 1};
  series.num_days = 20;
  series.counts = Tensor::Full({2, 20 * 24}, 7.f);
  data::DatasetOptions options;
  auto ds = data::SlidingWindowDataset::Create(std::move(series), options);
  ASSERT_TRUE(ds.ok());
  for (int64_t i = 0; i < ds->sigma().numel(); ++i) {
    EXPECT_EQ(ds->sigma().data()[i], 0.f);
  }
  auto sample = ds->MakeSample(ds->MinTargetStep());
  Rng rng(7);
  core::ExtremeDegreeModule module(2, options.history_length, 4, rng);
  // x == mu, sigma == 0 -> degree exactly 0, no NaN (epsilon floor).
  Var d2 = module.ExtremeDegree(
      Var::Leaf(sample.x), Var::Leaf(sample.x),
      Var::Leaf(Tensor::Zeros({2, options.history_length})));
  for (int64_t i = 0; i < d2.value().numel(); ++i) {
    EXPECT_EQ(d2.value().data()[i], 0.f);
    EXPECT_FALSE(std::isnan(d2.value().data()[i]));
  }
}

TEST(RobustnessTest, TrainingOnConstantSeriesStaysFinite) {
  data::MobilitySeries series;
  series.num_regions = 2;
  series.steps_per_day = 24;
  series.start_date = {2020, 6, 1};
  series.num_days = 40;
  series.counts = Tensor::Full({2, 40 * 24}, 5.f);
  data::DatasetOptions options;
  auto ds = data::SlidingWindowDataset::Create(std::move(series), options);
  ASSERT_TRUE(ds.ok());
  auto split = data::MakeChronoSplit(*ds);
  ASSERT_TRUE(split.ok());
  core::EalgapForecaster model;
  TrainConfig train;
  train.epochs = 2;
  ASSERT_TRUE(model.Fit(*ds, *split, train).ok());
  auto pred = model.Predict(*ds, split->test_begin);
  ASSERT_TRUE(pred.ok());
  for (double v : *pred) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_NEAR(v, 5.0, 3.0);  // constant series is easy
  }
}

// --- event edge cases -----------------------------------------------------------

TEST(RobustnessTest, EventOutsideSeriesRangeIsHarmless) {
  data::CityConfig config;
  config.num_stations = 10;
  config.num_regions = 2;
  config.num_days = 10;
  config.seed = 63;
  data::AnomalyEvent e;
  e.kind = data::EventKind::kHurricane;
  e.start_date = AddDays(config.start_date, 100);  // after the series
  e.end_date = e.start_date;
  config.events.push_back(e);
  EXPECT_TRUE(data::GenerateCity(config).ok());
}

TEST(RobustnessTest, EventHourMultiplierBounds) {
  data::AnomalyEvent e;
  e.kind = data::EventKind::kRainstorm;
  e.severity = 0.4;
  for (int h = 0; h < 24; ++h) {
    const double m = data::EventHourMultiplier(e, 0.4, h, 10, 20);
    EXPECT_GE(m, 0.6 - 1e-12);
    EXPECT_LE(m, 1.0 + 1e-12);
  }
  // Holiday: flat.
  e.kind = data::EventKind::kHoliday;
  EXPECT_DOUBLE_EQ(data::EventHourMultiplier(e, 0.3, 3, 10, 20), 0.7);
  EXPECT_DOUBLE_EQ(data::EventHourMultiplier(e, 0.3, 15, 10, 20), 0.7);
}

// --- losses on extreme inputs -----------------------------------------------------

TEST(RobustnessTest, LossesFiniteOnLargeValues) {
  Var pred = Var::Leaf(Tensor::Full({4}, 1e6f), true);
  Var target = Var::Leaf(Tensor::Zeros({4}));
  EXPECT_TRUE(std::isfinite(nn::MseLoss(pred, target).value().data()[0]));
  EXPECT_TRUE(std::isfinite(nn::MaeLoss(pred, target).value().data()[0]));
  EXPECT_TRUE(
      std::isfinite(nn::HuberLoss(pred, target, 1.f).value().data()[0]));
}

TEST(RobustnessTest, EvlLossAllExtremeBatch) {
  nn::EvlConfig config;
  config.high_threshold = 0.f;  // everything above zero is "extreme"
  config.low_threshold = -1.f;
  config.gamma = 1.f;
  Var pred = Var::Leaf(Tensor::Ones({4}), true);
  Var target = Var::Leaf(Tensor::Full({4}, 2.f));
  Var loss = nn::EvlLoss(pred, target, config);
  EXPECT_TRUE(std::isfinite(loss.value().data()[0]));
  Backward(loss);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(pred.grad().data()[i]));
  }
}

// --- forecaster misuse -------------------------------------------------------------

TEST(RobustnessTest, PredictOutOfRangeStepFails) {
  data::MobilitySeries series;
  series.num_regions = 2;
  series.steps_per_day = 24;
  series.start_date = {2020, 6, 1};
  series.num_days = 40;
  series.counts = Tensor::Full({2, 40 * 24}, 3.f);
  data::DatasetOptions options;
  auto ds = data::SlidingWindowDataset::Create(std::move(series), options);
  ASSERT_TRUE(ds.ok());
  auto split = data::MakeChronoSplit(*ds);
  ASSERT_TRUE(split.ok());
  RecurrentForecaster gru(RecurrentKind::kGru, 4);
  TrainConfig train;
  train.epochs = 1;
  ASSERT_TRUE(gru.Fit(*ds, *split, train).ok());
  // Steps outside the series must not crash; MakeSample CHECKs in debug,
  // so use the documented valid range and verify the boundary inputs work.
  EXPECT_TRUE(gru.Predict(*ds, ds->MinTargetStep()).ok());
  EXPECT_TRUE(gru.Predict(*ds, ds->series().total_steps() - 1).ok());
}


// --- corrupt state/checkpoint headers ----------------------------------------
//
// Loaders must reject zero/negative counts in headers with a hard error
// NAMING the bad field — a corrupt geometry must never survive into ring
// sizing, tensor allocation, or an OOB copy.

namespace corrupt {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

/// Replaces token `index` (0-based) of the first line starting with
/// `line_tag` by `value`.
void PatchLineToken(const std::string& path, const std::string& line_tag,
                    size_t index, const std::string& value) {
  std::istringstream in(ReadAll(path));
  std::ostringstream out;
  std::string line;
  bool patched = false;
  while (std::getline(in, line)) {
    if (!patched && line.rfind(line_tag, 0) == 0) {
      std::istringstream tokens(line);
      std::vector<std::string> tok;
      std::string t;
      while (tokens >> t) tok.push_back(t);
      ASSERT_GT(tok.size(), index);
      tok[index] = value;
      line.clear();
      for (size_t i = 0; i < tok.size(); ++i) {
        if (i > 0) line += ' ';
        line += tok[i];
      }
      patched = true;
    }
    out << line << "\n";
  }
  ASSERT_TRUE(patched) << "no line tagged '" << line_tag << "' in " << path;
  WriteAll(path, out.str());
}

/// A minimal fitted model + predictor over a synthetic city, for
/// exercising the serve-state and checkpoint loaders.
struct ServeFixture {
  data::SlidingWindowDataset dataset;
  data::StepRanges split;
  std::unique_ptr<core::EalgapForecaster> model;

  static ServeFixture Make() {
    data::RegionSeriesConfig cfg;
    cfg.num_regions = 4;
    cfg.num_days = 30;
    cfg.seed = 3;
    auto dataset = data::SlidingWindowDataset::Create(
        data::GenerateRegionSeries(cfg), data::DatasetOptions{});
    EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
    auto split = data::MakeChronoSplit(*dataset);
    EXPECT_TRUE(split.ok()) << split.status().ToString();
    ServeFixture f{std::move(dataset).value(), *split,
                   std::make_unique<core::EalgapForecaster>()};
    TrainConfig train;
    train.epochs = 0;
    train.seed = 5;
    EXPECT_TRUE(f.model->Fit(f.dataset, f.split, train).ok());
    return f;
  }
};

}  // namespace corrupt

TEST(RobustnessTest, ServeStateZeroRegionsRejectedByFieldName) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  auto predictor =
      serve::OnlinePredictor::Create(f.model.get(), f.dataset, f.split.test_begin);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
  const std::string path = ::testing::TempDir() + "/zero_regions.state";
  ASSERT_TRUE(predictor->SaveState(path).ok());

  // geometry <num_regions> <steps_per_day> <L> <M> <NH>
  corrupt::PatchLineToken(path, "geometry ", 1, "0");
  auto loaded = serve::OnlinePredictor::LoadState(path, f.model.get());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("num_regions"), std::string::npos)
      << loaded.status().ToString();
}

TEST(RobustnessTest, ServeStateNegativeStepsPerDayRejectedByFieldName) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  auto predictor =
      serve::OnlinePredictor::Create(f.model.get(), f.dataset, f.split.test_begin);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
  const std::string path = ::testing::TempDir() + "/neg_steps.state";
  ASSERT_TRUE(predictor->SaveState(path).ok());

  corrupt::PatchLineToken(path, "geometry ", 2, "-24");
  auto loaded = serve::OnlinePredictor::LoadState(path, f.model.get());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("steps_per_day"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(RobustnessTest, CheckpointZeroDimensionRejectedByParameterName) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  const std::string path = ::testing::TempDir() + "/zero_dim.ckpt";
  ASSERT_TRUE(f.model->SaveCheckpoint(path).ok());

  // Find the first parameter line (after "params N"; format is
  // "<name> <rank> <dims...> <values...>") and zero its first dimension.
  {
    std::istringstream in(corrupt::ReadAll(path));
    std::ostringstream out;
    std::string line;
    bool in_params = false, patched = false;
    std::string victim;
    while (std::getline(in, line)) {
      if (!patched && in_params && !line.empty()) {
        std::istringstream tokens(line);
        std::vector<std::string> tok;
        std::string t;
        while (tokens >> t && tok.size() < 4) tok.push_back(t);
        ASSERT_GE(tok.size(), 3u);
        victim = tok[0];
        const size_t name_end = line.find(' ');
        const size_t rank_end = line.find(' ', name_end + 1);
        const size_t dim_end = line.find(' ', rank_end + 1);
        line = line.substr(0, rank_end + 1) + "0" + line.substr(dim_end);
        patched = true;
      }
      if (line.rfind("params ", 0) == 0) in_params = true;
      out << line << "\n";
    }
    ASSERT_TRUE(patched);
    corrupt::WriteAll(path, out.str());
    auto loaded = core::LoadForecasterFromCheckpoint(path);
    ASSERT_FALSE(loaded.ok());
    const std::string msg = loaded.status().ToString();
    EXPECT_NE(msg.find(victim), std::string::npos) << msg;
    EXPECT_NE(msg.find("must be >= 1"), std::string::npos) << msg;
  }
}

TEST(RobustnessTest, CheckpointVersionErrorNamesFoundAndMaxVersions) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  const std::string good = ::testing::TempDir() + "/ver_model.ckpt";
  ASSERT_TRUE(f.model->SaveCheckpoint(good).ok());
  std::string text = corrupt::ReadAll(good);
  const std::string hdr = "ealgap-checkpoint 1";
  const size_t hp = text.find(hdr);
  ASSERT_NE(hp, std::string::npos);
  text.replace(hp, hdr.size(), "ealgap-checkpoint 7");
  const std::string bad = ::testing::TempDir() + "/ver_model_bad.ckpt";
  corrupt::WriteAll(bad, text);
  core::EalgapForecaster fresh;
  Status st = fresh.LoadCheckpoint(bad);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("version 7"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("maximum supported: 1"), std::string::npos)
      << st.ToString();
}

TEST(RobustnessTest, AdaptStateNegativeRegionsRejectedByFieldName) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  auto adaptive = serve::AdaptivePredictor::Create(f.model.get());
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();
  const std::string path = ::testing::TempDir() + "/neg_regions.adapt";
  ASSERT_TRUE((*adaptive)->SaveState(path).ok());

  corrupt::PatchLineToken(path, "regions ", 1, "-1");
  Status loaded = (*adaptive)->LoadState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.ToString().find("regions count"), std::string::npos)
      << loaded.ToString();
}

TEST(RobustnessTest, AdaptStateBitFlipFailsChecksum) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  auto adaptive = serve::AdaptivePredictor::Create(f.model.get());
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();
  const std::string path = ::testing::TempDir() + "/bitflip.adapt";
  ASSERT_TRUE((*adaptive)->SaveState(path).ok());

  // Flip the guard line's frozen bit: still parses, but the body bytes no
  // longer match the CRC — the loader must reject, never half-load.
  corrupt::PatchLineToken(path, "guard ", 1, "1");
  Status loaded = (*adaptive)->LoadState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.ToString().find("checksum mismatch"), std::string::npos)
      << loaded.ToString();
  // The failed load left the in-memory posture untouched.
  EXPECT_FALSE((*adaptive)->frozen());
}

}  // namespace
}  // namespace ealgap
