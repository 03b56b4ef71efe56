// Failure-injection and boundary-condition tests: corrupt feeds, degenerate
// configurations, and edge-of-range behaviour across the pipeline.

#include <cctype>
#include <cmath>
#include <cstdio>
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
#include "tests/state_file_testing.h"

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


// --- corrupt state files -----------------------------------------------------
//
// Loaders must reject zero/negative counts with a hard error NAMING the bad
// field — a corrupt geometry must never survive into ring sizing, tensor
// allocation, or an OOB copy. Each bad value is written through
// StateFileWriter (testing::RewriteSection), so its section's CRC is valid
// and the range check itself is what rejects it.

namespace corrupt {

using ::ealgap::testing::EncodeStr;
using ::ealgap::testing::FlipSectionByte;
using ::ealgap::testing::Peek;
using ::ealgap::testing::Poke;
using ::ealgap::testing::ReadStateFile;
using ::ealgap::testing::RewriteSection;
using ::ealgap::testing::SectionEntry;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
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

/// One of the four state-file kinds, saved from the fixture and loaded
/// back through its production loader.
struct Kind {
  const char* label;
  const StateFormat* format;
  /// The kind's last line-oriented text version.
  int text_version;
  Status (*save)(ServeFixture& f, const std::string& path);
  Status (*load)(ServeFixture& f, const std::string& path);
};

Status SaveCheckpoint(ServeFixture& f, const std::string& path) {
  return f.model->SaveCheckpoint(path);
}
Status LoadCheckpoint(ServeFixture&, const std::string& path) {
  return core::LoadForecasterFromCheckpoint(path).status();
}

/// A one-epoch GRU fit that leaves its train state at `path`.
Status SaveTrainState(ServeFixture& f, const std::string& path) {
  std::remove(path.c_str());
  RecurrentForecaster gru(RecurrentKind::kGru, 4);
  TrainConfig train;
  train.epochs = 1;
  train.checkpoint_path = path;
  train.checkpoint_every = 1;
  return gru.Fit(f.dataset, f.split, train);
}
Status LoadTrainState(ServeFixture& f, const std::string& path) {
  RecurrentForecaster gru(RecurrentKind::kGru, 4);
  TrainConfig train;
  train.epochs = 2;
  train.checkpoint_path = path;
  train.checkpoint_every = 0;
  train.resume = true;
  return gru.Fit(f.dataset, f.split, train);
}

Status SaveServeState(ServeFixture& f, const std::string& path) {
  auto predictor = serve::OnlinePredictor::Create(f.model.get(), f.dataset,
                                                  f.split.test_begin);
  if (!predictor.ok()) return predictor.status();
  return predictor->SaveState(path);
}
Status LoadServeState(ServeFixture& f, const std::string& path) {
  return serve::OnlinePredictor::LoadState(path, f.model.get()).status();
}

Status SaveAdaptState(ServeFixture& f, const std::string& path) {
  auto adaptive = serve::AdaptivePredictor::Create(f.model.get());
  if (!adaptive.ok()) return adaptive.status();
  return (*adaptive)->SaveState(path);
}
Status LoadAdaptState(ServeFixture& f, const std::string& path) {
  auto adaptive = serve::AdaptivePredictor::Create(f.model.get());
  if (!adaptive.ok()) return adaptive.status();
  return (*adaptive)->LoadState(path);
}

const Kind kKinds[] = {
    {"checkpoint", &kCheckpointFormat, 1, SaveCheckpoint, LoadCheckpoint},
    {"train_state", &kTrainStateFormat, 3, SaveTrainState, LoadTrainState},
    {"serve_state", &serve::kServeStateFormat, 2, SaveServeState,
     LoadServeState},
    {"adapt_state", &serve::kAdaptStateFormat, 1, SaveAdaptState,
     LoadAdaptState},
};

std::string PathFor(const Kind& kind, const std::string& tag) {
  return ::testing::TempDir() + "/robust_" + kind.label + "_" + tag;
}

/// Byte offset of the geometry section's next_step field (the ninth int64).
constexpr size_t kNextStepOffset = 8 * sizeof(int64_t);

}  // namespace corrupt

TEST(RobustnessTest, ServeStateZeroRegionsRejectedByFieldName) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  const std::string path = ::testing::TempDir() + "/zero_regions.state";
  ASSERT_TRUE(corrupt::SaveServeState(f, path).ok());

  // geometry: num_regions, steps_per_day, L, M, NH, ... as int64s
  corrupt::RewriteSection(path, serve::kServeStateFormat, "geometry",
                          [](std::string* g) {
                            corrupt::Poke<int64_t>(g, 0, 0);
                          });
  auto loaded = serve::OnlinePredictor::LoadState(path, f.model.get());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("num_regions"), std::string::npos)
      << loaded.status().ToString();
}

TEST(RobustnessTest, ServeStateNegativeStepsPerDayRejectedByFieldName) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  const std::string path = ::testing::TempDir() + "/neg_steps.state";
  ASSERT_TRUE(corrupt::SaveServeState(f, path).ok());

  corrupt::RewriteSection(path, serve::kServeStateFormat, "geometry",
                          [](std::string* g) {
                            corrupt::Poke<int64_t>(g, sizeof(int64_t), -24);
                          });
  auto loaded = serve::OnlinePredictor::LoadState(path, f.model.get());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("steps_per_day"),
            std::string::npos)
      << loaded.status().ToString();
}

// The slot storage a restore allocates follows from the geometry alone, so
// a forged geometry (each field in range, CRC valid) must be refused
// before the allocation: here 2 x 1440 x 4096 x 92 floats, ~4 GiB.
TEST(RobustnessTest, ServeStateOversizedSlotStorageRejected) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  const std::string path = ::testing::TempDir() + "/huge_slots.state";
  ASSERT_TRUE(corrupt::SaveServeState(f, path).ok());

  // geometry: num_regions, steps_per_day, L, M, NH, y, m, d, next_step
  corrupt::RewriteSection(path, serve::kServeStateFormat, "geometry",
                          [](std::string* g) {
                            corrupt::Poke<int64_t>(g, 0, 92);
                            corrupt::Poke<int64_t>(g, 8, 1440);
                            corrupt::Poke<int64_t>(g, 16, 1);
                            corrupt::Poke<int64_t>(g, 24, 1);
                            corrupt::Poke<int64_t>(g, 32, 4096);
                            corrupt::Poke<int64_t>(g, 64, 6000000);
                          });
  auto loaded = serve::OnlinePredictor::LoadState(path, f.model.get());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("slot storage"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(RobustnessTest, CheckpointZeroDimensionRejectedByParameterName) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  const std::string path = ::testing::TempDir() + "/zero_dim.ckpt";
  ASSERT_TRUE(f.model->SaveCheckpoint(path).ok());

  // params: i64 count, then the first tensor's name, rank and dims.
  std::string victim;
  corrupt::RewriteSection(
      path, kCheckpointFormat, "params", [&victim](std::string* p) {
        const auto name_len =
            corrupt::Peek<int64_t>(*p, sizeof(int64_t));
        victim = p->substr(2 * sizeof(int64_t), name_len);
        corrupt::Poke<int64_t>(p, 3 * sizeof(int64_t) + name_len, 0);
      });
  ASSERT_FALSE(victim.empty());
  auto loaded = core::LoadForecasterFromCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  const std::string msg = loaded.status().ToString();
  EXPECT_NE(msg.find(victim), std::string::npos) << msg;
  EXPECT_NE(msg.find("must be >= 1"), std::string::npos) << msg;
}

// Every kind rejects both its last text version and a future version with
// one error naming the version found and the one this build reads.
TEST(RobustnessTest, CheckpointVersionErrorNamesFoundAndMaxVersions) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  for (const corrupt::Kind& kind : corrupt::kKinds) {
    SCOPED_TRACE(kind.label);
    const std::string good = corrupt::PathFor(kind, "ver_good");
    ASSERT_TRUE(kind.save(f, good).ok());
    const std::string magic = kind.format->magic;
    const std::string text = corrupt::ReadAll(good);
    const std::string header =
        magic + " " + std::to_string(kind.format->version) + "\n";
    ASSERT_EQ(text.rfind(header, 0), 0u);
    // The kind's last text version, then a future binary one.
    for (int found : {kind.text_version, 7}) {
      const std::string body =
          found == 7 ? text.substr(header.size()) : "model EALGAP\nend\n";
      const std::string bad = corrupt::PathFor(kind, "ver_bad");
      corrupt::WriteAll(bad, magic + " " + std::to_string(found) + "\n" + body);
      const Status st = kind.load(f, bad);
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
      EXPECT_NE(st.message().find("version " + std::to_string(found)),
                std::string::npos)
          << st.ToString();
      EXPECT_NE(st.message().find("maximum supported: " +
                                  std::to_string(kind.format->version)),
                std::string::npos)
          << st.ToString();
    }
  }
}

// One changed byte in any section of any kind is a load error naming that
// section — including the values a loader would otherwise accept as
// plausible: a checkpoint's target `scale` with one digit changed, or a
// serve state's `next_step` one step ahead.
TEST(RobustnessTest, ChangedByteInAnySectionFailsNamingIt) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  for (const corrupt::Kind& kind : corrupt::kKinds) {
    const std::string good = corrupt::PathFor(kind, "flip_good");
    ASSERT_TRUE(kind.save(f, good).ok());
    ASSERT_TRUE(kind.load(f, good).ok()) << kind.label;
    const StateFileReader in = corrupt::ReadStateFile(good, *kind.format);
    ASSERT_GE(in.sections().size(), 3u) << kind.label;
    for (const auto& section : in.sections()) {
      SCOPED_TRACE(std::string(kind.label) + " section " + section.name);
      const std::string bad = corrupt::PathFor(kind, "flip_bad");
      corrupt::WriteAll(bad, in.bytes());
      // The last payload byte, or the CRC's first byte for the end marker.
      corrupt::FlipSectionByte(bad, *kind.format, section.name,
                               section.size == 0 ? 0 : section.size - 1);
      const Status st = kind.load(f, bad);
      ASSERT_FALSE(st.ok());
      EXPECT_NE(st.message().find("section '" + section.name + "'"),
                std::string::npos)
          << st.ToString();
    }
  }

  // The two plausible-looking values.
  const std::string ckpt = ::testing::TempDir() + "/robust_scale.ckpt";
  ASSERT_TRUE(f.model->SaveCheckpoint(ckpt).ok());
  {
    const StateFileReader in = corrupt::ReadStateFile(ckpt, kCheckpointFormat);
    const auto config = corrupt::SectionEntry(in, "config");
    const std::string scale_key = corrupt::EncodeStr("scale");
    const size_t key_at = in.bytes().find(scale_key, config.offset);
    ASSERT_NE(key_at, std::string::npos);
    // The value's first digit, after its own length prefix.
    const size_t digit = key_at + scale_key.size() + sizeof(int64_t);
    ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(in.bytes()[digit])));
    std::string bytes = in.bytes();
    bytes[digit] = bytes[digit] == '1' ? '2' : '1';
    corrupt::WriteAll(ckpt, bytes);
  }
  auto scaled = core::LoadForecasterFromCheckpoint(ckpt);
  ASSERT_FALSE(scaled.ok());
  EXPECT_NE(scaled.status().message().find("section 'config' CRC mismatch"),
            std::string::npos)
      << scaled.status().ToString();

  const std::string state = ::testing::TempDir() + "/robust_next_step.state";
  ASSERT_TRUE(corrupt::SaveServeState(f, state).ok());
  {
    const StateFileReader in =
        corrupt::ReadStateFile(state, serve::kServeStateFormat);
    const auto geometry = corrupt::SectionEntry(in, "geometry");
    std::string bytes = in.bytes();
    std::string payload = bytes.substr(geometry.offset, geometry.size);
    corrupt::Poke<int64_t>(
        &payload, corrupt::kNextStepOffset,
        corrupt::Peek<int64_t>(payload, corrupt::kNextStepOffset) + 1);
    bytes.replace(geometry.offset, geometry.size, payload);
    corrupt::WriteAll(state, bytes);
  }
  auto stepped = serve::OnlinePredictor::LoadState(state, f.model.get());
  ASSERT_FALSE(stepped.ok());
  EXPECT_NE(
      stepped.status().message().find("section 'geometry' CRC mismatch"),
      std::string::npos)
      << stepped.status().ToString();
}

// save -> load -> save writes the same bytes for every kind.
TEST(RobustnessTest, SaveLoadSaveIsByteIdentical) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  const std::string dir = ::testing::TempDir();
  {
    ASSERT_TRUE(f.model->SaveCheckpoint(dir + "/rt_a.ckpt").ok());
    auto loaded = core::LoadForecasterFromCheckpoint(dir + "/rt_a.ckpt");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto* neural = dynamic_cast<NeuralForecaster*>(loaded->get());
    ASSERT_NE(neural, nullptr);
    ASSERT_TRUE(neural->SaveCheckpoint(dir + "/rt_b.ckpt").ok());
    EXPECT_EQ(corrupt::ReadAll(dir + "/rt_a.ckpt"),
              corrupt::ReadAll(dir + "/rt_b.ckpt"));
  }
  {
    const std::string a = dir + "/rt_a.train", b = dir + "/rt_b.train";
    ASSERT_TRUE(corrupt::SaveTrainState(f, a).ok());
    RecurrentForecaster gru(RecurrentKind::kGru, 4);
    NeuralForecaster::TrainSnapshot snap;
    ASSERT_TRUE(gru.LoadTrainState(a, &snap).ok());
    ASSERT_TRUE(gru.SaveTrainState(b, snap).ok());
    EXPECT_EQ(corrupt::ReadAll(a), corrupt::ReadAll(b));
  }
  {
    auto predictor = serve::OnlinePredictor::Create(f.model.get(), f.dataset,
                                                    f.split.test_begin);
    ASSERT_TRUE(predictor.ok());
    for (int64_t s = f.split.test_begin; s < f.split.test_begin + 5; ++s) {
      const std::vector<float> row = f.dataset.StepCounts(s);
      ASSERT_TRUE(
          predictor->Observe(std::vector<double>(row.begin(), row.end()))
              .ok());
    }
    ASSERT_TRUE(predictor->SaveState(dir + "/rt_a.state").ok());
    auto loaded =
        serve::OnlinePredictor::LoadState(dir + "/rt_a.state", f.model.get());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(loaded->SaveState(dir + "/rt_b.state").ok());
    EXPECT_EQ(corrupt::ReadAll(dir + "/rt_a.state"),
              corrupt::ReadAll(dir + "/rt_b.state"));
  }
  {
    ASSERT_TRUE(corrupt::SaveAdaptState(f, dir + "/rt_a.adapt").ok());
    auto adaptive = serve::AdaptivePredictor::Create(f.model.get());
    ASSERT_TRUE(adaptive.ok());
    ASSERT_TRUE((*adaptive)->LoadState(dir + "/rt_a.adapt").ok());
    ASSERT_TRUE((*adaptive)->SaveState(dir + "/rt_b.adapt").ok());
    EXPECT_EQ(corrupt::ReadAll(dir + "/rt_a.adapt"),
              corrupt::ReadAll(dir + "/rt_b.adapt"));
  }
}

TEST(RobustnessTest, AdaptStateNegativeRegionsRejectedByFieldName) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  auto adaptive = serve::AdaptivePredictor::Create(f.model.get());
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();
  const std::string path = ::testing::TempDir() + "/neg_regions.adapt";
  ASSERT_TRUE((*adaptive)->SaveState(path).ok());

  // detector: regions, frozen, streak, ... as int64s
  corrupt::RewriteSection(path, serve::kAdaptStateFormat, "detector",
                          [](std::string* d) {
                            corrupt::Poke<int64_t>(d, 0, -1);
                          });
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

  // Set the frozen flag (the detector's second int64) without re-sealing:
  // the loader must reject on the CRC, never half-load.
  corrupt::FlipSectionByte(path, serve::kAdaptStateFormat, "detector",
                           sizeof(int64_t));
  Status loaded = (*adaptive)->LoadState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.ToString().find("section 'detector' CRC mismatch"),
            std::string::npos)
      << loaded.ToString();
  // The failed load left the in-memory posture untouched.
  EXPECT_FALSE((*adaptive)->frozen());
}

}  // namespace
}  // namespace ealgap
