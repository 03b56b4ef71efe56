#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/experiment.h"

namespace ealgap {
namespace core {
namespace {

// A fast variant of the NYC config for integration testing.
data::PeriodConfig TinyConfig(data::Period period) {
  data::PeriodConfig config = data::MakePeriodConfig(
      data::City::kNycBike, period, /*seed=*/19, /*scale=*/0.5);
  config.generator.num_stations = 48;
  config.generator.num_regions = 6;
  config.generator.num_days = 60;
  config.partition.num_regions = 6;
  // Move the headline event into the shortened test window.
  for (auto& e : config.generator.events) {
    if (e.kind == data::EventKind::kMildWeather) continue;
    const int64_t span =
        DaysSinceEpoch(e.end_date) - DaysSinceEpoch(e.start_date);
    e.start_date = AddDays(config.generator.start_date, 55);
    e.end_date = AddDays(e.start_date, span);
  }
  return config;
}

TEST(PrepareDataTest, FullPipelineProducesConsistentShapes) {
  auto prepared = PrepareData(TinyConfig(data::Period::kWeather));
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->partition.num_regions, 6);
  EXPECT_EQ(prepared->dataset.series().num_regions, 6);
  EXPECT_EQ(prepared->dataset.series().total_steps(), 60 * 24);
  EXPECT_GT(prepared->cleaning.removed_bad_timestamps, 0u);
  EXPECT_LT(prepared->split.train_end, prepared->split.val_begin + 1);
  EXPECT_EQ(prepared->split.test_end, 60 * 24);
}

TEST(PrepareDataTest, PartitionOverrideIsApplied) {
  data::PartitionOptions options;
  options.method = data::PartitionMethod::kDbscan;
  options.eps = 0.008;
  options.min_points = 3;
  auto prepared = PrepareData(TinyConfig(data::Period::kNormal), options);
  ASSERT_TRUE(prepared.ok());
  EXPECT_GT(prepared->partition.num_regions, 1);
}

TEST(MakeForecasterTest, AllPaperSchemesConstruct) {
  auto prepared = PrepareData(TinyConfig(data::Period::kNormal));
  ASSERT_TRUE(prepared.ok());
  for (const std::string& scheme : PaperSchemes()) {
    auto model = MakeForecaster(scheme, *prepared);
    ASSERT_TRUE(model.ok()) << scheme;
    EXPECT_EQ((*model)->name().empty(), false);
  }
  for (const char* extra : {"HA", "EALGAP-G", "EALGAP-E", "EALGAP-N"}) {
    EXPECT_TRUE(MakeForecaster(extra, *prepared).ok()) << extra;
  }
}

TEST(MakeForecasterTest, UnknownSchemeRejected) {
  auto prepared = PrepareData(TinyConfig(data::Period::kNormal));
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(MakeForecaster("Prophet", *prepared).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RunSchemeTest, ProducesFiniteMetrics) {
  auto prepared = PrepareData(TinyConfig(data::Period::kWeather));
  ASSERT_TRUE(prepared.ok());
  TrainConfig train;
  train.epochs = 3;
  train.learning_rate = 3e-3f;
  auto result = RunScheme("EALGAP", *prepared, train);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.er, 0.0);
  EXPECT_LT(result->metrics.er, 1.5);
  EXPECT_GT(result->metrics.r2, -2.0);
  EXPECT_GT(result->fit_seconds, 0.0);
  EXPECT_GT(result->train_step_ms, 0.0);
}

TEST(RunSchemeTest, NonNeuralSchemeHasNoStepTime) {
  auto prepared = PrepareData(TinyConfig(data::Period::kNormal));
  ASSERT_TRUE(prepared.ok());
  auto result = RunScheme("HA", *prepared, TrainConfig{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->train_step_ms, 0.0);
  EXPECT_LT(result->metrics.er, 0.6);
}

TEST(PaperSchemesTest, MatchesTableRoster) {
  const auto schemes = PaperSchemes();
  ASSERT_EQ(schemes.size(), 9u);
  EXPECT_EQ(schemes.front(), "ARIMA");
  EXPECT_EQ(schemes.back(), "EALGAP");
}

// --- per-scheme isolation ---------------------------------------------------

TEST(RunPeriodTest, FailingSchemeIsIsolatedNotFatal) {
  ExperimentOptions options;
  // "Prophet" is not a known scheme: its cell must fail in place while the
  // cheap HA baseline before and after it still runs.
  options.schemes = {"HA", "Prophet", "HA"};
  auto result = RunPeriod(TinyConfig(data::Period::kNormal), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_TRUE(result->rows[0].status.ok());
  EXPECT_FALSE(result->rows[1].status.ok());
  EXPECT_EQ(result->rows[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result->rows[1].metrics.er, 0.0);
  EXPECT_TRUE(result->rows[2].status.ok());
  EXPECT_GT(result->rows[2].metrics.r2, -2.0);
}

// --- experiment journal -----------------------------------------------------

std::string TempJournalPath(const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/experiment_journal_" + tag + ".journal";
  std::remove(path.c_str());
  return path;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ExperimentJournalTest, MissingFileLoadsEmpty) {
  ExperimentJournal journal(TempJournalPath("missing"));
  ASSERT_TRUE(journal.Load().ok());
  EXPECT_TRUE(journal.entries().empty());
  EXPECT_FALSE(journal.Has("nyc_bike", "normal", "HA"));
}

TEST(ExperimentJournalTest, RecordThenLoadRoundTripsBitExactly) {
  const std::string path = TempJournalPath("roundtrip");
  {
    ExperimentJournal journal(path);
    JournalEntry ok_cell;
    ok_cell.city = "nyc_bike";
    ok_cell.period = "weather";
    ok_cell.scheme = "EALGAP";
    // Values chosen to break any decimal round-trip: a non-representable
    // fraction, a denormal, and a negative zero.
    ok_cell.metrics.er = 0.1;
    ok_cell.metrics.msle = 5e-324;
    ok_cell.metrics.r2 = -0.0;
    ok_cell.metrics.rmse = 1.0 / 3.0;
    ok_cell.metrics.mae = 12345.6789;
    ASSERT_TRUE(journal.Record(ok_cell).ok());

    JournalEntry failed;
    failed.city = "chicago_taxi";
    failed.period = "holiday";
    failed.scheme = "GRU";
    failed.ok = false;
    failed.error = "Internal: GRU diverged (non-finite training loss)";
    ASSERT_TRUE(journal.Record(failed).ok());
  }

  ExperimentJournal reloaded(path);
  ASSERT_TRUE(reloaded.Load().ok());
  ASSERT_EQ(reloaded.entries().size(), 2u);
  EXPECT_TRUE(reloaded.Has("nyc_bike", "weather", "EALGAP"));
  EXPECT_TRUE(reloaded.Has("chicago_taxi", "holiday", "GRU"));
  EXPECT_FALSE(reloaded.Has("nyc_bike", "normal", "EALGAP"));

  const JournalEntry* cell = reloaded.Find("nyc_bike", "weather", "EALGAP");
  ASSERT_NE(cell, nullptr);
  EXPECT_TRUE(cell->ok);
  EXPECT_TRUE(SameBits(cell->metrics.er, 0.1));
  EXPECT_TRUE(SameBits(cell->metrics.msle, 5e-324));
  EXPECT_TRUE(SameBits(cell->metrics.r2, -0.0));
  EXPECT_TRUE(SameBits(cell->metrics.rmse, 1.0 / 3.0));
  EXPECT_TRUE(SameBits(cell->metrics.mae, 12345.6789));

  const JournalEntry* fail = reloaded.Find("chicago_taxi", "holiday", "GRU");
  ASSERT_NE(fail, nullptr);
  EXPECT_FALSE(fail->ok);
  EXPECT_NE(fail->error.find("non-finite training loss"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ExperimentJournalTest, CorruptedCellLineIsRejected) {
  const std::string path = TempJournalPath("corrupt");
  {
    ExperimentJournal journal(path);
    JournalEntry cell;
    cell.city = "nyc_bike";
    cell.period = "normal";
    cell.scheme = "HA";
    cell.metrics.er = 0.25;
    ASSERT_TRUE(journal.Record(cell).ok());
  }
  std::string text = ReadAll(path);
  const size_t pos = text.find("nyc_bike");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = 'N';
  std::ofstream(path) << text;

  ExperimentJournal journal(path);
  const Status st = journal.Load();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("CRC mismatch"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

TEST(ExperimentJournalTest, TruncatedJournalIsRejected) {
  const std::string path = TempJournalPath("truncated");
  {
    ExperimentJournal journal(path);
    JournalEntry cell;
    cell.city = "nyc_bike";
    cell.period = "normal";
    cell.scheme = "HA";
    ASSERT_TRUE(journal.Record(cell).ok());
  }
  std::string text = ReadAll(path);
  // Chop the `end` marker: a crash mid-write can never produce this (the
  // write is atomic), so a journal without it was externally damaged.
  ASSERT_GE(text.size(), 5u);
  text.resize(text.size() - 4);
  std::ofstream(path) << text;

  ExperimentJournal journal(path);
  EXPECT_FALSE(journal.Load().ok());
  std::remove(path.c_str());
}

// --- sweep resume -----------------------------------------------------------

SweepOptions SmallSweep(const std::string& journal_path) {
  SweepOptions sweep;
  sweep.cities = {data::City::kNycBike};
  sweep.periods = {data::Period::kNormal};
  sweep.experiment.schemes = {"Prophet", "HA"};  // one failing, one instant
  sweep.experiment.seed = 19;
  sweep.experiment.data_scale = 0.35;
  sweep.journal_path = journal_path;
  return sweep;
}

TEST(RunSweepTest, JournalsEveryCellAndResumesWithoutRerunning) {
  const std::string path = TempJournalPath("sweep");
  SweepOptions sweep = SmallSweep(path);

  auto first = RunSweep(sweep);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->cells_run, 2);
  EXPECT_EQ(first->cells_skipped, 0);
  EXPECT_EQ(first->cells_failed, 1);  // Prophet
  ASSERT_EQ(first->entries.size(), 2u);
  EXPECT_EQ(first->entries[0].scheme, "Prophet");
  EXPECT_FALSE(first->entries[0].ok);
  EXPECT_FALSE(first->entries[0].error.empty());
  EXPECT_EQ(first->entries[1].scheme, "HA");
  EXPECT_TRUE(first->entries[1].ok);
  const std::string journal_after_first = ReadAll(path);
  ASSERT_FALSE(journal_after_first.empty());

  // Resume over a complete journal: nothing re-runs (not even data prep),
  // and the journal bytes do not change.
  sweep.resume = true;
  auto second = RunSweep(sweep);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->cells_run, 0);
  EXPECT_EQ(second->cells_skipped, 2);
  EXPECT_EQ(second->cells_failed, 0);
  EXPECT_EQ(ReadAll(path), journal_after_first);
  std::remove(path.c_str());
}

TEST(RunSweepTest, JournalWriteFailureAbortsTheSweep) {
  const std::string path = TempJournalPath("sweep_abort");
  SweepOptions sweep = SmallSweep(path);
  // All three atomic-write attempts of the first Record fail: the sweep
  // must stop — progress the journal cannot vouch for is not progress.
  fault::ScopedFaults faults("io.write.fail:every=1");
  auto result = RunSweep(sweep);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(std::ifstream(path).good());
}

}  // namespace
}  // namespace core
}  // namespace ealgap
