// Seeded mutation test of every loader that reads a file from disk: the
// four state-file loaders (model checkpoint, train state, serve state,
// adapt state), ReadTripsCsv, ReadStationsCsv and ExperimentJournal::Load.
//
// Each loader starts from a valid seed file and is fed a fixed budget of
// mutants drawn from a fixed seed:
//  * bit flips anywhere in the file;
//  * truncation at every section boundary (state files) or line boundary
//    (text files);
//  * section and name lengths inflated by 2^k for k = 0..63, up to and
//    past 2^63;
//  * bit flips and 2^k-inflated int64 fields inside one section with its
//    CRC re-sealed, so the mutant reaches the section decoder's own
//    checks rather than stopping at the CRC;
//  * whole sections (or lines) spliced in from the other seed files, of
//    every kind.
//
// Every mutant must load OK or return a Status — a crash, an overread
// (under ASan, scripts/ci.sh) or a hang fails the run. The binary links
// the malloc hook (alloc_count_hook.cc), and no single load may request
// more than kAllocFactor × the input size + kAllocSlack bytes in total, so
// a corrupt count can never drive a large allocation. Under ASan the hook
// is compiled out and only that assertion is skipped.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/recurrent.h"
#include "common/alloc_count.h"
#include "common/checksum.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "common/state_file.h"
#include "core/ealgap.h"
#include "core/experiment.h"
#include "core/journal.h"
#include "data/dataset.h"
#include "data/synthetic_city.h"
#include "data/trip.h"
#include "serve/adaptive_predictor.h"
#include "serve/online_predictor.h"

namespace ealgap {
namespace {

constexpr uint64_t kSeed = 0x5EED2026;
/// Random mutants per seed file and mutation kind.
constexpr int kRandomMutants = 1500;
/// Allocation bound of one load: bytes requested, summed over the load.
constexpr int64_t kAllocFactor = 8;
constexpr int64_t kAllocSlack = int64_t{1} << 18;

/// A loader under test and the valid files it starts from.
struct Target {
  std::string label;
  const StateFormat* format = nullptr;  ///< null for line-oriented text
  std::vector<std::string> seeds;
  std::function<Status(const std::string& path)> load;
};

std::string ReadAll(const std::string& path) {
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PokeI64(std::string* bytes, size_t at, uint64_t v) {
  std::memcpy(bytes->data() + at, &v, sizeof(v));
}

/// Recomputes the CRC of section `e` after its payload changed in place.
void Reseal(std::string* bytes, const StateFileReader::Entry& e) {
  const uint32_t crc =
      Crc32(bytes->data() + e.begin, e.offset + e.size - e.begin);
  std::memcpy(bytes->data() + e.offset + e.size, &crc, sizeof(crc));
}

/// Everything a state-file mutant needs: the seed and where its sections
/// lie.
struct Sections {
  std::string bytes;
  std::vector<StateFileReader::Entry> entries;
};

Sections Parse(const std::string& bytes, const StateFormat& format) {
  auto in = StateFileReader::Parse(bytes, "seed", format);
  EXPECT_TRUE(in.ok()) << in.status().ToString();
  if (!in.ok()) return {bytes, {}};
  return {bytes, in->sections()};
}

/// The whole section `e` of `s`: lengths, name, payload and CRC.
std::string SectionBytes(const Sections& s, const StateFileReader::Entry& e) {
  return s.bytes.substr(e.begin,
                        e.offset + e.size + sizeof(uint32_t) - e.begin);
}

/// Byte offsets at which a text file's lines start.
std::vector<size_t> LineStarts(const std::string& text) {
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

class LoaderFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::RegionSeriesConfig cfg;
    cfg.num_regions = 4;
    cfg.num_days = 30;
    cfg.seed = 3;
    auto ds = data::SlidingWindowDataset::Create(
        data::GenerateRegionSeries(cfg), data::DatasetOptions{});
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new data::SlidingWindowDataset(std::move(ds).value());
    auto split = data::MakeChronoSplit(*dataset_);
    ASSERT_TRUE(split.ok());
    split_ = new data::StepRanges(*split);
    model_ = new core::EalgapForecaster();
    TrainConfig train;
    train.epochs = 0;
    train.seed = 5;
    ASSERT_TRUE(model_->Fit(*dataset_, *split_, train).ok());
    BuildSeeds();
  }

  static void TearDownTestSuite() {
    if (alloc_count::HookLinked()) {
      std::printf("%lld loads; the largest requested %lld bytes in total\n",
                  static_cast<long long>(loads_),
                  static_cast<long long>(max_allocated_));
    } else {
      std::printf("%lld loads; allocations not counted (no malloc hook)\n",
                  static_cast<long long>(loads_));
    }
    delete model_;
    delete split_;
    delete dataset_;
    targets_.clear();
  }

  static std::string Path(const std::string& name) {
    return ::testing::TempDir() + "/loader_fuzz_" + name;
  }

  /// Writes one valid file of every kind (two of each state kind, from
  /// models of different sizes) and registers its loader.
  static void BuildSeeds() {
    std::vector<std::string> ckpts, trains, serves, adapts;
    int v = 0;
    for (int hidden : {4, 8}) {
      const std::string tag = std::to_string(v++);
      core::EalgapOptions opts;
      opts.hidden = hidden;
      core::EalgapForecaster model(opts);
      TrainConfig train;
      train.epochs = 0;
      train.seed = 7;
      ASSERT_TRUE(model.Fit(*dataset_, *split_, train).ok());
      ASSERT_TRUE(model.SaveCheckpoint(Path("seed" + tag + ".ckpt")).ok());
      ckpts.push_back(ReadAll(Path("seed" + tag + ".ckpt")));

      const std::string state = Path("seed" + tag + ".train");
      std::remove(state.c_str());
      RecurrentForecaster gru(RecurrentKind::kGru, hidden);
      train.epochs = 1;
      train.checkpoint_path = state;
      train.checkpoint_every = 1;
      ASSERT_TRUE(gru.Fit(*dataset_, *split_, train).ok());
      trains.push_back(ReadAll(state));

      auto predictor = serve::OnlinePredictor::Create(
          model_, *dataset_, split_->test_begin + 24 * v);
      ASSERT_TRUE(predictor.ok());
      ASSERT_TRUE(predictor->SaveState(Path("seed" + tag + ".state")).ok());
      serves.push_back(ReadAll(Path("seed" + tag + ".state")));

      // Served steps size the per-region detector (after the first one).
      auto adaptive = serve::AdaptivePredictor::Create(model_);
      ASSERT_TRUE(adaptive.ok());
      for (int64_t s = split_->test_begin; s < split_->test_begin + 3 * v;
           ++s) {
        ASSERT_TRUE((*adaptive)->Predict(*dataset_, s).ok());
      }
      ASSERT_TRUE((*adaptive)->SaveState(Path("seed" + tag + ".adapt")).ok());
      adapts.push_back(ReadAll(Path("seed" + tag + ".adapt")));
    }

    std::vector<data::TripRecord> trips;
    std::vector<data::Station> stations;
    Rng rng(kSeed);
    for (int i = 0; i < 40; ++i) {
      const int64_t t0 =
          1593561600 + static_cast<int64_t>(rng.UniformInt(86400 * 7));
      trips.push_back({t0,
                       t0 + 60 + static_cast<int64_t>(rng.UniformInt(3600)),
                       static_cast<int>(rng.UniformInt(8)),
                       static_cast<int>(rng.UniformInt(8))});
    }
    for (int i = 0; i < 8; ++i) {
      stations.push_back({i, -74.0 + 0.01 * i, 40.7 + 0.005 * i});
    }
    ASSERT_TRUE(data::WriteTripsCsv(Path("seed.trips"), trips).ok());
    ASSERT_TRUE(data::WriteStationsCsv(Path("seed.stations"), stations).ok());
    const std::string journal_path = Path("seed.journal");
    std::remove(journal_path.c_str());
    core::ExperimentJournal journal(journal_path);
    core::JournalEntry ok_cell{"nyc_bike", "normal", "HA", true, "", {}};
    ok_cell.metrics.er = 0.25;
    core::JournalEntry failed_cell{"nyc_bike", "normal", "GRU", false,
                                   "non-finite training loss", {}};
    ASSERT_TRUE(journal.Record(ok_cell).ok());
    ASSERT_TRUE(journal.Record(failed_cell).ok());

    targets_.push_back({"checkpoint", &kCheckpointFormat, ckpts,
                        [](const std::string& path) {
                          return core::LoadForecasterFromCheckpoint(path)
                              .status();
                        }});
    targets_.push_back({"train_state", &kTrainStateFormat, trains,
                        [](const std::string& path) {
                          RecurrentForecaster gru(RecurrentKind::kGru, 4);
                          NeuralForecaster::TrainSnapshot snap;
                          return gru.LoadTrainState(path, &snap);
                        }});
    targets_.push_back({"serve_state", &serve::kServeStateFormat, serves,
                        [](const std::string& path) {
                          return serve::OnlinePredictor::LoadState(path,
                                                                   model_)
                              .status();
                        }});
    targets_.push_back({"adapt_state", &serve::kAdaptStateFormat, adapts,
                        [](const std::string& path) {
                          auto adaptive =
                              serve::AdaptivePredictor::Create(model_);
                          if (!adaptive.ok()) return adaptive.status();
                          return (*adaptive)->LoadState(path);
                        }});
    targets_.push_back({"trips_csv", nullptr, {ReadAll(Path("seed.trips"))},
                        [](const std::string& path) {
                          return data::ReadTripsCsv(path).status();
                        }});
    targets_.push_back({"stations_csv", nullptr,
                        {ReadAll(Path("seed.stations"))},
                        [](const std::string& path) {
                          return data::ReadStationsCsv(path).status();
                        }});
    targets_.push_back({"journal", nullptr, {ReadAll(journal_path)},
                        [](const std::string& path) {
                          core::ExperimentJournal j(path);
                          return j.Load();
                        }});
  }

  static const Target& Find(const std::string& label) {
    for (const Target& t : targets_) {
      if (t.label == label) return t;
    }
    ADD_FAILURE() << "no target " << label;
    return targets_.front();
  }

  /// Loads one mutant and checks the allocation bound. Returns the status.
  static Status Run(const Target& t, const std::string& bytes,
                    const std::string& what) {
    const std::string path = Path("mutant");
    WriteAll(path, bytes);
    alloc_count::ScopedCounter counter;
    const Status st = t.load(path);
    const int64_t allocated = counter.delta_bytes();
    max_allocated_ = std::max(max_allocated_, allocated);
    if (alloc_count::HookLinked()) {
      const int64_t bound =
          kAllocFactor * static_cast<int64_t>(bytes.size()) + kAllocSlack;
      EXPECT_LE(allocated, bound)
          << t.label << " " << what << ": one load requested " << allocated
          << " bytes for a " << bytes.size() << "-byte input";
    }
    if (!st.ok()) {
      EXPECT_FALSE(st.message().empty()) << t.label << " " << what;
    }
    ++loads_;
    return st;
  }

  /// Every mutation kind over every seed of `t`.
  static void Fuzz(const Target& t) {
    Rng rng(kSeed ^ std::hash<std::string>()(t.label));
    for (size_t si = 0; si < t.seeds.size(); ++si) {
      const std::string& seed = t.seeds[si];
      SCOPED_TRACE(t.label + " seed " + std::to_string(si));
      const Status valid = Run(t, seed, "unmutated seed");
      ASSERT_TRUE(valid.ok()) << valid.ToString();

      for (int i = 0; i < kRandomMutants; ++i) {
        std::string m = seed;
        const int flips = 1 + static_cast<int>(rng.UniformInt(4));
        for (int k = 0; k < flips; ++k) {
          m[rng.UniformInt(m.size())] ^=
              static_cast<char>(1u << rng.UniformInt(8));
        }
        Run(t, m, "bit flip");
      }
      if (t.format != nullptr) {
        FuzzSections(t, Parse(seed, *t.format), &rng);
      } else {
        FuzzLines(t, seed, &rng);
      }
    }
  }

  static void FuzzSections(const Target& t, const Sections& s, Rng* rng) {
    ASSERT_FALSE(s.entries.empty());
    // Truncation at and around every section boundary.
    for (const auto& e : s.entries) {
      for (size_t cut : {e.begin, e.begin + 4, e.offset - sizeof(int64_t),
                         e.offset, e.offset + e.size,
                         e.offset + e.size + 2}) {
        if (cut >= s.bytes.size()) continue;
        const Status st = Run(t, s.bytes.substr(0, cut), "truncation");
        EXPECT_FALSE(st.ok()) << "truncation at " << cut << " loaded";
      }
    }
    // Inflated section and name lengths, up to and past 2^63.
    for (const auto& e : s.entries) {
      const size_t len_at = e.offset - sizeof(int64_t);
      for (int k = 0; k < 64; ++k) {
        std::string m = s.bytes;
        PokeI64(&m, len_at, e.size + (uint64_t{1} << k));
        EXPECT_FALSE(Run(t, m, "inflated section length").ok());
        m = s.bytes;
        PokeI64(&m, e.begin, e.name.size() + (uint64_t{1} << k));
        EXPECT_FALSE(Run(t, m, "inflated name length").ok());
      }
    }
    // Re-sealed corruption inside one section: 2^k int64 fields, then
    // random bit flips.
    for (const auto& e : s.entries) {
      for (size_t at = e.offset; at + sizeof(int64_t) <= e.offset + e.size &&
                                 at < e.offset + 8 * sizeof(int64_t);
           at += sizeof(int64_t)) {
        for (int k : {0, 7, 15, 20, 28, 31, 32, 40, 48, 56, 62, 63}) {
          std::string m = s.bytes;
          PokeI64(&m, at, uint64_t{1} << k);
          Reseal(&m, e);
          Run(t, m, "re-sealed 2^k field");
          PokeI64(&m, at, ~uint64_t{0} << k);  // negative
          Reseal(&m, e);
          Run(t, m, "re-sealed negative field");
        }
      }
    }
    for (int i = 0; i < kRandomMutants; ++i) {
      const auto& e = s.entries[rng->UniformInt(s.entries.size())];
      if (e.size == 0) continue;
      std::string m = s.bytes;
      const int flips = 1 + static_cast<int>(rng->UniformInt(3));
      for (int k = 0; k < flips; ++k) {
        m[e.offset + rng->UniformInt(e.size)] ^=
            static_cast<char>(1u << rng->UniformInt(8));
      }
      Reseal(&m, e);
      Run(t, m, "re-sealed bit flip");
    }
    // Sections spliced in from every other state seed: replacing a section
    // of this file, or inserted before its end marker.
    std::vector<Sections> donors;
    for (const Target& other : targets_) {
      if (other.format == nullptr) continue;
      for (const std::string& seed : other.seeds) {
        donors.push_back(Parse(seed, *other.format));
      }
    }
    for (int i = 0; i < kRandomMutants; ++i) {
      const Sections& donor = donors[rng->UniformInt(donors.size())];
      const auto& give = donor.entries[rng->UniformInt(donor.entries.size())];
      const auto& take = s.entries[rng->UniformInt(s.entries.size())];
      std::string m = s.bytes;
      const std::string piece = SectionBytes(donor, give);
      if (rng->UniformInt(2) == 0) {
        m.replace(take.begin, SectionBytes(s, take).size(), piece);
      } else {
        m.insert(s.entries.back().begin, piece);
      }
      Run(t, m, "splice of " + give.name + " over " + take.name);
    }
  }

  static void FuzzLines(const Target& t, const std::string& seed, Rng* rng) {
    const std::vector<size_t> starts = LineStarts(seed);
    for (size_t cut : starts) {
      if (cut > 0 && cut < seed.size()) {
        Run(t, seed.substr(0, cut), "truncation");
      }
      if (cut + 3 < seed.size()) Run(t, seed.substr(0, cut + 3), "truncation");
    }
    std::vector<std::string> donor_lines;
    for (const Target& other : targets_) {
      if (other.format != nullptr) continue;
      const std::string& text = other.seeds.front();
      const std::vector<size_t> ls = LineStarts(text);
      for (size_t i = 0; i + 1 < ls.size(); ++i) {
        donor_lines.push_back(text.substr(ls[i], ls[i + 1] - ls[i]));
      }
    }
    for (int i = 0; i < kRandomMutants; ++i) {
      std::string m = seed;
      const size_t at = starts[rng->UniformInt(starts.size())];
      const std::string& line =
          donor_lines[rng->UniformInt(donor_lines.size())];
      m.insert(std::min(at, m.size()), line);
      Run(t, m, "spliced line");
    }
  }

  static data::SlidingWindowDataset* dataset_;
  static data::StepRanges* split_;
  static core::EalgapForecaster* model_;
  static std::vector<Target> targets_;
  static int64_t loads_;
  static int64_t max_allocated_;
};

data::SlidingWindowDataset* LoaderFuzzTest::dataset_ = nullptr;
data::StepRanges* LoaderFuzzTest::split_ = nullptr;
core::EalgapForecaster* LoaderFuzzTest::model_ = nullptr;
std::vector<Target> LoaderFuzzTest::targets_;
int64_t LoaderFuzzTest::loads_ = 0;
int64_t LoaderFuzzTest::max_allocated_ = 0;

TEST_F(LoaderFuzzTest, Checkpoint) { Fuzz(Find("checkpoint")); }
TEST_F(LoaderFuzzTest, TrainState) { Fuzz(Find("train_state")); }
TEST_F(LoaderFuzzTest, ServeState) { Fuzz(Find("serve_state")); }
TEST_F(LoaderFuzzTest, AdaptState) { Fuzz(Find("adapt_state")); }
TEST_F(LoaderFuzzTest, TripsCsv) { Fuzz(Find("trips_csv")); }
TEST_F(LoaderFuzzTest, StationsCsv) { Fuzz(Find("stations_csv")); }
TEST_F(LoaderFuzzTest, Journal) { Fuzz(Find("journal")); }

}  // namespace
}  // namespace ealgap
