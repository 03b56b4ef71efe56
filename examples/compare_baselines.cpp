// CLI for running any subset of schemes on any (city, period) pair, e.g.
// (one command line):
//
//   ./build/examples/compare_baselines --city nyc_bike --period weather
//       --schemes HA,GRU,EALGAP --epochs 15

#include <iostream>
#include <sstream>

#include "common/flags.h"
#include "common/table_printer.h"
#include "core/experiment.h"

int main(int argc, char** argv) {
  using namespace ealgap;
  Flags flags(argc, argv);

  data::City city = data::City::kNycBike;
  const std::string city_name = flags.GetString("city", "nyc_bike");
  for (data::City c : data::AllCities()) {
    if (city_name == data::CityName(c)) city = c;
  }
  data::Period period = data::Period::kNormal;
  const std::string period_name = flags.GetString("period", "normal");
  if (period_name == "weather") period = data::Period::kWeather;
  if (period_name == "holiday") period = data::Period::kHoliday;

  std::vector<std::string> schemes;
  std::istringstream is(flags.GetString("schemes", "HA,GRU,EALGAP"));
  std::string item;
  while (std::getline(is, item, ',')) schemes.push_back(item);

  data::PeriodConfig config = data::MakePeriodConfig(
      city, period, flags.GetInt("seed", 7), flags.GetDouble("scale", 1.5));
  if (flags.Has("turbulence")) {
    config.generator.turbulence_sigma = flags.GetDouble("turbulence", 0.09);
  }
  auto prepared = core::PrepareData(config);
  if (!prepared.ok()) {
    std::cerr << prepared.status().ToString() << "\n";
    return 1;
  }
  TrainConfig train;
  train.epochs = static_cast<int>(flags.GetInt("epochs", 15));
  train.learning_rate = static_cast<float>(flags.GetDouble("lr", 2e-3));
  train.seed = flags.GetInt("seed", 7);

  TablePrinter table(std::string(data::CityName(city)) + " / " + config.label,
                     {"scheme", "ER", "MSLE", "R2", "fit_s"});
  for (const std::string& scheme : schemes) {
    auto result = core::RunScheme(scheme, *prepared, train);
    if (!result.ok()) {
      std::cerr << scheme << ": " << result.status().ToString() << "\n";
      return 1;
    }
    table.AddRow({scheme, TablePrinter::Num(result->metrics.er),
                  TablePrinter::Num(result->metrics.msle),
                  TablePrinter::Num(result->metrics.r2),
                  TablePrinter::Num(result->fit_seconds, 1)});
  }
  table.Print(std::cout);
  return 0;
}
