// ledgerbench: one command for the end-to-end metrics of three workloads
// (serve_10k, fleet, train) and, with --trace 1, the per-layer ledger of
// all three. Usage:
//
//   ledgerbench --workload <serve_10k|fleet|train> --seed <n> --seconds <s>
//               --trace <0|1> --state-dir <dir>
//
// Prints a host line, the deterministic outputs of the run, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}. Any
// failed correctness check exits non-zero without that line.

#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ledger.h"
#include "tensor/kernels.h"
#include "workloads.h"

namespace ledgerbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonObject(const std::map<std::string, std::string>& kv) {
  std::string out = "{";
  for (const auto& [k, v] : kv) {
    if (out.size() > 1) out += ", ";
    out += JsonString(k) + ": " + JsonString(v);
  }
  return out + "}";
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// The host record: what a result may only be compared against.
std::map<std::string, std::string> HostRecord(const std::string& state_dir) {
  std::map<std::string, std::string> host;
  host["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, model = "unknown", flags;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    if (key == "model name" && model == "unknown") model = line.substr(colon + 2);
    if (key == "flags" && flags.empty()) flags = " " + line.substr(colon + 1) + " ";
  }
  host["cpu"] = model;
  host["avx2"] = flags.find(" avx2 ") != std::string::npos ? "yes" : "no";
  host["avx512_vnni"] = flags.find(" avx512_vnni ") != std::string::npos ? "yes" : "no";
  host["simd"] = ealgap::kernels::BackendName(ealgap::kernels::ActiveBackend());
#ifdef NDEBUG
  host["build"] = "release";
#else
  host["build"] = "debug";
#endif
  host["pool_size"] = std::to_string(kPoolSize);
  host["state_fs"] = FilesystemName(state_dir);
  return host;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ledgerbench: %s\nusage: ledgerbench --workload "
               "<serve_10k|fleet|train> --seed <n> --seconds <s> --trace <0|1> "
               "--state-dir <dir>\n",
               why);
  return 2;
}

}  // namespace
}  // namespace ledgerbench

int main(int argc, char** argv) {
  using namespace ledgerbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return Usage("arguments come in --flag value pairs");
  for (const char* flag : {"--workload", "--seed", "--seconds", "--trace", "--state-dir"}) {
    if (args.count(flag) == 0) return Usage((std::string("missing ") + flag).c_str());
  }
  RunSpec spec;
  try {
    spec.seed = std::stoull(args["--seed"]);
    spec.seconds = std::stod(args["--seconds"]);
  } catch (const std::exception&) {
    return Usage("--seed and --seconds take numbers");
  }
  spec.trace = args["--trace"] == "1";
  spec.state_dir = args["--state-dir"];
  const std::string workload = args["--workload"];
  using Runner = Outcome (*)(const RunSpec&);
  const std::vector<std::pair<std::string, Runner>> workloads = {
      {"serve_10k", RunServe10k}, {"fleet", RunFleet}, {"train", RunTrain}};
  Runner runner = nullptr;
  for (const auto& [name, fn] : workloads) {
    if (name == workload) runner = fn;
  }
  if (runner == nullptr) return Usage("unknown workload");
  if (spec.seconds <= 0) return Usage("--seconds must be positive");

  const std::string why = CheckWorkCounts();
  Gate(why.empty(), "work_count_selftest", why);
  std::filesystem::create_directories(spec.state_dir);
  std::printf("host %s\n", JsonObject(HostRecord(spec.state_dir)).c_str());

  // The traced run is the whole ledger: every workload's rows, each
  // workload on a third of the time.
  std::vector<std::pair<std::string, Outcome>> outcomes;
  if (spec.trace) {
    RunSpec part = spec;
    part.seconds = spec.seconds / 3;
    for (const auto& [name, fn] : workloads) outcomes.emplace_back(name, fn(part));
  } else {
    outcomes.emplace_back(workload, runner(spec));
  }
  std::filesystem::remove_all(spec.state_dir);

  int64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const auto& [name, outcome] : outcomes) {
    std::printf("outputs %s %s\n", name.c_str(), JsonObject(outcome.outputs).c_str());
    std::printf("info %s %s\n", name.c_str(), JsonObject(outcome.info).c_str());
    attempted += outcome.attempted;
    failed += outcome.failed;
    for (const Metric& m : outcome.metrics) {
      if (!metrics.empty()) metrics += ", ";
      metrics += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
                 ", \"unit\": " + JsonString(m.unit) + "}";
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              metrics.c_str());
  return 0;
}
