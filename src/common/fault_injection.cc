#include "common/fault_injection.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace ealgap {
namespace fault {

namespace {

/// FNV-1a, used to derive a default per-site RNG seed from the site name so
/// two sites armed without explicit seeds still draw independent streams.
uint64_t HashName(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Every fault site compiled into production code. Arming validates site
/// names against this list so a typo'd EALGAP_FAULTS clause fails loudly
/// instead of silently never firing. Tests may arm arbitrary sites under
/// the reserved "test." namespace.
constexpr const char* kKnownSites[] = {
    "nn.predict.nan",     "nn.predict.error",   "nn.predict.delay",
    "io.open.fail",       "io.write.fail",      "io.write.partial",
    "io.dir.fsync.fail",  "train.step.nan",     "train.step.error",
    "train.step.delay",   "train.eval.error",   "daemon.queue.full",
    "daemon.shard.stall", "daemon.shard.crash", "serve.adapt.nan",
    "serve.adapt.error",  "serve.adapt.delay",  "serve.adapt.reject",
};

/// Only delay sites consume an `ms=` option; arming it anywhere else is a
/// spec bug the harness rejects instead of silently ignoring.
bool IsDelaySite(const std::string& site) {
  if (site.rfind("test.", 0) == 0) return true;
  constexpr const char* kSuffix = ".delay";
  constexpr size_t kSuffixLen = 6;
  return site.size() > kSuffixLen &&
         site.compare(site.size() - kSuffixLen, kSuffixLen, kSuffix) == 0;
}

bool IsKnownSite(const std::string& site) {
  if (site.rfind("test.", 0) == 0) return true;
  for (const char* known : kKnownSites) {
    if (site == known) return true;
  }
  return false;
}

std::string KnownSiteList() {
  std::string out;
  for (const char* known : kKnownSites) {
    if (!out.empty()) out += ", ";
    out += known;
  }
  return out;
}

/// Option keys the harness (or a site, for "ms") actually reads. A typo'd
/// key would otherwise land in params and silently change nothing.
constexpr const char* kKnownOptionKeys[] = {"p",     "seed", "every",
                                            "after", "max",  "ms"};

bool IsKnownOptionKey(const std::string& key) {
  for (const char* known : kKnownOptionKeys) {
    if (key == known) return true;
  }
  return false;
}

struct SiteConfig {
  double p = 1.0;
  uint64_t seed = 0;
  int64_t every = 0;  // 0 = probabilistic
  int64_t after = 0;
  int64_t max_fires = -1;  // <0 = unlimited
  std::map<std::string, double, std::less<>> params;
};

struct SiteState {
  SiteConfig config;
  Rng rng{0};
  int64_t calls = 0;
  int64_t fires = 0;
};

class Registry {
 public:
  static Registry& Get() {
    static Registry* r = new Registry();
    return *r;
  }

  bool ShouldFail(const char* site) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return false;
    SiteState& s = it->second;
    ++s.calls;
    if (s.calls <= s.config.after) return false;
    if (s.config.max_fires >= 0 && s.fires >= s.config.max_fires) return false;
    bool fire;
    if (s.config.every > 0) {
      fire = (s.calls - s.config.after) % s.config.every == 0;
    } else {
      fire = s.rng.Uniform() < s.config.p;
    }
    if (fire) ++s.fires;
    return fire;
  }

  double Param(const char* site, const char* key, double def) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return def;
    auto p = it->second.config.params.find(key);
    return p == it->second.config.params.end() ? def : p->second;
  }

  std::map<std::string, SiteStats> Snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, SiteStats> out;
    for (const auto& [name, s] : sites_) {
      out[name] = SiteStats{s.calls, s.fires};
    }
    return out;
  }

  Status Arm(const std::string& spec) {
    std::map<std::string, SiteState, std::less<>> parsed;
    Status st = Parse(spec, &parsed);
    if (!st.ok()) return st;
    std::lock_guard<std::mutex> lock(mu_);
    sites_ = std::move(parsed);
    spec_ = spec;
    armed_flag().store(!sites_.empty(), std::memory_order_relaxed);
    return Status::OK();
  }

  std::string CurrentSpec() {
    std::lock_guard<std::mutex> lock(mu_);
    return spec_;
  }

  /// The global disarmed-fast-path flag lives here so Armed() needs no lock.
  static std::atomic<bool>& armed_flag() {
    static std::atomic<bool> armed{false};
    return armed;
  }

  /// Parses EALGAP_FAULTS exactly once, before the first fault decision.
  void EnsureEnvLoaded() {
    std::call_once(env_once_, [this] {
      const char* env = std::getenv("EALGAP_FAULTS");
      if (env != nullptr && env[0] != '\0') {
        Status st = Arm(env);
        if (!st.ok()) {
          // A malformed env var must not silently disable injection in a
          // fault-testing run; fail loudly instead.
          std::fprintf(stderr, "fatal: bad EALGAP_FAULTS: %s\n",
                       st.ToString().c_str());
          std::abort();
        }
      }
    });
  }

 private:
  static Status Parse(const std::string& spec,
                      std::map<std::string, SiteState, std::less<>>* out) {
    std::stringstream clauses(spec);
    std::string clause;
    while (std::getline(clauses, clause, ',')) {
      if (clause.empty()) continue;
      std::stringstream fields(clause);
      std::string site;
      if (!std::getline(fields, site, ':') || site.empty()) {
        return Status::ParseError("fault spec clause missing site name: " +
                                  clause);
      }
      if (!IsKnownSite(site)) {
        return Status::ParseError(
            "unknown fault site '" + site + "' in clause '" + clause +
            "' (known sites: " + KnownSiteList() +
            "; the test.* namespace is always allowed)");
      }
      SiteState state;
      state.config.seed = HashName(site);
      std::string field;
      while (std::getline(fields, field, ':')) {
        const size_t eq = field.find('=');
        if (eq == std::string::npos || eq == 0) {
          return Status::ParseError("fault option is not key=value: " + field);
        }
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "ms" && !IsDelaySite(site)) {
          return Status::ParseError(
              "fault option ms= is only valid on *.delay sites, but site '" +
              site + "' is not a delay site (clause '" + clause + "')");
        }
        if (!IsKnownOptionKey(key)) {
          return Status::ParseError("unknown fault option key '" + key +
                                    "' in clause '" + clause +
                                    "' (known keys: p, seed, every, after, "
                                    "max, ms)");
        }
        std::istringstream vs(value);
        double num = 0.0;
        if (!(vs >> num) || !vs.eof()) {
          return Status::ParseError("fault option " + key +
                                    " has non-numeric value: " + value);
        }
        if (key == "p") {
          if (num < 0.0 || num > 1.0) {
            return Status::ParseError("fault probability out of [0,1]: " +
                                      value);
          }
          state.config.p = num;
        } else if (key == "seed") {
          state.config.seed = static_cast<uint64_t>(num);
        } else if (key == "every") {
          state.config.every = static_cast<int64_t>(num);
        } else if (key == "after") {
          state.config.after = static_cast<int64_t>(num);
        } else if (key == "max") {
          state.config.max_fires = static_cast<int64_t>(num);
        } else {
          state.config.params[key] = num;
        }
      }
      state.rng = Rng(state.config.seed);
      (*out)[site] = std::move(state);
    }
    return Status::OK();
  }

  std::mutex mu_;
  std::map<std::string, SiteState, std::less<>> sites_;
  std::string spec_;
  std::once_flag env_once_;
};

}  // namespace

bool Armed() {
  Registry::Get().EnsureEnvLoaded();
  return Registry::armed_flag().load(std::memory_order_relaxed);
}

bool ShouldFail(const char* site) { return Registry::Get().ShouldFail(site); }

double Param(const char* site, const char* key, double def) {
  return Registry::Get().Param(site, key, def);
}

bool MaybeDelay(const char* site, double default_ms) {
  if (!EALGAP_FAULT(site)) return false;
  const double ms = Param(site, "ms", default_ms);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(ms));
  return true;
}

std::map<std::string, SiteStats> Snapshot() {
  return Registry::Get().Snapshot();
}

Status ArmFromSpec(const std::string& spec) {
  return Registry::Get().Arm(spec);
}

void DisarmAll() { (void)Registry::Get().Arm(""); }

ScopedFaults::ScopedFaults(const std::string& spec) {
  Registry::Get().EnsureEnvLoaded();
  saved_spec_ = Registry::Get().CurrentSpec();
  Status st = Registry::Get().Arm(spec);
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: bad ScopedFaults spec: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
}

ScopedFaults::~ScopedFaults() { (void)Registry::Get().Arm(saved_spec_); }

}  // namespace fault
}  // namespace ealgap
