#include "ledger.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

namespace ledgerbench {

Ledger::Span::Span(Ledger* ledger, const char* row) : ledger_(ledger) {
  if (ledger_ == nullptr) return;
  Rec rec;
  rec.row = ledger_->Intern(row);
  rec.parent = ledger_->open_.empty() ? -1 : ledger_->open_.back();
  rec.group = ledger_->group_;
  index_ = static_cast<int>(ledger_->spans_.size());
  ledger_->spans_.push_back(rec);
  ledger_->open_.push_back(index_);
  ledger_->spans_.back().t0 = Clock::now();
}

Ledger::Span::~Span() {
  if (ledger_ == nullptr) return;
  ledger_->spans_[static_cast<size_t>(index_)].t1 = Clock::now();
  ledger_->open_.pop_back();
}

int Ledger::Intern(const char* row) {
  auto it = ids_.find(row);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.emplace_back(row);
  ids_.emplace(row, id);
  return id;
}

std::map<std::string, Ledger::Row> Ledger::Reduce() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = MsBetween(spans_[i].t0, spans_[i].t1);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) self[static_cast<size_t>(p)] -= MsBetween(spans_[i].t0, spans_[i].t1);
  }
  // Per (row, group) sums; spans are appended in time order, so groups
  // arrive in increasing order for every row.
  std::map<std::string, Row> rows;
  std::vector<int64_t> last_group(names_.size(), -1);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& rec = spans_[i];
    Row& row = rows[names_[static_cast<size_t>(rec.row)]];
    ++row.calls;
    row.self_ms_total += self[i];
    if (last_group[static_cast<size_t>(rec.row)] != rec.group) {
      row.self_ms_per_group.push_back(0.0);
      last_group[static_cast<size_t>(rec.row)] = rec.group;
    }
    row.self_ms_per_group.back() += self[i];
  }
  return rows;
}

double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

Latency Summarize(const std::vector<double>& op_ms) {
  Gate(op_ms.size() >= 11, "enough_ops",
       "a run needs at least 11 ops for a tail percentile, got " +
           std::to_string(op_ms.size()));
  Latency out;
  out.p50_ms = Median(op_ms);
  const size_t blocks = std::max<size_t>(1, op_ms.size() / kTailBlock);
  const size_t block = op_ms.size() / blocks;
  std::vector<double> tails;
  for (size_t b = 0; b < blocks; ++b) {
    // The last block takes the remainder.
    const auto first = op_ms.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last = b + 1 == blocks
                          ? op_ms.end()
                          : first + static_cast<std::ptrdiff_t>(block);
    std::vector<double> sorted(first, last);
    std::sort(sorted.begin(), sorted.end());
    tails.push_back(sorted[sorted.size() - 11]);  // ten ops lie beyond it
  }
  out.tail_ms = Median(tails);
  out.tail_pct = 100.0 * static_cast<double>(block - 10) / static_cast<double>(block);
  return out;
}

void Gate(bool ok, const std::string& check, const std::string& detail) {
  if (ok) return;
  std::fprintf(stderr, "ledgerbench: correctness check failed: %s%s%s\n",
               check.c_str(), detail.empty() ? "" : ": ", detail.c_str());
  std::fflush(stdout);
  std::exit(3);
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak RSS to the current RSS
  clear_refs.close();
  Gate(!clear_refs.fail(), "peak_rss_reset", "cannot write /proc/self/clear_refs");
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  Gate(false, "peak_rss_read", "no VmHWM in /proc/self/status");
  return 0.0;
}

double RowMs(const std::map<std::string, Ledger::Row>& rows,
             const std::string& row) {
  auto it = rows.find(row);
  if (it == rows.end()) return 0.0;
  return Median(it->second.self_ms_per_group);
}

void PrintLedger(const std::string& title,
                 const std::map<std::string, Ledger::Row>& rows,
                 const std::map<std::string, Work>& work) {
  std::printf("ledger %s\n", title.c_str());
  std::printf("  %-26s %8s %12s %12s %12s %12s %9s\n", "row", "calls",
              "self_ms_sum", "self_ms_p50", "flops", "bytes", "GFLOP/s");
  for (const auto& [name, row] : rows) {
    const double p50 = Median(row.self_ms_per_group);
    auto w = work.find(name);
    if (w == work.end()) {
      std::printf("  %-26s %8lld %12.3f %12.4f %12s %12s %9s\n", name.c_str(),
                  static_cast<long long>(row.calls), row.self_ms_total, p50,
                  "-", "-", "-");
    } else {
      std::printf("  %-26s %8lld %12.3f %12.4f %12.0f %12.0f %9.3f\n",
                  name.c_str(), static_cast<long long>(row.calls),
                  row.self_ms_total, p50, w->second.flops, w->second.bytes,
                  w->second.flops / (p50 * 1e6));
    }
  }
}

}  // namespace ledgerbench
