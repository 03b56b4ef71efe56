// Shared pieces of the ledger benchmark: the in-memory span recorder that
// times library calls from the outside, latency statistics, the metric
// list every workload fills, and the correctness gate.

#ifndef LEDGERBENCH_LEDGER_H_
#define LEDGERBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledgerbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Records spans around calls into the library. Spans nest: a span opened
/// while another is open is its child, and a row's self time is its span's
/// duration minus the durations of its direct children. Spans are grouped
/// into ops (one workload op, or one side measurement); Reduce() sums the
/// self time of each row within each group. Everything stays in memory
/// until the run ends.
class Ledger {
 public:
  /// RAII span. A null ledger makes it a no-op, which is how the untraced
  /// run keeps the same code path without recording anything.
  class Span {
   public:
    Span(Ledger* ledger, const char* row);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Ledger* ledger_;
    int index_ = -1;
  };

  /// Starts a new group; later spans belong to it.
  void NextGroup() { ++group_; }

  struct Row {
    int64_t calls = 0;
    double self_ms_total = 0.0;
    /// Self time summed per group, one entry per group the row ran in.
    std::vector<double> self_ms_per_group;
  };
  std::map<std::string, Row> Reduce() const;

 private:
  struct Rec {
    int row = 0;
    int parent = -1;
    int64_t group = 0;
    Clock::time_point t0, t1;
  };
  int Intern(const char* row);

  std::vector<Rec> spans_;
  std::vector<int> open_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  int64_t group_ = 0;
};

/// Median of `v` (copied, so the caller's order is kept). NaN when empty.
double Median(std::vector<double> v);

/// Op latency summary: the median, and the tail. The tail is the highest
/// percentile with at least ten ops beyond it (the 11th-largest value) of
/// each block of kTailBlock consecutive ops (p95), and the median over
/// blocks when a run has several. On a shared host, bursts of contention
/// from other tenants put a run's top 1% of ticks anywhere from 6 to 14 ms;
/// per-block p95s with a median over blocks stay within a few percent.
/// Runs shorter than two blocks are one block.
constexpr size_t kTailBlock = 200;
struct Latency {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_pct = 0.0;  ///< which percentile tail_ms is
};
Latency Summarize(const std::vector<double>& op_ms);

/// One reported metric, in the order it was added.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): its metrics (end-to-end ones
/// when untraced, ledger rows when traced), op accounting, and the
/// deterministic outputs printed for cross-run comparison.
struct Outcome {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Deterministic per (seed, seconds): quality, failed share, digests.
  std::map<std::string, std::string> outputs;
  std::map<std::string, std::string> info;
};

/// Fails the run: prints the check's name to stderr and exits non-zero
/// without a result line.
void Gate(bool ok, const std::string& check, const std::string& detail = "");

/// Peak RSS of the timed ops: ResetPeakRss() returns freed heap to the OS
/// and resets the kernel's high-water mark (VmHWM) after set-up;
/// PeakRssMb() reads it back, in MiB. Repeated set-ups then leave no
/// fragmentation behind in the number.
void ResetPeakRss();
double PeakRssMb();

/// Prints the ledger as a table on stdout: calls, total self time, median
/// self time per op, and work counts where `work` has them.
struct Work {
  double flops = 0.0;
  double bytes = 0.0;
};
void PrintLedger(const std::string& title,
                 const std::map<std::string, Ledger::Row>& rows,
                 const std::map<std::string, Work>& work);

/// Median self time per group of `row`, in ms; 0 when the row never ran.
double RowMs(const std::map<std::string, Ledger::Row>& rows,
             const std::string& row);

struct RunSpec {
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string state_dir;  ///< scratch directory inside the checkout
  bool trace = false;
};

}  // namespace ledgerbench

#endif  // LEDGERBENCH_LEDGER_H_
