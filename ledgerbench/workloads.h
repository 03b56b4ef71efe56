// The three workloads. Each one builds its inputs from the seed, runs a
// fixed number of ops sized for `seconds` on the reference host (so the
// deterministic outputs repeat exactly for one seed), checks the outputs,
// and returns either the end-to-end metrics (untraced) or its ledger rows
// (traced). See README.md for why each workload exists.

#ifndef LEDGERBENCH_WORKLOADS_H_
#define LEDGERBENCH_WORKLOADS_H_

#include <string>

#include "ledger.h"

namespace ledgerbench {

Outcome RunServe10k(const RunSpec& spec);
Outcome RunFleet(const RunSpec& spec);
Outcome RunTrain(const RunSpec& spec);

/// Benchmark self-test: the analytic work counts of the N=10k serve step
/// against a hand count (six GRU gate Linears per window, ~45M MACs per
/// step with about two thirds in the GRU). Returns "" or the failure.
std::string CheckWorkCounts();

/// Process thread-pool size every workload runs at (recorded in the host
/// line). One worker: on a shared 4-core host, four workers moved the
/// serve_10k median by 20% between runs of identical code.
constexpr int kPoolSize = 1;

/// Setups per untraced run; setup_s is their median. serve_10k's setup
/// takes ~1 s; fleet's and train's ~0.1 s, where host jitter needs more
/// samples.
constexpr int kServeSetupRepeats = 5;
constexpr int kSetupRepeats = 15;

}  // namespace ledgerbench

#endif  // LEDGERBENCH_WORKLOADS_H_
