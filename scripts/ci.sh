#!/usr/bin/env bash
# Tier-1 CI gate: build, run the full test suite, rehearse an interrupted
# experiment sweep (crash + resume must reproduce the clean run byte for
# byte), chaos-soak the serving daemon with faults armed (plain and
# adaptive), TSan the concurrent serving paths, ASan the checkpoint/resume
# readers, the loader mutation test and Eq. 6's training kernels, and
# UBSan the adaptation arithmetic.
#
# Usage: scripts/ci.sh
#   BUILD_DIR=<dir>       main build directory   (default: build)
#   TSAN_BUILD_DIR=<dir>  TSan build directory   (default: build-tsan)
#   ASAN_BUILD_DIR=<dir>  ASan build directory   (default: build-asan)
#   UBSAN_BUILD_DIR=<dir> UBSan build directory  (default: build-ubsan)
#   EALGAP_CI_BENCH=1     also run the bench stage: re-measure the micro
#                         suites in Release and fail on >60% cpu_time
#                         regression vs the committed BENCH_*.json baselines
#                         (60, not bench_compare's default 15: see the
#                         comment at the bench_compare call below)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"

echo "===== tier-1: build + full test suite (scalar, SSE2, AVX2 + native SIMD) ====="
# -Werror: the tree builds warning-free, and this keeps it that way.
cmake -B "$BUILD_DIR" -S . -G Ninja -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD_DIR" -j
# The whole suite runs four times: pinned to the scalar kernel table,
# pinned to SSE2, pinned to AVX2, and on the widest ISA the host supports.
# The golden/determinism tests compare against the same fixtures every
# time — this is the kernel-layer bit-identity contract enforced end to
# end. The pinned passes run the fused serve pass's 4- and 8-lane blocks
# end to end on a host whose native table is wider. A pinned table the
# host lacks falls back to the widest supported one with a warning.
echo "----- tier-1 pass 1/4: EALGAP_SIMD=scalar -----"
EALGAP_SIMD=scalar ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
echo "----- tier-1 pass 2/4: EALGAP_SIMD=sse2 -----"
EALGAP_SIMD=sse2 ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
echo "----- tier-1 pass 3/4: EALGAP_SIMD=avx2 -----"
EALGAP_SIMD=avx2 ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
echo "----- tier-1 pass 4/4: native SIMD dispatch -----"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "===== fault stage: serve tests with injection armed ====="
# Re-run the fault suite with EALGAP_FAULTS set so the env-arming path is
# exercised end to end (every test still pins its own spec via
# ScopedFaults, so ambient arming must not break any of them, and the
# EnvVarArmsTheHarness test stops being skipped).
EALGAP_FAULTS="nn.predict.nan:every=7,io.write.fail:p=0.5:seed=5" \
  "./$BUILD_DIR/tests/fault_injection_test"

echo "===== interrupt-resume stage: crash a sweep, resume it, diff vs clean ====="
# Leg 1 — journal resume. A tiny sweep with io.write.fail armed so the
# first cell's journal record lands and the second cell's record fails all
# three atomic-write attempts: the sweep must abort (unrecorded progress is
# not progress). Resuming without faults re-runs only the missing cell, and
# the resulting journal must be byte-identical to one from a clean sweep —
# the journal format deliberately carries no wall-clock fields.
RESUME_TMP="$(mktemp -d)"
BENCH_TMP=""
# One EXIT trap removes every scratch directory: a second `trap ... EXIT`
# would replace this one and leak $RESUME_TMP.
cleanup() { rm -rf "$RESUME_TMP" ${BENCH_TMP:+"$BENCH_TMP"}; }
trap cleanup EXIT
TOOL="./$BUILD_DIR/tools/ealgap_tool"
SWEEP_ARGS=(--cities nyc_bike --periods normal --schemes HA,ARIMA --scale 0.35)
if EALGAP_FAULTS="io.write.fail:every=1:after=1" \
    "$TOOL" experiment "${SWEEP_ARGS[@]}" --journal "$RESUME_TMP/interrupted.journal" \
    > /dev/null 2>&1; then
  echo "FAIL: sweep with journal-write faults armed should have aborted" >&2
  exit 1
fi
"$TOOL" experiment "${SWEEP_ARGS[@]}" --journal "$RESUME_TMP/interrupted.journal" \
  --resume > /dev/null
"$TOOL" experiment "${SWEEP_ARGS[@]}" --journal "$RESUME_TMP/clean.journal" \
  > /dev/null
diff "$RESUME_TMP/clean.journal" "$RESUME_TMP/interrupted.journal"
echo "journal resume: interrupted+resumed journal byte-identical to clean"

# Leg 2 — train-state resume. Kill one EALGAP training run mid-epoch with
# an injected step fault (per-epoch train-state snapshots on), resume it,
# and require the final model checkpoint to be byte-identical to an
# uninterrupted run's.
"$TOOL" generate --city nyc_bike --period normal --scale 0.35 \
  --out-trips "$RESUME_TMP/trips.csv" \
  --out-stations "$RESUME_TMP/stations.csv" > /dev/null
EVAL_ARGS=(--trips "$RESUME_TMP/trips.csv" --stations "$RESUME_TMP/stations.csv"
  --start 2020-06-30 --scheme EALGAP --epochs 3)
"$TOOL" evaluate "${EVAL_ARGS[@]}" --save "$RESUME_TMP/clean.ckpt" > /dev/null
# after=150 lands in epoch 2 (~110 optimizer steps per epoch here), so the
# epoch-1 snapshot is on disk when the run dies.
if EALGAP_FAULTS="train.step.error:every=1:after=150:max=1" \
    "$TOOL" evaluate "${EVAL_ARGS[@]}" --train-state "$RESUME_TMP/state.train" \
    --checkpoint-every 1 > /dev/null 2>&1; then
  echo "FAIL: evaluate with a step fault armed should have exited non-zero" >&2
  exit 1
fi
if [[ ! -f "$RESUME_TMP/state.train" ]]; then
  echo "FAIL: the interrupted run left no train-state snapshot" \
       "(did the kill point move before the first epoch boundary?)" >&2
  exit 1
fi
"$TOOL" evaluate "${EVAL_ARGS[@]}" --train-state "$RESUME_TMP/state.train" \
  --checkpoint-every 1 --resume --save "$RESUME_TMP/resumed.ckpt" > /dev/null
cmp "$RESUME_TMP/clean.ckpt" "$RESUME_TMP/resumed.ckpt"
echo "train resume: interrupted+resumed checkpoint byte-identical to clean"

echo "===== chaos stage: fault-armed daemon soak ====="
# A short soak of the sharded serving daemon with the overload and crash
# sites armed on top of the load generator's own burst phases: queues
# fill, shards die mid-serve and restart from their checkpoints. The tool
# exits 3 (naming the counter that leaked) if any request or degraded
# step ends the run unattributed, so this stage's exit 0 IS the
# zero-unattributed assertion. The replay-digest line in the output is
# the hook for debugging a failure by re-running the same seeds.
EALGAP_FAULTS="daemon.queue.full:p=0.05:seed=11,daemon.shard.crash:p=0.01:seed=13" \
  "$TOOL" daemon --shards 3 --ticks 200 --days 40 --epochs 0 \
  --state-dir "$RESUME_TMP/daemon_state" | tail -n 2
echo "daemon soak: fault-armed run exited clean with full attribution"

# The adaptation soak: test-time adaptation on, with every serve.adapt.*
# failure site armed (poisoned validation loss, forced rejection, micro-fit
# infra failure, attempt stall) plus shard crashes — so attempts roll back,
# the sticky freeze trips and probe-recovers, and crashed shards resume
# their adapted weights + detector posture from checkpoints. The tool exits
# 3 if any adaptation attempt ends the run unattributed (attempts !=
# commits + rollbacks), so exit 0 IS the adaptation-attribution assertion.
EALGAP_FAULTS="serve.adapt.nan:every=3,serve.adapt.reject:every=4,serve.adapt.error:every=5,serve.adapt.delay:every=7:ms=1,daemon.shard.crash:every=83" \
  "$TOOL" daemon --shards 2 --ticks 200 --days 40 --epochs 0 --adapt \
  --adapt-cusum-h 4 --adapt-window 32 --adapt-min-window 12 \
  --adapt-holdout 4 --adapt-cooldown 8 \
  --state-dir "$RESUME_TMP/daemon_state_adapt" | tail -n 4
echo "daemon soak: adaptive fault-armed run exited clean with full attribution"

# The same adaptive soak WITHOUT --state-dir: every crash is a cold
# restart, which must rebuild the shard's wrapper around its in-memory
# model through the same builder as a checkpoint restart, and must count
# each incarnation's adaptation exactly once. The tool exits 3 if any
# request or attempt goes unattributed or if adaptation observed more
# steps than the fleet applied, so exit 0 IS the attribution assertion.
EALGAP_FAULTS="daemon.queue.full:p=0.05:seed=11,daemon.shard.crash:every=83,serve.adapt.nan:every=3,serve.adapt.reject:every=4" \
  "$TOOL" daemon --shards 2 --ticks 200 --days 40 --epochs 0 --adapt \
  --adapt-cusum-h 4 --adapt-window 32 --adapt-min-window 12 \
  --adapt-holdout 4 --adapt-cooldown 8 | tail -n 4
echo "daemon soak: cold-restart adaptive run exited clean with full attribution"

# A flag its subcommand does not read must fail, naming the flag, before
# any work starts: a retired int8-serving flag would otherwise run with
# defaults and quietly serve the float model.
if "$TOOL" serve --quant 2> "$RESUME_TMP/unknown_flag.err"; then
  echo "FAIL: serve accepted a flag it does not read" >&2
  exit 1
fi
grep -q "serve does not take --" "$RESUME_TMP/unknown_flag.err"
echo "unknown flags: rejected by name"

echo "===== alloc-free stage: zero-allocation serve contract ====="
# The counting run: alloc_guard_test links a malloc-family interposition
# hook and asserts 0 heap allocations over 240-step healthy AND
# fault-degraded ResilientPredictor replays (tier-1 already ran it; this
# repeats it with the fault env armed so ambient arming is covered too).
EALGAP_FAULTS="nn.predict.nan:every=7" "./$BUILD_DIR/tests/alloc_guard_test"

echo "===== TSan: concurrent serving + training paths ====="
# PredictMany fans samples across the pool and EvaluateLoss fans batches;
# run both under ThreadSanitizer with more threads than the tiny models
# need, to force interleavings. The fault suite rides along: fault
# decisions are mutex-serialized and must stay race-free under load.
# ealgap_test covers the stacked-batch forward that EvaluateLoss runs from
# pool threads (its batch parity cases train and evaluate every variant).
cmake -B "$TSAN_BUILD_DIR" -S . -G Ninja -DEALGAP_SANITIZE=thread
# daemon_test is the TSan leg of the daemon soak: the multi-producer
# queue stress and the cross-shard ParallelFor serve fan-out both run
# with sanitized interleavings here. nn_test runs Eq. 10's GRU op at 1 and
# 4 threads: its row chunks write dx and dh in place from pool threads.
cmake --build "$TSAN_BUILD_DIR" -j --target \
  serve_parity_test determinism_test thread_pool_test ops_parallel_test \
  fault_injection_test train_resume_test daemon_test ealgap_test nn_test
for t in serve_parity_test determinism_test thread_pool_test \
         ops_parallel_test fault_injection_test train_resume_test \
         daemon_test ealgap_test nn_test; do
  echo "----- TSan: $t -----"
  EALGAP_NUM_THREADS=4 "./$TSAN_BUILD_DIR/tests/$t"
done

echo "===== ASan: checkpoint/resume + loader mutation + fault-injection + arena + Eq. 6 and Eq. 10 kernel paths ====="
# The resume machinery shuffles large snapshots (params, Adam moments, RNG
# streams) through the state-file container and back; AddressSanitizer
# guards the readers against overreads on truncated or corrupt files.
# loader_fuzz_test is the same binary with the same seed and budget as in
# tier-1: every loader (four state kinds, both CSVs, the journal) reads
# bit-flipped, truncated, length-inflated, re-sealed and spliced mutants
# of valid files, and any overread fails the stage.
# alloc_guard_test rides along deliberately: under ASan its malloc hook
# compiles out (ASan owns malloc) and the counting assertions self-skip,
# which turns the 240-step replays into a lifetime check of the exact
# arena checkpoint/rewind scenario — a use-after-rewind trips ASan here.
# autograd_test and vec_test hold the parity tests of Eq. 6's training
# kernels (RegionAttention), which index per-lane scratch by L and J: here
# every table runs them at L and J past the serve kernel's stack caps.
# vec_test and nn_test do the same for Eq. 10's GRU kernels (GruStep),
# whose scratch is sized by the input and hidden widths, and for the
# narrow and transposed-operand matmul paths.
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
cmake -B "$ASAN_BUILD_DIR" -S . -G Ninja -DEALGAP_SANITIZE=address
cmake --build "$ASAN_BUILD_DIR" -j --target \
  train_resume_test fault_injection_test experiment_test alloc_guard_test \
  loader_fuzz_test autograd_test vec_test nn_test
for t in train_resume_test fault_injection_test experiment_test \
         alloc_guard_test loader_fuzz_test autograd_test vec_test nn_test; do
  echo "----- ASan: $t -----"
  "./$ASAN_BUILD_DIR/tests/$t"
done

echo "===== UBSan: adaptation + serving arithmetic paths ====="
# The adaptation layer leans on arithmetic edge cases by design (CUSUM
# z-scores over a floored sigma, log2 scoring near zero, int64 step
# counters): UndefinedBehaviorSanitizer with -fno-sanitize-recover turns
# any signed overflow, bad shift, or misaligned access in those paths into
# a test failure. daemon_test drives the full adapt/freeze/restart
# machinery; robustness_test drives the corrupt-input parsers whose
# error paths do offset arithmetic on attacker-shaped files.
UBSAN_BUILD_DIR="${UBSAN_BUILD_DIR:-build-ubsan}"
cmake -B "$UBSAN_BUILD_DIR" -S . -G Ninja -DEALGAP_SANITIZE=undefined
cmake --build "$UBSAN_BUILD_DIR" -j --target \
  daemon_test robustness_test fault_injection_test
for t in daemon_test robustness_test fault_injection_test; do
  echo "----- UBSan: $t -----"
  "./$UBSAN_BUILD_DIR/tests/$t"
done

if [[ "${EALGAP_CI_BENCH:-0}" == "1" ]]; then
  echo "===== bench stage: regression check vs committed baselines ====="
  # Measure into a scratch directory (never overwrites the committed
  # baselines; re-record those deliberately with scripts/bench_to_json.sh).
  BENCH_TMP="$(mktemp -d)"  # removed by the cleanup trap
  for pair in "micro_tensor_ops:BENCH_tensor_ops.json" \
              "micro_serve:BENCH_serve.json" \
              "micro_daemon:BENCH_daemon.json" \
              "micro_adapt:BENCH_adapt.json"; do
    target="${pair%%:*}"
    baseline="${pair##*:}"
    if [[ ! -f "$baseline" ]]; then
      echo "no committed $baseline; skipping $target"
      continue
    fi
    scripts/bench_to_json.sh "$target" "$BENCH_TMP/$baseline"
    # Threshold 60, not the script's default 15: on the virtualized CI
    # hosts two runs of an IDENTICAL binary differ per-benchmark by up to
    # ~47% even after bench_compare factors out the suite-wide drift
    # (per-process page placement shifts cache-conflict patterns; the
    # repetitions within one run are tight, the runs disagree). 60 only
    # flags unambiguous regressions; use 15 when comparing recordings
    # from the same process lifetime or a bare-metal box.
    python3 scripts/bench_compare.py "$baseline" "$BENCH_TMP/$baseline" \
      --threshold 60
  done
fi

echo "ci.sh: all gates green"
