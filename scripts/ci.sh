#!/usr/bin/env bash
# Offline CI gate for pTatin3D-rs. No network access required: the
# workspace has zero third-party dependencies (see DESIGN.md §1).
#
# Usage: scripts/ci.sh [--fast]
#   --fast  skip the release build and run tests in debug only.

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

step() { printf '\n==> %s\n' "$*"; }

export CARGO_NET_OFFLINE=true

if [[ $FAST -eq 0 ]]; then
    step "release build (library, binaries, benches)"
    cargo build --release --workspace --bins --benches
fi

# Workspace invariants: zero unsuppressed audit findings — the v1 token
# rules plus the v2 call-graph passes (transitive hot-path alloc/panic,
# nested dispatch, SIMD path parity, checkpoint coverage, prof-scope
# coverage; DESIGN.md §10, §14) — a fresh schema-valid inventory in
# output/audit.json, and a checksummed baseline. The audit is static, so
# PTATIN_TEST_THREADS must not change its verdict: the gate runs at both
# CI thread counts and enforces the 10 s wall-clock budget at each.
step "ptatin-audit --check (v2 call-graph passes, nt=1 and 4)"
cargo build -q -p ptatin-audit
printf '%-24s %9s  %s\n' "lint" "wall (s)" "status"
for nt in 1 4; do
    t0=$(date +%s.%N)
    PTATIN_TEST_THREADS=$nt target/debug/ptatin-audit --check --quiet
    t1=$(date +%s.%N)
    dt=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.2f", b - a }')
    awk -v d="$dt" 'BEGIN { exit !(d < 10.0) }' \
        || { echo "audit --check exceeded the 10 s budget: ${dt}s"; exit 1; }
    printf '%-24s %9s  %s\n' "audit --check (nt=$nt)" "$dt" "ok"
done

# The suite runs twice: once pinned to a single thread and once at four,
# so thread-count-dependent regressions in the worker pool (ptatin-la::par)
# can't hide behind the host's core count. The checkpoint-roundtrip,
# fault-recovery, golden-run and assembly-equivalence suites are named
# explicitly so a partial test filter in a future edit can't silently drop
# them from the gate. The goldens go through the production solver build,
# i.e. pattern-reuse batched assembly, at both thread counts: iteration
# counts must not move, because batched assembly is bitwise-contracted
# against the scalar reference (DESIGN.md §13).
step "tests (PTATIN_TEST_THREADS=1)"
PTATIN_TEST_THREADS=1 cargo test --workspace -q
PTATIN_TEST_THREADS=1 cargo test -q -p ptatin-ckpt
PTATIN_TEST_THREADS=1 cargo test -q --test checkpoint_restart
PTATIN_TEST_THREADS=1 cargo test -q --test ensemble_sweep
PTATIN_TEST_THREADS=1 cargo test -q --test golden_runs
PTATIN_TEST_THREADS=1 cargo test -q --test operator_equivalence

step "tests (PTATIN_TEST_THREADS=4)"
PTATIN_TEST_THREADS=4 cargo test --workspace -q
PTATIN_TEST_THREADS=4 cargo test -q -p ptatin-ckpt
PTATIN_TEST_THREADS=4 cargo test -q --test checkpoint_restart
PTATIN_TEST_THREADS=4 cargo test -q --test ensemble_sweep
PTATIN_TEST_THREADS=4 cargo test -q --test golden_runs
PTATIN_TEST_THREADS=4 cargo test -q --test operator_equivalence

# The same suite under the pool sanitizer: every split_ranges partition,
# pool resize, and dispatch is checked against the worker-pool invariants
# at runtime (disjoint/covering/aligned ranges, no worker outliving its
# generation, nested dispatch serialized) — at both thread counts.
step "tests with --features pool-sanitizer (PTATIN_TEST_THREADS=1)"
PTATIN_TEST_THREADS=1 cargo test --workspace -q --features pool-sanitizer

step "tests with --features pool-sanitizer (PTATIN_TEST_THREADS=4)"
PTATIN_TEST_THREADS=4 cargo test --workspace -q --features pool-sanitizer
PTATIN_TEST_THREADS=4 cargo test -q --features pool-sanitizer --test thread_invariance
PTATIN_TEST_THREADS=4 cargo test -q -p ptatin-la --features pool-sanitizer par::

# Operator-equivalence and thread-invariance suites with the AVX path
# force-disabled: the portable fallbacks of the batched operator,
# projection, transfer, and fused smoother must satisfy the same 1e-12 /
# bitwise contracts as the hardware path (DESIGN.md §9).
step "equivalence + thread invariance with AVX disabled (PTATIN_NO_AVX=1)"
PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 cargo test -q --test operator_equivalence
PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 cargo test -q --test thread_invariance

# Fault-injection matrix on the release binary: every injected failure
# class must be recovered (exit 0) or reported cleanly (crash => 42),
# never a panic or a silent wrong answer. Crash leaves periodic
# checkpoints behind; the restarted run must complete.
if [[ $FAST -eq 0 ]]; then
    step "fault-injection matrix (release binary)"
    CKDIR=$(mktemp -d)
    trap 'rm -rf "$CKDIR"' EXIT
    RIFT="target/release/ptatin rift mx=6 my=2 mz=4 steps=3 out=$CKDIR"

    for fault in breakdown@1 stall@1; do
        step "  fault $fault (recover and complete)"
        PTATIN_TEST_THREADS=2 $RIFT --fault=$fault
    done

    step "  fault crash@2 (exit 42, checkpoints survive)"
    rc=0
    PTATIN_TEST_THREADS=2 $RIFT --checkpoint-every=1 --fault=crash@2 || rc=$?
    [[ $rc -eq 42 ]] || { echo "expected exit 42, got $rc"; exit 1; }
    [[ -f "$CKDIR/ckpt_step_00002.ptck" ]] || { echo "missing periodic checkpoint"; exit 1; }

    step "  restart from the surviving checkpoint"
    PTATIN_TEST_THREADS=2 $RIFT --restart-from="$CKDIR/ckpt_step_00002.ptck"

    # Kernel-benchmark smoke run: exercises all five operator variants,
    # the per-kernel pipeline pairs (projection, transfer, smoother,
    # V-cycle, whole step) at nt = 1 and 4 — the bench loops over both
    # thread counts internally — and the v2 setup section (scalar-vs-
    # batched assembly, first-setup vs cached re-setup, fused-on-SFC
    # verdict), then validates the record (plus the committed full-size
    # one) against the ptatin-kernel-bench-v2 schema with the in-repo
    # JSON parser, including the whole_step, assembly (>= 1.8x) and
    # re-setup (>= 2x) speedup floors.
    step "kernel benchmark smoke + BENCH_kernels.json schema validation"
    cargo bench -p ptatin-bench --bench table1_operators -- smoke
    cargo run --release -p ptatin-bench --bin validate_bench -- \
        output/BENCH_kernels_smoke.json BENCH_kernels.json

    # Ensemble smoke sweep on the release binary: 16 tiny jobs time-sliced
    # with preemption (slice=1) and injected faults in two of them — the
    # crash must be retried, the stall absorbed by the recovery ladder,
    # and every job must complete (exit 0). Run at one and four threads so
    # the checkpoint-backed suspend/resume path is exercised at both pool
    # shapes, then validate the emitted ensemble bench record (plus the
    # ensemble_throughput smoke output) against ptatin-ensemble-bench-v1.
    step "ensemble smoke sweep (16 jobs, crash+stall faults, nt=1 and 4)"
    SWEEP="$CKDIR/smoke_sweep.txt"
    printf '%s\n' \
        "scenario = rift" "mx = 4" "my = 2" "mz = 2" "levels = 2" \
        "steps = 2" "max_it = 1" "linear_max_it = 60" "coarse = direct" \
        "sweep seed = 0..16" > "$SWEEP"
    for nt in 1 4; do
        step "  ensemble sweep at PTATIN_TEST_THREADS=$nt"
        PTATIN_TEST_THREADS=$nt target/release/ptatin ensemble \
            sweep="$SWEEP" slice=1 retries=2 \
            ckpt-dir="$CKDIR/ens_nt$nt" \
            events="$CKDIR/ens_events_nt$nt.jsonl" \
            bench="$CKDIR/ens_bench_nt$nt.json" \
            --fault='crash@1:job=3;stall@0:job=11'
        grep -q '"event":"job_crashed"' "$CKDIR/ens_events_nt$nt.jsonl" \
            || { echo "missing job_crashed event at nt=$nt"; exit 1; }
        grep -q '"event":"job_preempted"' "$CKDIR/ens_events_nt$nt.jsonl" \
            || { echo "missing job_preempted event at nt=$nt"; exit 1; }
    done

    step "ensemble throughput smoke + BENCH_ensemble.json schema validation"
    cargo run --release -p ptatin-bench --bin ensemble_throughput -- smoke
    cargo run --release -p ptatin-bench --bin validate_bench -- \
        output/BENCH_ensemble_smoke.json BENCH_ensemble.json \
        "$CKDIR/ens_bench_nt1.json" "$CKDIR/ens_bench_nt4.json"

    # SolCx analytic verification gate (smoke: 2 refinement levels, rate
    # floors 2.5 / 1.7) at one and four threads. The reports — including
    # the raw f64 bits of each fitted rate — must be bitwise identical:
    # the par determinism contract makes every reduction grouping a pure
    # function of problem size, never of the thread count.
    step "solcx verification gate (smoke, nt=1 vs nt=4 bitwise)"
    PTATIN_TEST_THREADS=1 target/release/ptatin verify mode=smoke \
        | tail -n +2 > "$CKDIR/solcx_nt1.txt"
    PTATIN_TEST_THREADS=4 target/release/ptatin verify mode=smoke \
        | tail -n +2 > "$CKDIR/solcx_nt4.txt"
    grep -q 'gate=PASS' "$CKDIR/solcx_nt1.txt" \
        || { echo "solcx smoke gate failed"; cat "$CKDIR/solcx_nt1.txt"; exit 1; }
    diff "$CKDIR/solcx_nt1.txt" "$CKDIR/solcx_nt4.txt" \
        || { echo "solcx gate report differs between nt=1 and nt=4"; exit 1; }

    # One registry-driven scenario end to end through the CLI: the
    # checked-in shear-band spec must parse, run and converge (exit 0).
    step "registry-driven shear-band scenario (CLI end to end)"
    PTATIN_TEST_THREADS=2 target/release/ptatin scenario \
        file=examples/scenarios/shear_band.scn

    # End-to-end AVX/portable parity: the batched SIMD kernel runs in
    # every smoothing sweep, λ estimate and Krylov matvec of the finest
    # level, so the bitwise path contract must hold over whole nonlinear
    # solves, not only single applies. Iteration counts and the {:.6e}
    # metrics of both nonlinear zoo scenarios must match with AVX
    # force-disabled.
    step "scenario AVX vs portable parity (falling_block, shear_band)"
    for scn in falling_block shear_band; do
        PTATIN_TEST_THREADS=2 target/release/ptatin scenario \
            file=examples/scenarios/$scn.scn > "$CKDIR/${scn}_avx.txt"
        PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 target/release/ptatin scenario \
            file=examples/scenarios/$scn.scn > "$CKDIR/${scn}_portable.txt"
        diff "$CKDIR/${scn}_avx.txt" "$CKDIR/${scn}_portable.txt" \
            || { echo "$scn: AVX and portable runs differ"; exit 1; }
    done

    # The benchmark's own unit checks and smoke-size runs of every
    # workload (perfbench/ is a separate cargo workspace). The smoke runs
    # check their outputs against the recorded references — the solcx
    # analytic errors among them — so a solver change that moves a
    # reference fails here, not first in a benchmark run.
    step "perfbench unit checks + smoke runs against the references"
    cargo test --release --manifest-path perfbench/Cargo.toml
fi

step "rustfmt"
cargo fmt --all --check

step "clippy"
cargo clippy --workspace --all-targets -- -D warnings

step "OK"
