#!/usr/bin/env bash
# Tier-1 verification: everything CI (and a pre-commit human) should run.
# Fails fast; each step's command is echoed before it runs.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo
    echo ">>> $*"
    "$@"
}

# build + tests (unit, integration, property)
run cargo build --release --workspace
run cargo test -q --workspace

# doc-tests, separately: `cargo test` runs them per-crate, but this keeps
# a failure attributable when only docs change
run cargo test --doc --workspace

# differential fuzz smoke: a fixed-seed bounded run of the solver
# cross-examination (serial vs parallel vs brute force vs certifier),
# plus replay of every reproducer in tests/corpus/. The case count is
# overridable for deeper local soaks: CERTIFY_FUZZ_CASES=5000 ./scripts/verify.sh
run env CERTIFY_FUZZ_CASES="${CERTIFY_FUZZ_CASES:-200}" \
    cargo test -q -p integration-tests --test certify_differential

# solve-service concurrency stress: 8 client threads, duplicate/near-miss
# mix, client-side re-certification of every reply, dedup single-solve,
# worker-count independence. Deeper soaks: SERVICE_STRESS_ITERS=200
run env SERVICE_STRESS_ITERS="${SERVICE_STRESS_ITERS:-50}" \
    cargo test -q -p integration-tests --test service_stress

# rustdoc must be warning-free (broken intra-doc links, bad code fences)
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# lint drift: clippy clean across the workspace, warnings are errors
run cargo clippy --workspace --all-targets -- -D warnings

# perf smoke: the engine sweep's CI grid plus the branching ablation's
# smoke instances (most-fractional vs two-tier pseudocost) and the cut
# ablation's smoke instances (CutPolicy Off vs Root vs Full), timed so
# gross LP-engine, branching or separation regressions show up.
# --check-cuts gates on cuts-on total nodes <= cuts-off (cuts must never
# grow the search; equal optima are asserted inside the sweep). Full
# sweep: solver_bench, committed as BENCH_milp.json
run bash -c 'time ./target/release/solver_bench --smoke --check-cuts --out target/BENCH_milp_smoke.json'

# sim-kernel smoke: the (size x threads) proxy sweep's CI grid, timed so
# gross kernel regressions show up too (full sweep: sim_bench)
run bash -c 'time ./target/release/sim_bench --smoke --out target/BENCH_sim_smoke.json'

# solve-service smoke: the Zipf request-stream sweep's CI grid, timed —
# cache hit-rate, dedup, and warm-start accounting on the reduced stream
# (full sweep: service_bench, committed as BENCH_service.json)
run bash -c 'time ./target/release/service_bench --smoke --out target/BENCH_service_smoke.json'

# observability smoke: traced service batch at 1 vs 4 workers —
# bitwise-identical objective histograms and trace-id sets, a trace id
# on every span, per-request Chrome lanes, a forced certify-reject
# dumping a parseable flightrec/v1 artifact, and a searchtrace
# round-trip (contracts in docs/OBSERVABILITY.md)
run ./target/release/obs_smoke --out target

# trace_view smoke: render the artifacts obs_smoke just wrote, both
# schemas, plus the Chrome re-export
run ./target/release/trace_view target/obs_smoke_timeline.json --chrome target/obs_smoke_trace_view.chrome.json
run ./target/release/trace_view target/obs_smoke_searchtrace.json

# bench_diff smoke: self-comparison of the committed service benchmark
# must report zero regressions (exit nonzero otherwise)
run ./target/release/bench_diff BENCH_service.json BENCH_service.json

echo
echo "verify: all green"
