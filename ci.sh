#!/bin/sh
# CI for the halpern-moses workspace. Fully offline: the workspace has
# no external dependencies, so an empty registry cache is fine.
set -eux

export CARGO_NET_OFFLINE=true

cargo fmt --all --check
# Pedantic-subset hardening on top of the default lint set: the tree is
# clean under these, so keep them at -D warnings.
cargo clippy --workspace --all-targets -- \
    -W clippy::needless_pass_by_value \
    -W clippy::redundant_clone \
    -D warnings

# Docs must build warning-clean (broken intra-doc links, missing docs).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Tier-1 verify (must match ROADMAP.md). The explicit target list skips
# doctests here (the doctest gate below runs them once) and skips bench
# targets (harness = false benches would otherwise EXECUTE under
# `cargo test --all-targets` and rewrite BENCH_seed.json; the smoke step
# at the bottom covers them).
cargo build --release
cargo test -q --lib --bins --tests

# Doctests explicitly: the README-facing examples (Engine::for_scenario
# spec strings, the spec parser) must stay runnable.
cargo test -q --doc

# CLI smoke: the scenario catalog resolves and a spec-string query
# answers end to end.
cargo run --release -q -p hm-bench --bin hm -- list > /dev/null
cargo run --release -q -p hm-bench --bin hm -- ask "agreement:n=3,f=1" "C{0,1,2} min0" --show 0

# Lint smoke: every registered scenario's example query must analyze
# clean against its declared surface (exit 1 on any diagnostic).
cargo run --release -q -p hm-bench --bin hm -- check --catalog

# Resource-governance smoke: a run budget that is too small must exit 3
# (the dedicated limit code) with a one-line diagnostic, and --partial
# must degrade to a three-valued verdict (exit 0, "unknown" in output)
# instead of failing.
HM="cargo run --release -q -p hm-bench --bin hm --"
code=0; out=$($HM ask "agreement:n=4,f=2" "C{0,1,2,3} min0" --max-runs 100 2>&1) || code=$?
test "$code" -eq 3
test "$(printf '%s\n' "$out" | wc -l)" -eq 1
code=0; out=$($HM ask "agreement:n=4,f=2" "C{0,1,2,3} min0" --max-runs 100 --partial --show 0) || code=$?
test "$code" -eq 0
printf '%s\n' "$out" | grep -q "unknown"

# Symmetry reduction (PR 9): the heavy differential + KAT tests are
# #[ignore]d for the debug tier-1 run above; run them here in release
# mode — reduced-vs-naive parity at n=4,f=2 (the largest naive build
# that fits), parity under minimisation at n=3,f=2, the f=3
# safety + CK-onset pins on the reduced system, and the memoised view
# ids against per-point interning on the reduced n=4,f=2 frame.
cargo test -q --release -p hm-engine --test symmetry -- --include-ignored
cargo test -q --release -p hm-core agreement -- --ignored

# Benchmark smoke: every BENCHMARK.json workload runs for ~1 s, untraced
# and traced, and exits non-zero unless every answer matches its oracle
# (on agreement-cold: the pinned 6,268 of 19,680 CK count, the clean-run
# onset at tick 4, and equality with the tree-walking evaluator).
cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- --smoke

# f=3 interactive smoke with a wall-clock guard: the acceptance bound
# is < 10 s in release mode for build + CK-onset query, end to end.
start=$(date +%s)
$HM ask "agreement:n=4,f=3" "C{0,1,2,3} min0" --show 0
end=$(date +%s)
test $((end - start)) -lt 10

# Fault injection: the failpoint suites force exhaustion, cancellation
# and worker death at every governed phase boundary — including inside
# the HTTP worker pool, which must answer 500, quarantine a spec that
# keeps dying, and keep serving. The faultnet suite injects the same
# hostility at the socket layer: slowloris trickle, truncated bodies,
# mid-response resets, and readers that stop draining.
cargo test -q -p hm-engine --features failpoints --test failpoints
cargo test -q -p hm-netsim --features failpoints --test failpoints
cargo test -q -p hm-serve --features failpoints --test failpoints
cargo test -q -p hm-serve --test faultnet

# Serve smoke: the selftest binds port 0 and drives the full request
# matrix over real TCP (healthz, cache miss/hit, malformed -> 400,
# limit exhaustion -> 503, 404, a concurrent burst, a drained
# shutdown). The overload smoke then saturates a 2-worker server with
# a full queue and proves the burst beyond capacity sheds immediately:
# 503 + `Retry-After` on every connection, counted in /stats.
$HM serve --selftest
start=$(date +%s)
$HM serve --overload-smoke
end=$(date +%s)
test $((end - start)) -lt 60
# And the CLI server proper: starts, prints its bound address, and
# shuts down cleanly on stdin EOF.
out=$(printf '' | $HM serve --addr 127.0.0.1:0 --workers 2)
printf '%s\n' "$out" | grep -q "listening on http://127.0.0.1:"
printf '%s\n' "$out" | grep -q "stopped"

# Bench smoke: every benchmark runs once (1 sample x 1 iter, no summary
# file written), so bench code cannot bit-rot without failing CI.
HM_CRITERION_SMOKE=1 cargo bench -p hm-bench
