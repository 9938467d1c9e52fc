#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The unwrap/expect lint gate (crates/{datalog,engine,cli} carry
# `#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]`)
# is hardened to an error by -D warnings above; the fault-inject feature is
# linted separately because it swaps in the non-test fault hooks.
echo "==> cargo clippy --features fault-inject (-D warnings)"
cargo clippy -p recurs-engine --all-targets --features fault-inject --offline -- -D warnings
cargo clippy -p recurs-ivm --all-targets --features fault-inject --offline -- -D warnings
cargo clippy -p recurs-serve --all-targets --features fault-inject --offline -- -D warnings
cargo clippy -p recurs-net --all-targets --features fault-inject --offline -- -D warnings

echo "==> cargo test"
cargo test --workspace --offline -q

# The serving benchmark (perfbench/, declared in BENCHMARK.json) is a cargo
# package of its own outside the workspace that builds the crates from
# source, so a change to an API it calls must fail here, not in a benchmark
# run. Build it and run its unit tests.
echo "==> perfbench build + unit tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The fault-injection lanes include the ivm differential gate under forced
# maintenance truncation (tripped patches must still equal the from-scratch
# oracle via the cold fallback).
echo "==> cargo test fault-injection suite"
cargo test -p recurs-engine --features fault-inject --offline -q
cargo test -p recurs-ivm --features fault-inject --offline -q
cargo test -p recurs-serve --features fault-inject --offline -q

# The recurs-net chaos suite: torn frames, stalled sockets, mid-request
# disconnects, and worker panics during drain must never leak a panic out of
# a connection handler, must answer every accepted request exactly once (or
# close cleanly), and must leave the snapshot chain intact.
echo "==> recurs-net chaos suite (--features fault-inject)"
cargo test -p recurs-net --features fault-inject --offline -q

# The observability spine is linted and tested in both feature shapes: the
# default build (recorder + aggregator + Prometheus text only) and with the
# JSON-lines trace sink compiled in.
echo "==> recurs-obs lanes (default and --features trace-json)"
cargo clippy -p recurs-obs --all-targets --offline -- -D warnings
cargo clippy -p recurs-obs --all-targets --features trace-json --offline -- -D warnings
cargo test -p recurs-obs --offline -q
cargo test -p recurs-obs --features trace-json --offline -q

# Serve protocol smoke test: a spawned `serve --stdin` session must answer
# `!metrics` with parseable Prometheus exposition text.
echo "==> serve !metrics smoke test"
cargo test -p recurs-cli --offline -q --test cli_process \
  serve_stdin_answers_metrics_with_parseable_prometheus_text

# Network smoke lane, against spawned `recurs` processes: `serve --listen`
# must answer !health/!metrics over framed TCP, a kill -TERM mid-run must
# drain every in-flight pipelined request (exactly one reply each, in order,
# then exit 0), and `serve --stdin` must honor the same SIGTERM contract.
echo "==> serve --listen + SIGTERM drain smoke tests"
cargo test -p recurs-cli --offline -q --test cli_process \
  serve_listen_process_answers_health_queries_and_metrics_over_tcp
cargo test -p recurs-cli --offline -q --test cli_process \
  serve_listen_process_sigterm_mid_run_answers_every_in_flight_request
cargo test -p recurs-cli --offline -q --test cli_process \
  serve_stdin_sigterm_drains_with_exit_zero_while_stdin_stays_open

# Benchmark regression tripwire: re-times the smallest engine_scaling sizes
# and diffs against BENCH_engine.json (drift-corrected; fails above 25%),
# re-times single-fact maintenance on tc/800 against BENCH_ivm.json
# (same 25% tripwire on the patched rows, plus a hard >= 5x
# patched-vs-cold speedup floor), and replays the loadgen mixed workload
# against an in-process TCP server, gating the median-round p95 against
# BENCH_load.json (25% drift-corrected tripwire) plus hard liveness checks
# (no shedding at smoke QPS, no transport errors, a clean unforced drain).
# Trace well-formedness lane: a spawned `serve --stdin --trace FILE`
# session over a real dataset must produce a JSON-lines trace that
# `obsctl validate` accepts end to end — every line parses, every event
# kind is in the taxonomy, sequence numbers are monotone, every span's
# parent resolves, and no trace id is orphaned.
echo "==> obsctl validate lane (serve --stdin --trace)"
CI_TRACE="$(mktemp -t recurs-ci-trace-XXXXXX.jsonl)"
printf '@trace=c0ffee ?- P(1, y).\n+A(6, 7). +E(6, 7).\n?- P(1, 6).\nwhy P(1, 6).\n!quit\n' | \
  cargo run --release --offline -p recurs-cli --bin recurs -- \
    serve datasets/transitive_closure.dl --stdin --trace "$CI_TRACE" > /dev/null
cargo run --release --offline -p recurs-obs --bin obsctl -- validate "$CI_TRACE"
rm -f "$CI_TRACE"

echo "==> bench_compare --quick (+ no-op overhead re-audit)"
cargo run --release --offline -p recurs-bench --bin bench_compare -- --quick --samples 5 \
  --reaudit-obs BENCH_obs.json

echo "==> OK"
