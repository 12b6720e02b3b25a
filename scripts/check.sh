#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green. Mirrors .github/workflows/ci.yml.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

cargo fmt --check
cargo build --release
cargo test -q
# The member crates' own unit, integration and doc tests (`cargo test` at
# the root tests only the facade package). The vendored stand-ins are
# workspace members too; their self-tests are skipped.
cargo test -q --workspace --exclude qcn-repro --exclude criterion --exclude proptest --exclude rand
# Serving soak: the determinism contract must hold for every kernel
# thread count (serial, even split, odd split) — for the integer engine
# against the fake-quant reference, for in-process submits and over the
# socket front-end — and so must batch invariance (any partition of
# samples into batches gives the one-sample bits, for every engine and
# rounding scheme), and so must integer routing over random geometries
# (capsule dims across the 8-word lane, `s > 1` positions), and so must
# the canonical-config promise (equal canonical forms infer identically).
# `--router-smoke` additionally runs the replica-fleet failover soak
# (kill + same-port restart under load) at each thread count.
for t in 1 2 7; do
  QCN_NUM_THREADS=$t cargo test -q --test integer_inference_equivalence
  QCN_NUM_THREADS=$t cargo test -q --test serving_determinism
  QCN_NUM_THREADS=$t cargo test -q --test serving_net_equivalence
  QCN_NUM_THREADS=$t cargo test -q --test batch_invariance
  QCN_NUM_THREADS=$t cargo test -q --test routing_geometry
  QCN_NUM_THREADS=$t cargo test -q --test canonical_soundness
  if [[ "${1:-}" == "--router-smoke" ]]; then
    QCN_NUM_THREADS=$t cargo test -q --test router_failover
  fi
  # Chaos smoke: the seeded fault storm must resolve every request to a
  # bit-identical response or a typed error at each thread count, across
  # a fixed seed matrix, and the disabled path must stay free.
  if [[ "${1:-}" == "--chaos-smoke" ]]; then
    for seed in 1 42 123456789; do
      QCN_NUM_THREADS=$t QCN_CHAOS_SEED=$seed cargo test -q --test chaos_soak
    done
    QCN_NUM_THREADS=$t cargo test -q -p qcn-chaos --test chaos_overhead
  fi
done
# Portable oracle: the build above targets the host CPU, so on AVX2 hosts
# the i16 GEMM runs its `vpmaddwd` kernel and the portable kernel it is
# checked against would go untested. Rebuild for baseline x86-64 (no
# AVX2) in a target directory of its own and run the kernel suites and
# the end-to-end equivalence on the portable path.
if [[ "$(uname -m)" == "x86_64" ]]; then
  RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable \
    cargo test -q -p qcn-tensor -p qcn-intinfer
  RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable \
    cargo test -q --test integer_inference_equivalence
fi
# Wire robustness: untrusted-byte decoders must fail typed, never panic.
cargo test -q --test wire_robustness
# Telemetry smoke: the metrics endpoint and Stats wire frame must expose
# the expected series under load, and the bit-identity suites must hold
# with telemetry hard-disabled too.
cargo test -q --test observability
QCN_TELEMETRY=0 cargo test -q --test observability
QCN_TELEMETRY=0 cargo test -q --test serving_determinism
cargo clippy --all-targets -- -D warnings
cargo bench --no-run
# Search-acceleration smoke: one end-to-end Algorithm 1 run per backend
# (fake-quant, integer), accelerated vs naive, asserting the
# bit-identical-selection contract and integer ≡ fake-quant selection.
cargo run --release -p qcn-bench --bin bench_report -- --search-smoke
# The repository benchmark is a package of its own, outside the
# workspace: build it and run its unit tests so a library API change
# cannot break it unseen.
cargo test --release --offline --locked --manifest-path qcnbench/Cargo.toml
