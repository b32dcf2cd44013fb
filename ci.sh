#!/bin/bash
# CI gate: formatting, lints, tier-1 tests, and manifest archiving.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings -D deprecated =="
# -D deprecated: any item the workspace marks deprecated must lose its
# last caller before it lands, so shims are deleted, never lived with.
cargo clippy --workspace --all-targets -- -D warnings -D deprecated

echo "== cargo test -q (tier-1 gate) =="
cargo test -q

# Chaos smoke: the quick fault-injection matrix (seeds x fault mixes,
# zero-rate bit-exactness, checkpoint resume). Also part of tier-1
# above; the labelled stage keeps its runtime visible and gives the
# extended sweep a documented home:
#   CTJAM_CHAOS_SLOTS=2000 cargo test --test chaos -- --ignored
echo "== cargo test -q --test chaos (chaos smoke) =="
cargo test -q --test chaos

# Every crate's suites (serve, fleet, dqn, telemetry, scenario, core,
# nn, ...): the tier-1 stage above covers the root package only.
echo "== cargo test --workspace -q (every crate's suites) =="
cargo test --workspace -q

echo "== cargo doc --no-deps (rustdoc warnings are errors) =="
# Scoped to the suite's own crates: the vendored shims (rand, proptest,
# criterion, bytes) predate today's rustdoc lints and are not ours to
# re-document.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  -p ctjam -p ctjam-phy -p ctjam-channel -p ctjam-net -p ctjam-mdp \
  -p ctjam-nn -p ctjam-dqn -p ctjam-core -p ctjam-bench \
  -p ctjam-telemetry -p ctjam-fault -p ctjam-fleet -p ctjam-scenario \
  -p ctjam-serve

# Criterion smoke mode: each bench target runs one iteration per
# benchmark, catching bit-rot in bench code without paying for a full
# measurement run.
echo "== cargo bench -- --test (bench smoke) =="
cargo bench -p ctjam-bench --benches -- --test

# Perf-manifest smoke: the perf_report binary must run (quick mode) and
# emit well-formed BENCH_slotloop.json / BENCH_dqn.json at the repo
# root, each carrying provenance (git describe, seed, config hash,
# target-cpu features) and at least one measurement. The full-size run
# (plain `cargo run --release -p ctjam-bench --bin perf_report`) is what
# EXPERIMENTS.md's "Performance trajectory" numbers come from.
echo "== perf_report quick run (BENCH_*.json smoke) =="
CTJAM_BENCH_QUICK=1 cargo run --release -q -p ctjam-bench --bin perf_report

# Serve smoke: spawn the standalone policy_server binary on an
# ephemeral loopback port and drive it with the serve_bench load
# harness in quick mode. The harness respawns the binary per mode —
# single-worker, 2- and 4-worker sharding, multi-tenant (v1 clients on
# the default tenant concurrent with v2 tenant-addressed clients), and
# the queue-delay SLO — so this exercises the whole serving stack end
# to end: wire protocol both versions, sharded micro-batchers, tenant
# registry, admission control, reply path, drain. Every served action
# is asserted bit-exact against the in-process agent. The
# full-size run (plain `cargo run --release -p ctjam-bench --bin
# serve_bench`) is what EXPERIMENTS.md's "Policy serving" numbers come
# from.
echo "== serve_bench quick run vs standalone policy_server (serve smoke) =="
cargo build --release -q -p ctjam-serve --bin policy_server
CTJAM_BENCH_QUICK=1 CTJAM_SERVE_BIN=target/release/policy_server \
  cargo run --release -q -p ctjam-bench --bin serve_bench

# Fleet smoke: run the sharded campaign engine's throughput recorder in
# quick mode. The binary itself asserts bit-exact goodput vectors and
# merged telemetry across every thread count it measures, so this stage
# doubles as a determinism check under real scheduling, and it must emit
# a well-formed BENCH_fleet.json. The full-size run (plain `cargo run
# --release -p ctjam-bench --bin fleet_bench`) is what EXPERIMENTS.md's
# "Fleet campaign engine" numbers come from.
echo "== fleet_bench quick run (fleet smoke) =="
CTJAM_BENCH_QUICK=1 cargo run --release -q -p ctjam-bench --bin fleet_bench

# League smoke: run the self-play league + adversary cross-table in
# quick mode. The binary asserts the cross-table's goodput vector is
# bit-exact across 1/2/8 fleet workers before recording any row; this
# stage additionally checks the emitted manifest is well-formed
# (schema, >=5 adversaries x >=3 defenders, rectangular rows, the
# worker pin recorded). The full-size run (plain `cargo run --release
# -p ctjam-bench --bin league`) is what EXPERIMENTS.md's league
# cross-table numbers come from.
echo "== league quick run (league smoke) =="
CTJAM_BENCH_QUICK=1 cargo run --release -q -p ctjam-bench --bin league
python3 - results/league_crosstable.json <<'PYEOF'
import json, sys
path = sys.argv[1]
with open(path) as fh:
    m = json.load(fh)
for key in ("schema", "name", "seed", "git", "config_hash",
            "created_unix_s", "defenders", "adversaries", "rows",
            "workers_checked", "bit_exact_workers", "self_play"):
    assert key in m, f"{path}: missing key {key!r}"
assert m["schema"] == "ctjam-league/v1", f"{path}: unexpected schema {m['schema']!r}"
assert len(m["adversaries"]) >= 5, f"{path}: cross-table needs >=5 adversaries"
assert len(m["defenders"]) >= 3, f"{path}: cross-table needs >=3 defenders"
assert len(m["rows"]) == len(m["defenders"]), f"{path}: one row per defender"
for row in m["rows"]:
    assert row["defender"] in m["defenders"], f"{path}: unknown defender {row['defender']!r}"
    assert len(row["goodput"]) == len(m["adversaries"]), f"{path}: ragged row"
    assert all(0.0 <= g <= 1.0 for g in row["goodput"]), f"{path}: goodput out of [0,1]"
assert m["workers_checked"] == [1, 2, 8], f"{path}: worker pin not 1/2/8"
assert m["bit_exact_workers"] is True, f"{path}: worker bit-exactness not recorded"
print(f"  {path}: ok ({len(m['defenders'])} defenders x {len(m['adversaries'])} adversaries)")
PYEOF

# Campaign smoke: run the checked-in scenarios/ directory through the
# campaign engine twice in quick mode — at 2 workers and at 1 worker —
# and require the two HTML reports to be byte-identical (the report is
# a pure function of the scenario files; worker count must not move a
# byte). Then validate the report's well-formedness (balanced tags,
# non-empty SVG plots) and every per-scenario manifest's provenance
# keys. The full-size run (plain `cargo run --release -p ctjam-bench
# --bin campaign`) regenerates the fig02/fig06-08/fig10 numbers from
# the same files the figure bins read.
echo "== campaign quick run x2 (campaign smoke, byte-deterministic report) =="
rm -rf results/campaign_smoke results/campaign_smoke2
cargo build --release -q -p ctjam-bench --bin campaign
CTJAM_BENCH_QUICK=1 target/release/campaign --out results/campaign_smoke --threads 2
CTJAM_BENCH_QUICK=1 target/release/campaign --out results/campaign_smoke2 --threads 1
cmp results/campaign_smoke/report.html results/campaign_smoke2/report.html \
  || { echo "FAIL: campaign report.html is not byte-deterministic across worker counts"; exit 1; }
python3 - results/campaign_smoke <<'PYEOF'
import glob, json, os, re, sys
out = sys.argv[1]
report = os.path.join(out, "report.html")
with open(report, encoding="utf-8") as fh:
    html = fh.read()
assert html.startswith("<!DOCTYPE html>"), f"{report}: missing doctype"
for tag in ("html", "head", "body", "table", "tr", "th", "td", "svg",
            "figure", "figcaption", "polyline", "text", "rect", "line",
            "h1", "h2", "p"):
    opens = len(re.findall(rf"<{tag}[\s>]", html))
    closes = html.count(f"</{tag}>")
    assert opens == closes, f"{report}: unbalanced <{tag}> ({opens} vs {closes})"
svgs = re.findall(r"<svg.*?</svg>", html, re.S)
assert len(svgs) >= 4, f"{report}: expected >=4 SVG plots, found {len(svgs)}"
for svg in svgs:
    assert re.search(r"<(polyline|rect)[^>]*\S", svg), f"{report}: empty SVG plot"
assert "<script" not in html.lower(), f"{report}: must be static (no scripts)"
manifests = sorted(glob.glob(os.path.join(out, "*.manifest.json")))
assert len(manifests) >= 4, f"{out}: expected >=4 scenario manifests"
kinds = set()
for path in manifests:
    with open(path) as fh:
        m = json.load(fh)
    for key in ("name", "seed", "git", "config_hash", "created_unix_s",
                "scenario_fingerprint", "scenario_path", "scenario_kind",
                "quick_mode"):
        assert key in m, f"{path}: missing key {key!r}"
    assert re.fullmatch(r"[0-9a-f]{16}", m["scenario_fingerprint"]), \
        f"{path}: malformed fingerprint {m['scenario_fingerprint']!r}"
    assert m["scenario_kind"] in ("link_sweep", "sweep", "field", "campaign"), \
        f"{path}: unknown kind {m['scenario_kind']!r}"
    assert m["quick_mode"] == "true", f"{path}: quick run must record quick_mode"
    kinds.add(m["scenario_kind"])
assert kinds == {"link_sweep", "sweep", "field", "campaign"}, \
    f"{out}: scenario corpus must cover all four kinds, got {sorted(kinds)}"
ckpts = glob.glob(os.path.join(out, "*.progress.ckpt"))
assert ckpts, f"{out}: campaign scenario left no progress checkpoint"
print(f"  {out}: ok ({len(manifests)} manifests, {len(svgs)} SVG plots, "
      f"{len(ckpts)} checkpoint(s))")
PYEOF

for f in BENCH_slotloop.json BENCH_dqn.json BENCH_serve.json BENCH_fleet.json; do
  test -s "$f" || { echo "FAIL: $f missing or empty"; exit 1; }
  python3 - "$f" <<'PYEOF'
import json, sys
path = sys.argv[1]
with open(path) as fh:
    m = json.load(fh)
for key in ("schema", "name", "seed", "git", "config_hash",
            "target_cpu_features", "created_unix_s"):
    assert key in m, f"{path}: missing provenance key {key!r}"
assert m["schema"] == "ctjam-bench/v1", f"{path}: unexpected schema {m['schema']!r}"
measurements = [k for k in m if k.endswith(("_ns", "_us", "_s", "_ns_per_slot",
                                            "_ns_per_point", "_x"))]
assert measurements, f"{path}: no measurement keys"
if path == "BENCH_dqn.json":
    assert "forward_batch32_scalar_ns" in m, f"{path}: missing scalar forward timing"
if path == "BENCH_serve.json":
    # Sharded / multi-tenant / SLO measurements (PR 9). A 1-thread
    # container must say so explicitly rather than let a flat worker
    # sweep read as a sharding defect.
    for key in ("workers_2_throughput_req_per_s", "workers_4_throughput_req_per_s",
                "workers_2_latency_p99_us", "workers_4_latency_p99_us",
                "multi_tenant_throughput_req_per_s", "multi_tenant_latency_p99_us",
                "slo_max_queue_delay_us", "slo_throughput_req_per_s",
                "slo_shed_count", "slo_shed_rate"):
        assert key in m, f"{path}: missing serving field {key!r}"
    assert 0.0 <= m["slo_shed_rate"] <= 1.0, f"{path}: shed rate out of [0,1]"
    if m["threads_available"] == 1:
        assert "worker_scaling_note" in m, \
            f"{path}: 1-thread runs must carry worker_scaling_note"
print(f"  {path}: ok ({len(measurements)} measurements)")
PYEOF
done

# A committed BENCH manifest must come from a clean tree: its `git`
# field is the only link between the numbers and the code that produced
# them, and `<sha>-dirty` severs it. (perf_report warns and records
# `dirty_tree: true` at generation time; this is the backstop that
# keeps such manifests from landing.) Only committed copies are
# checked — the working tree is legitimately dirty mid-development.
echo "== committed BENCH manifests carry a clean git describe =="
for f in $(git ls-files 'BENCH_*.json'); do
  if git show "HEAD:$f" 2>/dev/null | grep -q '"git": *"[^"]*-dirty"'; then
    echo "FAIL: committed $f was generated from a dirty tree (git field ends in -dirty);"
    echo "      regenerate it from a clean checkout and amend the commit"
    exit 1
  fi
done

# Archive any run manifests produced by figure binaries so CI artifacts
# keep the provenance (seed, config hash, git describe) of every table.
if compgen -G "results/*.manifest.json" > /dev/null; then
  stamp="$(date -u +%Y%m%dT%H%M%SZ)"
  mkdir -p results/manifests
  for m in results/*.manifest.json; do
    cp "$m" "results/manifests/${stamp}.$(basename "$m")"
  done
  echo "== archived $(ls results/*.manifest.json | wc -l) manifest(s) to results/manifests/ =="
fi

echo "CI_OK"
