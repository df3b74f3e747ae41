#!/usr/bin/env python3
"""Sanity-check the JSON artifacts emitted by the bench targets.

The bench JSON is hand-printed with fprintf, so a malformed escape or
a missing field ships silently unless something parses it back. This
checker validates that BENCH_kernels.json / BENCH_cosim.json /
BENCH_dataflow.json / BENCH_scaleout.json / BENCH_jobs.json are
well-formed JSON and carry the schema keys EXPERIMENTS.md documents
(including the host block that makes single-core numbers
interpretable). Stdlib only — no third-party dependencies.

Usage:
    check_bench_schema.py kernels BENCH_kernels.json
    check_bench_schema.py cosim BENCH_cosim.json
    check_bench_schema.py dataflow BENCH_dataflow.json
    check_bench_schema.py scaleout BENCH_scaleout.json
    check_bench_schema.py jobs BENCH_jobs.json
    check_bench_schema.py dataflow-same COMMITTED.json FRESH.json
    check_bench_schema.py cosim-same COMMITTED.json FRESH.json
    check_bench_schema.py scaleout-same COMMITTED.json FRESH.json

KIND-same checks both files against that kind's schema, then requires
them to agree on every field but the host block and timing fields: a
full bench_dataflow run must reproduce every committed simulated count,
and full cosim_trajectory and bench_scaleout runs every committed loss,
accuracy, MAC and byte count.
"""

import json
import sys

HOST_KEYS = {"hardware_concurrency", "threads_used", "single_core"}

KERNELS_TOP_KEYS = {"version", "mode", "threads", "simd", "host",
                    "layers", "fc_layers", "summary"}
KERNELS_LAYER_KEYS = {
    "net", "layer", "N", "C", "K", "kernel", "stride", "pad", "in_hw",
    "macs", "naive_fwd_ms", "gemm_fwd_ms", "fwd_speedup",
    "naive_bwd_ms", "gemm_bwd_ms", "bwd_speedup", "gemm_fwd_ms_1t",
    "gemm_bwd_ms_1t", "thread_fwd_speedup", "thread_bwd_speedup",
    "sparse_fwd_ms", "sparse_bwd_data_ms", "sparse_bwd_weight_ms",
    "sparse_density", "sparse_fwd_ms_1t", "sparse_bwd_data_ms_1t",
    "sparse_bwd_weight_ms_1t", "crossover_density", "crossover_density_bwd",
    "sparse_sweep",
}
KERNELS_SWEEP_KEYS = {
    "density", "sparse_fwd_ms", "sparse_bwd_data_ms",
    "sparse_bwd_weight_ms", "fwd_vs_gemm",
}
KERNELS_FC_KEYS = {
    "net", "layer", "N", "in_features", "out_features", "gemm_fwd_ms",
    "gemm_bwd_ms", "sparse_fc_fwd_ms", "sparse_fc_bwd_data_ms",
    "sparse_fc_bwd_weight_ms", "sparse_density", "fw_mac_ratio",
    "bw_data_mac_ratio", "bw_weight_mac_ratio",
}
KERNELS_SUMMARY_KEYS = {
    "geomean_fwd_speedup", "geomean_bwd_speedup", "min_fwd_speedup",
    "geomean_thread_fwd_speedup", "geomean_thread_bwd_speedup",
}
# v5: SIMD dispatch level, sparse backward timings, and the per-layer
# density sweep with the sparse-vs-gemm crossover density.
# v6: crossover_density_bwd, the same crossover for the whole backward
# pass (sparse bw-data + bw-weight against gemm backward).
# v7: every wall-clock field "<x>_ms[_1t]" has a process-CPU twin
# "<x>_cpu_ms[_1t]", the median CPU time of the same calls.
# v8: the headline sparse cells rerun on a 1-thread pool,
# sparse_{fwd,bwd_data,bwd_weight}_ms_1t and their CPU twins.
KERNELS_VERSION = 8


def cpu_twins(keys):
    """The process-CPU fields that v7 pairs with the wall fields."""
    return {k.replace("_ms", "_cpu_ms") for k in keys if "_ms" in k}


KERNELS_LAYER_KEYS |= cpu_twins(KERNELS_LAYER_KEYS)
KERNELS_SWEEP_KEYS |= cpu_twins(KERNELS_SWEEP_KEYS)
KERNELS_FC_KEYS |= cpu_twins(KERNELS_FC_KEYS)

COSIM_TOP_KEYS = {"version", "mode", "host", "config", "epochs"}
COSIM_CONFIG_KEYS = {"epochs", "batch", "backend", "target_sparsity"}
COSIM_EPOCH_KEYS = {
    "epoch", "train_loss", "val_accuracy", "weight_density",
    "iact_density", "measured_macs_per_step", "measured_fw_macs",
    "measured_bw_data_macs", "measured_bw_weight_macs",
    "csb_weight_bytes", "dense_weight_bytes", "procrustes_cycles",
    "procrustes_energy_j", "procrustes_glb_energy_j",
    "procrustes_dram_energy_j", "dense_cycles", "dense_energy_j",
    "dense_glb_energy_j", "dense_dram_energy_j",
    "imbalance_unbalanced_mean", "imbalance_unbalanced_max",
    "imbalance_unbalanced_frac_above_50", "imbalance_balanced_mean",
    "imbalance_balanced_max", "imbalance_balanced_frac_above_10",
    "cycle_sim", "speedup", "energy_ratio",
}
COSIM_CYCLE_SIM_KEYS = {
    "cycles", "compute_cycles", "stall_cycles", "drain_cycles",
    "glb_conflict_cycles", "glb_conflicts", "glb_reads", "glb_writes",
    "fifo_backpressure_cycles", "macs_retired",
    "analytic_compute_cycles", "analytic_cycle_ratio",
    "db_cycles", "db_overlapped_drain_cycles",
    "db_analytic_cycle_ratio",
}
# Sane agreement band for simulated cycles over analytic compute
# latency: the simulator adds drain, fill, contention, and per-tile
# rounding, so the ratio sits near (mostly slightly above) 1. Far
# outside this band one of the two models is broken.
COSIM_RATIO_MIN = 0.25
COSIM_RATIO_MAX = 4.0
# v5: adds the double-buffered-drain co-run of each epoch (db_cycles,
# db_overlapped_drain_cycles, db_analytic_cycle_ratio) next to the v4
# serial cycle_sim block.
COSIM_VERSION = 5

DATAFLOW_TOP_KEYS = {"version", "mode", "host", "config", "analytic",
                     "grid", "points", "default_point"}
DATAFLOW_CONFIG_KEYS = {"epochs", "batch", "target_sparsity",
                        "epoch_index", "weight_density", "iact_density"}
DATAFLOW_ANALYTIC_KEYS = {"compute_cycles", "refill_ref_cycles",
                          "dram_words_per_cycle"}
DATAFLOW_GRID_KEYS = {"glb_banks", "pe_fifo_depth",
                      "unicast_words_per_cycle", "drain",
                      "dram_words_per_cycle"}
DATAFLOW_POINT_KEYS = {
    "glb_banks", "pe_fifo_depth", "unicast_words_per_cycle", "drain",
    "dram_words_per_cycle", "cycles", "compute_cycles", "drain_cycles",
    "overlapped_drain_cycles", "glb_conflict_cycles", "glb_conflicts",
    "fifo_backpressure_cycles", "dram_refill_cycles",
    "dram_stall_cycles", "macs_retired", "analytic_cycle_ratio",
}
DATAFLOW_VERSION = 1

SCALEOUT_TOP_KEYS = {"version", "mode", "host", "config", "non_sharded",
                     "shard1_twin", "runs"}
SCALEOUT_CONFIG_KEYS = {"epochs", "global_batch", "slice_samples",
                        "hidden", "target_sparsity",
                        "interconnect_words_per_cycle", "shard_counts"}
SCALEOUT_TRAJ_KEYS = {"epoch", "train_loss", "val_accuracy",
                      "weight_density"}
SCALEOUT_RUN_EPOCH_KEYS = SCALEOUT_TRAJ_KEYS | {
    "exchange_compressed_bytes", "exchange_dense_bytes",
    "exchange_messages", "modeled_exchange_cycles", "modeled_wu_cycles",
    "modeled_total_cycles",
}
SCALEOUT_VERSION = 1

JOBS_TOP_KEYS = {"version", "mode", "host", "config", "jobs", "timing",
                 "fairness", "resume"}
JOBS_CONFIG_KEYS = {"jobs", "epochs", "batch", "hidden", "job_names"}
JOBS_TRAJ_KEYS = {"epoch", "train_loss", "val_accuracy",
                  "weight_density"}
JOBS_TIMING_KEYS = {"sequential_ms", "concurrent_ms"}
JOBS_FAIRNESS_KEYS = {"rounds", "max_epoch_spread"}
JOBS_RESUME_KEYS = {"job", "total_steps", "checkpoint_step",
                    "resumed_steps", "checkpoint_bytes", "save_ms",
                    "restore_ms", "bitwise_equal"}
JOBS_VERSION = 1


def fail(msg):
    print(f"schema check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def require_keys(obj, keys, where):
    missing = keys - obj.keys()
    if missing:
        fail(f"{where} is missing keys: {sorted(missing)}")


def check_host(doc, where):
    host = doc.get("host")
    if not isinstance(host, dict):
        fail(f"{where} has no host block")
    require_keys(host, HOST_KEYS, f"{where} host block")


def check_version(doc, expected, where):
    if doc.get("version") != expected:
        fail(f"{where} version is {doc.get('version')!r}, "
             f"expected {expected}")


def check_kernels(doc):
    require_keys(doc, KERNELS_TOP_KEYS, "BENCH_kernels.json")
    check_version(doc, KERNELS_VERSION, "BENCH_kernels.json")
    check_host(doc, "BENCH_kernels.json")
    if doc["simd"] not in ("avx2", "scalar"):
        fail(f"simd = {doc['simd']!r}, expected 'avx2' or 'scalar'")
    layers = doc["layers"]
    if not isinstance(layers, list) or not layers:
        fail("layers must be a non-empty array")
    for i, layer in enumerate(layers):
        require_keys(layer, KERNELS_LAYER_KEYS, f"layers[{i}]")
        for key in ("crossover_density", "crossover_density_bwd"):
            cd = layer[key]
            if not 0.0 <= cd <= 1.0:
                fail(f"layers[{i}].{key} = {cd} outside [0, 1]")
        sweep = layer["sparse_sweep"]
        if not isinstance(sweep, list) or not sweep:
            fail(f"layers[{i}].sparse_sweep must be a non-empty array")
        for j, pt in enumerate(sweep):
            require_keys(pt, KERNELS_SWEEP_KEYS,
                         f"layers[{i}].sparse_sweep[{j}]")
            if not 0.0 < pt["density"] <= 1.0:
                fail(f"layers[{i}].sparse_sweep[{j}].density = "
                     f"{pt['density']} outside (0, 1]")
    fc_layers = doc["fc_layers"]
    if not isinstance(fc_layers, list) or not fc_layers:
        fail("fc_layers must be a non-empty array")
    for i, layer in enumerate(fc_layers):
        require_keys(layer, KERNELS_FC_KEYS, f"fc_layers[{i}]")
        for ratio in ("fw_mac_ratio", "bw_data_mac_ratio",
                      "bw_weight_mac_ratio"):
            v = layer[ratio]
            if not 0.0 <= v <= 1.0:
                fail(f"fc_layers[{i}].{ratio} = {v} outside [0, 1]")
    require_keys(doc["summary"], KERNELS_SUMMARY_KEYS, "summary")


def check_cosim(doc):
    require_keys(doc, COSIM_TOP_KEYS, "BENCH_cosim.json")
    check_version(doc, COSIM_VERSION, "BENCH_cosim.json")
    check_host(doc, "BENCH_cosim.json")
    require_keys(doc["config"], COSIM_CONFIG_KEYS, "config")
    epochs = doc["epochs"]
    if not isinstance(epochs, list) or not epochs:
        fail("epochs must be a non-empty array")
    for i, epoch in enumerate(epochs):
        require_keys(epoch, COSIM_EPOCH_KEYS, f"epochs[{i}]")
        if epoch["csb_weight_bytes"] <= 0:
            fail(f"epochs[{i}].csb_weight_bytes must be positive")
        for key in ("procrustes_glb_energy_j", "procrustes_dram_energy_j",
                    "dense_glb_energy_j", "dense_dram_energy_j"):
            if epoch[key] <= 0:
                fail(f"epochs[{i}].{key} must be positive")
        for key in ("imbalance_unbalanced_frac_above_50",
                    "imbalance_balanced_frac_above_10"):
            v = epoch[key]
            if not 0.0 <= v <= 1.0:
                fail(f"epochs[{i}].{key} = {v} outside [0, 1]")
        for side in ("unbalanced", "balanced"):
            mean = epoch[f"imbalance_{side}_mean"]
            peak = epoch[f"imbalance_{side}_max"]
            if mean < 0 or peak < 0:
                fail(f"epochs[{i}] {side} imbalance must be >= 0")
            if mean > peak:
                fail(f"epochs[{i}].imbalance_{side}_mean = {mean} "
                     f"exceeds its max {peak}")
        # The half-tile pairing can only lower a wave's maximum (the
        # original tiles are one feasible pairing), so balanced mean
        # overhead must never exceed unbalanced.
        if (epoch["imbalance_balanced_mean"] >
                epoch["imbalance_unbalanced_mean"] + 1e-12):
            fail(f"epochs[{i}]: balanced mean imbalance "
                 f"{epoch['imbalance_balanced_mean']} exceeds "
                 f"unbalanced {epoch['imbalance_unbalanced_mean']}")
        cs = epoch["cycle_sim"]
        if not isinstance(cs, dict):
            fail(f"epochs[{i}].cycle_sim must be an object")
        require_keys(cs, COSIM_CYCLE_SIM_KEYS, f"epochs[{i}].cycle_sim")
        for key in ("cycles", "compute_cycles", "stall_cycles",
                    "drain_cycles", "glb_conflict_cycles",
                    "glb_conflicts", "glb_reads", "glb_writes",
                    "fifo_backpressure_cycles", "macs_retired"):
            if cs[key] < 0:
                fail(f"epochs[{i}].cycle_sim.{key} = {cs[key]} "
                     f"is negative")
        if cs["cycles"] == 0 or cs["macs_retired"] == 0:
            fail(f"epochs[{i}].cycle_sim simulated no work")
        # The serial co-run's cycles decompose additively: compute +
        # drain + GLB bank-conflict stalls (the general contract's
        # overlap and refill terms are zero here). A mismatch means
        # the simulator's accounting broke, not just drifted.
        expect = (cs["compute_cycles"] + cs["drain_cycles"] +
                  cs["glb_conflict_cycles"])
        if cs["cycles"] != expect:
            fail(f"epochs[{i}].cycle_sim.cycles = {cs['cycles']} but "
                 f"compute+drain+glb_conflict = {expect}")
        if cs["stall_cycles"] > cs["compute_cycles"]:
            fail(f"epochs[{i}].cycle_sim.stall_cycles "
                 f"{cs['stall_cycles']} exceeds compute_cycles "
                 f"{cs['compute_cycles']}")
        ratio = cs["analytic_cycle_ratio"]
        if not COSIM_RATIO_MIN <= ratio <= COSIM_RATIO_MAX:
            fail(f"epochs[{i}].cycle_sim.analytic_cycle_ratio = "
                 f"{ratio} outside sane band "
                 f"[{COSIM_RATIO_MIN}, {COSIM_RATIO_MAX}]")
        # The double-buffered co-run re-times the same drain traffic:
        # it saves exactly the overlapped cycles and can never be
        # slower than the serial run it shadows.
        if cs["db_cycles"] <= 0:
            fail(f"epochs[{i}].cycle_sim.db_cycles must be positive")
        if cs["db_overlapped_drain_cycles"] < 0:
            fail(f"epochs[{i}].cycle_sim.db_overlapped_drain_cycles "
                 f"is negative")
        if cs["db_cycles"] != cs["cycles"] - cs["db_overlapped_drain_cycles"]:
            fail(f"epochs[{i}].cycle_sim.db_cycles = {cs['db_cycles']} "
                 f"but serial cycles - overlapped = "
                 f"{cs['cycles'] - cs['db_overlapped_drain_cycles']}")
        db_ratio = cs["db_analytic_cycle_ratio"]
        if not 0.0 < db_ratio <= ratio:
            fail(f"epochs[{i}].cycle_sim.db_analytic_cycle_ratio = "
                 f"{db_ratio} outside (0, serial ratio {ratio}]")


def check_dataflow(doc):
    require_keys(doc, DATAFLOW_TOP_KEYS, "BENCH_dataflow.json")
    check_version(doc, DATAFLOW_VERSION, "BENCH_dataflow.json")
    check_host(doc, "BENCH_dataflow.json")
    require_keys(doc["config"], DATAFLOW_CONFIG_KEYS, "config")
    require_keys(doc["analytic"], DATAFLOW_ANALYTIC_KEYS, "analytic")
    if doc["analytic"]["compute_cycles"] <= 0:
        fail("analytic.compute_cycles must be positive")
    grid = doc["grid"]
    require_keys(grid, DATAFLOW_GRID_KEYS, "grid")
    expected = set()
    for banks in grid["glb_banks"]:
        for fifo in grid["pe_fifo_depth"]:
            for uni in grid["unicast_words_per_cycle"]:
                for drain in grid["drain"]:
                    for dram in grid["dram_words_per_cycle"]:
                        expected.add((banks, fifo, uni, drain, dram))
    points = doc["points"]
    if not isinstance(points, list) or not points:
        fail("points must be a non-empty array")
    seen = {}
    for i, pt in enumerate(points):
        require_keys(pt, DATAFLOW_POINT_KEYS, f"points[{i}]")
        key = (pt["glb_banks"], pt["pe_fifo_depth"],
               pt["unicast_words_per_cycle"], pt["drain"],
               pt["dram_words_per_cycle"])
        if key not in expected:
            fail(f"points[{i}] {key} is not a grid combination")
        if key in seen:
            fail(f"points[{i}] duplicates grid combination {key}")
        seen[key] = pt
        if pt["cycles"] <= 0 or pt["macs_retired"] <= 0:
            fail(f"points[{i}] simulated no work")
        for k in DATAFLOW_POINT_KEYS - {"drain"}:
            if pt[k] < 0:
                fail(f"points[{i}].{k} = {pt[k]} is negative")
        # The cycle accounting contract, point by point.
        expect = (pt["compute_cycles"] + pt["drain_cycles"] +
                  pt["glb_conflict_cycles"] -
                  pt["overlapped_drain_cycles"] +
                  pt["dram_stall_cycles"])
        if pt["cycles"] != expect:
            fail(f"points[{i}].cycles = {pt['cycles']} but "
                 f"compute+drain+conflict-overlap+stall = {expect}")
        if pt["drain"] == "serial" and pt["overlapped_drain_cycles"]:
            fail(f"points[{i}] is serial but overlapped "
                 f"{pt['overlapped_drain_cycles']} cycles")
        if (pt["dram_words_per_cycle"] == 0.0 and
                (pt["dram_refill_cycles"] or pt["dram_stall_cycles"])):
            fail(f"points[{i}] has refill off but charges refill")
    missing = expected - seen.keys()
    if missing:
        fail(f"grid combinations missing from points: "
             f"{sorted(missing)[:4]} (+{max(0, len(missing) - 4)} more)")
    # Double-buffering re-times the serial drain; on the same knobs it
    # must never clock slower.
    for key, pt in seen.items():
        if key[3] != "double_buffered":
            continue
        other = seen[(key[0], key[1], key[2], "serial", key[4])]
        if pt["cycles"] > other["cycles"]:
            fail(f"double_buffered point {key} is slower than its "
                 f"serial twin ({pt['cycles']} > {other['cycles']})")
    dflt = doc["default_point"]
    for k in ("serial_ratio", "double_buffered_ratio"):
        if k not in dflt or dflt[k] <= 0:
            fail(f"default_point.{k} missing or non-positive")
    if dflt["double_buffered_ratio"] > dflt["serial_ratio"]:
        fail("default point: double-buffered ratio exceeds serial")


def check_scaleout(doc):
    require_keys(doc, SCALEOUT_TOP_KEYS, "BENCH_scaleout.json")
    check_version(doc, SCALEOUT_VERSION, "BENCH_scaleout.json")
    check_host(doc, "BENCH_scaleout.json")
    cfg = doc["config"]
    require_keys(cfg, SCALEOUT_CONFIG_KEYS, "config")
    n_epochs = cfg["epochs"]
    shard_counts = cfg["shard_counts"]
    if not isinstance(shard_counts, list) or not shard_counts:
        fail("config.shard_counts must be a non-empty array")

    def check_epoch_list(rows, keys, where):
        if not isinstance(rows, list) or len(rows) != n_epochs:
            fail(f"{where} must have config.epochs = {n_epochs} entries")
        for i, row in enumerate(rows):
            require_keys(row, keys, f"{where}[{i}]")
            if row["epoch"] != i:
                fail(f"{where}[{i}].epoch = {row['epoch']}, expected {i}")
            if not 0.0 <= row["weight_density"] <= 1.0:
                fail(f"{where}[{i}].weight_density = "
                     f"{row['weight_density']} outside [0, 1]")

    for block in ("non_sharded", "shard1_twin"):
        check_epoch_list(doc[block]["epochs"], SCALEOUT_TRAJ_KEYS,
                         f"{block}.epochs")

    runs = doc["runs"]
    if not isinstance(runs, list):
        fail("runs must be an array")
    if [r.get("shards") for r in runs] != shard_counts:
        fail(f"runs cover shards {[r.get('shards') for r in runs]}, "
             f"expected config.shard_counts = {shard_counts}")
    for run in runs:
        m = run["shards"]
        where = f"runs[shards={m}].epochs"
        check_epoch_list(run["epochs"], SCALEOUT_RUN_EPOCH_KEYS, where)
        for i, row in enumerate(run["epochs"]):
            comp = row["exchange_compressed_bytes"]
            dense = row["exchange_dense_bytes"]
            if m == 1:
                # One shard exchanges nothing, models nothing.
                for k in ("exchange_compressed_bytes",
                          "exchange_dense_bytes", "exchange_messages",
                          "modeled_exchange_cycles"):
                    if row[k] != 0:
                        fail(f"{where}[{i}].{k} = {row[k]}, expected 0 "
                             f"at shards = 1")
                continue
            if row["exchange_messages"] <= 0:
                fail(f"{where}[{i}].exchange_messages must be positive")
            if comp > dense:
                fail(f"{where}[{i}]: compressed exchange {comp} exceeds "
                     f"dense twin {dense}")
            # Exchange masks are sampled before the step, so strict
            # compression is guaranteed from the first epoch that
            # *starts* sparse (the previous epoch ended with live
            # density < 1), not from the epoch a prune event lands in.
            prev = run["epochs"][i - 1] if i > 0 else None
            if prev is not None and prev["weight_density"] < 1.0:
                if comp >= dense:
                    fail(f"{where}[{i}]: sparse epoch but compressed "
                         f"exchange {comp} is not below dense {dense}")
            if comp > 0 and row["modeled_exchange_cycles"] <= 0:
                fail(f"{where}[{i}]: exchange bytes present but "
                     f"modeled_exchange_cycles = "
                     f"{row['modeled_exchange_cycles']}")
            if row["modeled_wu_cycles"] < row["modeled_exchange_cycles"]:
                fail(f"{where}[{i}]: wu cycles "
                     f"{row['modeled_wu_cycles']} below the exchange "
                     f"bound {row['modeled_exchange_cycles']}")
    # The determinism contract, as emitted: every shard count follows
    # the bitwise-identical trajectory (floats printed with %.17g
    # round-trip exactly), and the shards=1 twin at sliceSamples ==
    # batchSize equals the plain trainer run.
    ref = runs[0]["epochs"]
    for run in runs[1:]:
        for i, row in enumerate(run["epochs"]):
            for k in ("train_loss", "val_accuracy", "weight_density"):
                if row[k] != ref[i][k]:
                    fail(f"runs[shards={run['shards']}].epochs[{i}].{k} "
                         f"= {row[k]} differs from shards="
                         f"{runs[0]['shards']} value {ref[i][k]} — "
                         f"shard-count determinism broken")
    for i in range(n_epochs):
        a = doc["non_sharded"]["epochs"][i]
        b = doc["shard1_twin"]["epochs"][i]
        for k in ("train_loss", "val_accuracy", "weight_density"):
            if a[k] != b[k]:
                fail(f"shard1_twin.epochs[{i}].{k} = {b[k]} differs "
                     f"from non_sharded {a[k]} — the engine twin is "
                     f"not bitwise-equivalent to the plain trainer")


def check_jobs(doc):
    require_keys(doc, JOBS_TOP_KEYS, "BENCH_jobs.json")
    check_version(doc, JOBS_VERSION, "BENCH_jobs.json")
    check_host(doc, "BENCH_jobs.json")
    cfg = doc["config"]
    require_keys(cfg, JOBS_CONFIG_KEYS, "config")
    n_epochs = cfg["epochs"]
    names = cfg["job_names"]
    if not isinstance(names, list) or len(names) != cfg["jobs"]:
        fail("config.job_names must list config.jobs entries")

    jobs = doc["jobs"]
    if not isinstance(jobs, list):
        fail("jobs must be an array")
    if [j.get("name") for j in jobs] != names:
        fail(f"jobs cover {[j.get('name') for j in jobs]}, expected "
             f"config.job_names = {names}")

    def check_epoch_list(rows, where):
        if not isinstance(rows, list) or len(rows) != n_epochs:
            fail(f"{where} must have config.epochs = {n_epochs} entries")
        for i, row in enumerate(rows):
            require_keys(row, JOBS_TRAJ_KEYS, f"{where}[{i}]")
            if row["epoch"] != i:
                fail(f"{where}[{i}].epoch = {row['epoch']}, expected {i}")
            if not 0.0 <= row["weight_density"] <= 1.0:
                fail(f"{where}[{i}].weight_density = "
                     f"{row['weight_density']} outside [0, 1]")

    # The isolation contract, as emitted: a job multiplexed with three
    # neighbours follows the bitwise-identical trajectory of the same
    # job running alone (%.17g floats round-trip exactly).
    for job in jobs:
        name = job["name"]
        for block in ("solo", "concurrent"):
            if block not in job:
                fail(f"jobs[{name}] is missing the {block} block")
            check_epoch_list(job[block]["epochs"],
                             f"jobs[{name}].{block}.epochs")
        for i in range(n_epochs):
            a = job["solo"]["epochs"][i]
            b = job["concurrent"]["epochs"][i]
            for k in ("train_loss", "val_accuracy", "weight_density"):
                if a[k] != b[k]:
                    fail(f"jobs[{name}].concurrent.epochs[{i}].{k} = "
                         f"{b[k]} differs from solo {a[k]} — "
                         f"scheduler isolation broken")

    timing = doc["timing"]
    require_keys(timing, JOBS_TIMING_KEYS, "timing")
    for k in JOBS_TIMING_KEYS:
        if timing[k] < 0:
            fail(f"timing.{k} = {timing[k]} is negative")

    fairness = doc["fairness"]
    require_keys(fairness, JOBS_FAIRNESS_KEYS, "fairness")
    if fairness["rounds"] < n_epochs:
        fail(f"fairness.rounds = {fairness['rounds']} below "
             f"config.epochs = {n_epochs}")
    if fairness["max_epoch_spread"] > 1:
        fail(f"fairness.max_epoch_spread = "
             f"{fairness['max_epoch_spread']} exceeds the fair-share "
             f"bound of 1")

    resume = doc["resume"]
    require_keys(resume, JOBS_RESUME_KEYS, "resume")
    if resume["job"] not in names:
        fail(f"resume.job = {resume['job']!r} is not a configured job")
    if resume["bitwise_equal"] is not True:
        fail("resume.bitwise_equal is not true — checkpoint/resume "
             "diverged from the uninterrupted run")
    if resume["checkpoint_bytes"] <= 0:
        fail("resume.checkpoint_bytes must be positive")
    for k in ("save_ms", "restore_ms"):
        if resume[k] < 0:
            fail(f"resume.{k} = {resume[k]} is negative")
    if not 0 <= resume["checkpoint_step"] <= resume["total_steps"]:
        fail(f"resume.checkpoint_step = {resume['checkpoint_step']} "
             f"outside [0, total_steps = {resume['total_steps']}]")
    if (resume["resumed_steps"] !=
            resume["total_steps"] - resume["checkpoint_step"]):
        fail(f"resume.resumed_steps = {resume['resumed_steps']} but "
             f"total - checkpoint = "
             f"{resume['total_steps'] - resume['checkpoint_step']} — "
             f"the resumed run did not land on the same step count")


def is_timing_key(key):
    return key.endswith("_ms") or key.endswith("_s")


def differences(a, b, path):
    """Paths at which two JSON values differ, skipping the host block
    and timing fields."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(a.keys() | b.keys()):
            if key == "host" or is_timing_key(key):
                continue
            if key not in a or key not in b:
                out.append(f"{path}.{key} (present in one file only)")
            else:
                out += differences(a[key], b[key], f"{path}.{key}")
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path} (length {len(a)} vs {len(b)})"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += differences(x, y, f"{path}[{i}]")
        return out
    return [] if a == b else [f"{path} ({a!r} vs {b!r})"]


def check_same(check, committed, fresh):
    check(committed)
    check(fresh)
    diffs = differences(committed, fresh, "$")
    if diffs:
        fail(f"{len(diffs)} fields differ from the committed run, e.g. "
             + "; ".join(diffs[:4]))


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")


def main():
    checks = {"kernels": check_kernels, "cosim": check_cosim,
              "dataflow": check_dataflow, "scaleout": check_scaleout,
              "jobs": check_jobs}
    same = ("dataflow", "cosim", "scaleout")
    paths = sys.argv[2:]
    if len(sys.argv) > 1 and sys.argv[1] in [f"{k}-same" for k in same]:
        kind = sys.argv[1][:-len("-same")]
        if len(paths) != 2:
            print(__doc__, file=sys.stderr)
            return 2
        check_same(checks[kind], load(paths[0]), load(paths[1]))
        print(f"{kind} check OK: {paths[1]} reproduces {paths[0]}")
        return 0
    if len(paths) != 1 or sys.argv[1] not in checks:
        print(__doc__, file=sys.stderr)
        return 2
    checks[sys.argv[1]](load(paths[0]))
    print(f"schema check OK: {paths[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
