#!/usr/bin/env python3
"""Perf regression gate over BENCH_perf.json.

Per-section floors live in scripts/perf_baseline.json; every gated
metric is printed as one measured-vs-floor table row. Fails (exit 1)
when:
  * a fast-engine speedup regressed more than 25% against its baseline
    ratio — speedups are in-run ratios (seed vs fast engine in the same
    binary on the same machine), so they are host-independent, unlike
    absolute milliseconds;
  * a section's acceptance floor is missed (transient, characterization,
    timing graph, library cache, daemon serve, the at-scale stage
    throughputs, and the multicore-scaling ladders);
  * any accuracy/equivalence flag in the bench output is false;
  * the "scaling" section reports a nonzero steady-state allocation
    count per warm characterization arc, or the "mc" section one per
    warm Monte Carlo trial, while allocation counting was compiled in.

The scaling-ladder speedup floors (bench_scaling's 1/2/4/N thread
ladders) only gate on hosts with at least
baseline["scaling"]["min_hardware_threads"] hardware threads — a
speedup-vs-threads contract is unmeasurable on a box with fewer cores.
The zero-allocation and bit-identity gates apply everywhere.

Usage: python3 scripts/check_perf.py [BENCH_perf.json] [--only SECTION]

`--only scale` / `--only scaling` / `--only mc` / `--only route` gate
just that section — for CI jobs that run one bench alone and so produce
a BENCH_perf.json without the other sections.
"""
from __future__ import annotations

import json
import pathlib
import sys

REGRESSION_ALLOWANCE = 1.25  # >25% latency regression vs baseline fails

rows: list[tuple[str, str, str, str]] = []  # (metric, measured, floor, status)
failures: list[str] = []


def check_floor(name: str, actual: float, floor: float,
                unit: str = "x") -> None:
    ok = actual >= floor
    rows.append((name, f"{actual:.2f}{unit}", f">= {floor:.2f}{unit}",
                 "ok" if ok else "REGRESSED"))
    if not ok:
        failures.append(f"{name} {actual:.2f}{unit} below minimum "
                        f"{floor:.2f}{unit}")


def check_ceiling(name: str, actual: float, ceiling: float,
                  unit: str = "") -> None:
    ok = actual <= ceiling
    rows.append((name, f"{actual:.2f}{unit}", f"<= {ceiling:.2f}{unit}",
                 "ok" if ok else "REGRESSED"))
    if not ok:
        failures.append(f"{name} {actual:.2f}{unit} above maximum "
                        f"{ceiling:.2f}{unit}")


def check_flag(name: str, value) -> None:
    ok = value is True
    rows.append((name, str(value), "true", "ok" if ok else "FAILED"))
    if not ok:
        failures.append(f"{name} is {value}")


def skip(name: str, why: str) -> None:
    rows.append((name, "-", "-", f"skipped ({why})"))


def check_scale(scale: dict, floors: dict) -> None:
    check_floor("scale.incremental_timing_speedup_10k",
                scale["incremental_timing_speedup_10k"],
                floors["incremental_timing_speedup_10k"])
    for key, floor in floors["gates_per_sec"].items():
        check_floor(f"scale.{key}", scale[key], floor, unit="")
    for flag in ["incremental_identical", "oracle_identical",
                 "signoff_clean"]:
        check_flag(f"scale.{flag}", scale[flag])


def check_scaling(scaling: dict, floors: dict) -> None:
    """The multicore-scaling ladders from bench_scaling."""
    hardware = scaling["hardware_threads"]
    min_threads = floors["min_hardware_threads"]
    enough_cores = hardware >= min_threads
    for section, floor in floors["speedup_t4"].items():
        name = f"scaling.{section}.speedup_t4"
        if enough_cores:
            check_floor(name, scaling[section]["speedup_t4"], floor)
        else:
            skip(name, f"host has {hardware} < {min_threads} hardware "
                 "threads")
    for section in ["characterization", "monte_carlo", "run_batch"]:
        check_flag(f"scaling.{section}.identical",
                   scaling[section]["identical"])
    if scaling["alloc_counting"]:
        check_ceiling("scaling.allocs_per_arc", scaling["allocs_per_arc"],
                      0.0)
    else:
        skip("scaling.allocs_per_arc",
             "binary built without CNFET_COUNT_ALLOCS")


def check_mc(mc: dict, floors: dict) -> None:
    """The Monte Carlo tracer section from bench_mc.

    The speedup gates are in-run A/B ratios (naive all-pairs tracer vs
    indexed tracer, same binary, same tube population) and so are
    host-independent: dense_tracer_speedup is the asymptotic headline
    (the 16-band synthetic geometry where the all-pairs scan pays its
    O(shapes) cost), min_tracer_speedup and min_speedup_100k are the
    honest tier-1 numbers (tiny 2-band geometries; the all-pairs scan is
    already cheap there). The identity flags — indexed tracer emits
    bit-identical results to the naive reference, and the threaded run
    is bit-identical to the serial one — gate everywhere, always, and a
    warm trial allocates nothing wherever allocations are counted.
    """
    check_floor("mc.dense_tracer_speedup", mc["dense_tracer_speedup"],
                floors["dense_tracer_speedup"])
    check_floor("mc.min_tracer_speedup", mc["min_tracer_speedup"],
                floors["min_tracer_speedup"])
    check_floor("mc.min_speedup_100k", mc["min_speedup_100k"],
                floors["min_speedup_100k"])
    check_floor("mc.min_indexed_100k_trials_per_sec",
                mc["min_indexed_100k_trials_per_sec"],
                floors["trials_per_sec_100k"], unit="")
    check_floor("mc.min_indexed_1m_trials_per_sec",
                mc["min_indexed_1m_trials_per_sec"],
                floors["trials_per_sec_1m"], unit="")
    check_flag("mc.indexed_eq_naive", mc["indexed_eq_naive"])
    check_flag("mc.thread_invariant", mc["thread_invariant"])
    if mc["alloc_counting"]:
        check_ceiling("mc.allocs_per_trial", mc["allocs_per_trial"], 0.0)
    else:
        skip("mc.allocs_per_trial", "binary built without CNFET_COUNT_ALLOCS")


def check_route(route: dict, floors: dict) -> None:
    """The wire-aware signoff section from bench_route.

    Connectivity, the independent open/short oracle, the wire DRC deck,
    byte-determinism of a repeated route, routed-never-faster-than-ideal
    and every end-to-end routed flow reaching Exported clean are
    correctness contracts and gate everywhere, always. The nets/sec floor
    is absolute and set well below a modest single core (measured
    ~40-55k nets/sec through route()+extract() on both the 13-gate and
    10k-gate workloads). The wire deck must be no slower than route() on
    the 10k-gate adder (an in-run ratio, host-independent), and the whole
    routed 10k-gate compile stays under an absolute ceiling.
    """
    for flag in ["connectivity_complete", "verify_ok", "drc_clean",
                 "deterministic", "routed_never_faster", "e2e_ok"]:
        check_flag(f"route.{flag}", route[flag])
    check_floor("route.min_nets_per_sec", route["min_nets_per_sec"],
                floors["min_nets_per_sec"], unit="")
    rca = route["rca10k"]
    check_ceiling("route.rca10k.check_routes_over_route",
                  rca["check_routes_ms"] / rca["route_ms"],
                  floors["max_check_routes_over_route"], unit="x")
    check_ceiling("route.rca10k.e2e_ms", rca["e2e_ms"],
                  floors["max_e2e_10k_ms"], unit="ms")


def print_table() -> None:
    width = max(len(r[0]) for r in rows)
    for name, measured, floor, status in rows:
        print(f"{name:<{width}}  {measured:>12}  {floor:>12}  {status}")


def main() -> int:
    argv = [a for a in sys.argv[1:]]
    only = None
    if "--only" in argv:
        i = argv.index("--only")
        only = argv[i + 1]
        del argv[i:i + 2]
    bench_path = pathlib.Path(argv[0] if argv else "BENCH_perf.json")
    baseline_path = pathlib.Path(__file__).parent / "perf_baseline.json"
    bench = json.loads(bench_path.read_text())
    baseline = json.loads(baseline_path.read_text())

    if only == "scale":
        check_scale(bench["scale"], baseline["scale"])
    elif only == "scaling":
        check_scaling(bench["scaling"], baseline["scaling"])
    elif only == "mc":
        check_mc(bench["mc"], baseline["mc"])
    elif only == "route":
        check_route(bench["route"], baseline["route"])
    elif only is not None:
        print(f"FAIL: unknown --only section '{only}'")
        return 1
    else:
        tran = bench["transient_single_arc"]
        char = bench["characterization"]
        tgraph = bench["timing_graph"]
        libcache = bench["library_cache"]
        serve = bench["serve"]

        # Ratio gates: floor = max(section floor, baseline ratio less the
        # 25% regression allowance).
        def gated_floor(section: str, ratio_key: str) -> float:
            b = baseline[section]
            floor = b["floor"]
            if ratio_key in b:
                floor = max(floor, b[ratio_key] / REGRESSION_ALLOWANCE)
            return floor

        check_floor("transient_single_arc.speedup", tran["speedup"],
                    gated_floor("transient_single_arc", "baseline_speedup"))
        check_floor("characterization.serial_speedup",
                    char["serial_speedup"],
                    gated_floor("characterization", "baseline_speedup"))
        check_floor("timing_graph.speedup", tgraph["speedup"],
                    gated_floor("timing_graph", "baseline_speedup"))
        check_floor("library_cache.speedup", libcache["speedup"],
                    gated_floor("library_cache", "baseline_speedup"))
        check_floor("serve.warm_vs_cold_speedup",
                    serve["warm_vs_cold_speedup"],
                    baseline["serve"]["floor"])

        for section, flag in [
            ("transient_single_arc", "within_tolerance"),
            ("characterization", "delay_within_bounds"),
            ("characterization", "parallel_identical"),
            ("library_cache", "tables_exact"),
            ("timing_graph", "identical"),
            ("monte_carlo", "identical"),
            ("run_batch", "identical"),
            ("serve", "gds_identical"),
            ("serve", "metrics_identical"),
        ]:
            check_flag(f"{section}.{flag}", bench[section][flag])

        check_ceiling("characterization.energy_rel_err",
                      char["energy_rel_err"], 0.02)

        # Sections written by separate benches are optional in the full
        # run; when present they are gated.
        if "scale" in bench:
            check_scale(bench["scale"], baseline["scale"])
        if "scaling" in bench:
            check_scaling(bench["scaling"], baseline["scaling"])
        if "mc" in bench:
            check_mc(bench["mc"], baseline["mc"])
        if "route" in bench:
            check_route(bench["route"], baseline["route"])

    print_table()
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
