"""textshape benchmark: one workload per invocation, closed loop, one thread.

    python3 perfbench/run.py --workload roundtrip_clean --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. All
inputs are generated from ``--seed``. One caller sends each operation after
the previous one returned (textshape is a batch library, so there is no
open-loop rate). The run makes whole passes over the workload's input pool until
``--seconds`` of operation time is measured, checks every output against an
oracle, prints the workload's metrics one per line, and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Timings on a shared host drift with the other tenants' load, so the run
times a fixed reference kernel between operations (reference.py) and
reports every gated timing scaled to reference speed; wall times are
printed beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs whole pool
passes untraced, then the same passes with spans recorded around the public
functions of labels/detect/geom/evaluate/formats (see tracing.py), checks
that both give identical outputs, and reports per-layer metrics per pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:   # one BLAS/OpenMP thread, set before numpy loads
    os.environ[_var] = "1"

import reference  # noqa: E402  (after the thread pinning above)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 4
REF_EVERY_S = 0.4          # op time between two runs of the reference kernel
SETUP_REFS = 3             # reference runs after each set-up
TAIL_MAX_PERCENTILE = 99.0
IMPORT_PROBE = "import textshape, textshape.cli, textshape.formats, textshape.synth"

E2E_UNITS = {"op_ms_geomean": "ms", "op_ms_tail": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def _import_program():
    if not (SRC / "textshape" / "__init__.py").is_file():
        sys.exit(f"error: no textshape sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import textshape

    if Path(textshape.__file__).resolve().parent != SRC / "textshape":
        sys.exit(f"error: imported textshape from {textshape.__file__}, not {SRC}")


def _tail(times: list[float], pool_size: int) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond
    it in a run of MIN_PASSES passes, kept within the 50th to 99th.

    Longer runs keep the same percentile, so it always lands in the middle
    of the same pool item's samples, however many passes fit in the time.
    """
    pct = min(TAIL_MAX_PERCENTILE, max(50.0, 100.0 * (1.0 - 10.0 / (MIN_PASSES * pool_size))))
    s = sorted(times)
    return pct, s[min(len(s) - 1, int(pct / 100.0 * len(s)))]


def _pin_to_one_cpu():
    """Keep this process, and the interpreter set-up starts, on one CPU.

    On a shared host each virtual CPU slows with its own neighbours' load, so
    the reference kernel tracks the speed the operations saw only if both
    run on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _time_import():
    """Import the program in a fresh interpreter, as every user does once."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True, cwd=ROOT)


class Tally:
    """Outcomes of one phase of a run: times, values, failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.op_time = 0.0
        self.times: dict[str, list[float]] = {}
        self.values: dict[str, list] = {}
        self.digests: dict[int, str] = {}
        self.op_pass: list[int] = []               # pass of each successful op
        self.refs: dict[int, list[float]] = {}     # reference kernel times per pass

    def fail(self, reason: str):
        self.failed += 1
        self.errors[reason] += 1

    def scaled_ops(self) -> list[float]:
        """Successful op times scaled to reference speed, pass by pass."""
        scale = {p: reference.REF_S / statistics.median(r) for p, r in self.refs.items()}
        return [x * scale[p] for x, p in zip(self.times.get("op", []), self.op_pass)]


def run_ops(wl, pool, seconds=None, passes=None, expect=None, min_passes=1,
            calibrate=False) -> Tally:
    """Whole passes over the pool: ``passes`` of them, or about ``seconds`` of op time.

    Whole passes keep the mix of items the same in every run, however many
    passes fit in the time. A timed run stops at the pass boundary nearest
    to ``seconds``, after at least ``min_passes`` passes.

    Every exception from the program and every failed check is counted as
    a failure and the run goes on. With ``expect`` (digests of an earlier
    pass), outputs that differ from it are failures too.

    With ``calibrate``, the reference kernel runs after every REF_EVERY_S of
    op time and at least once in every pass, outside the op times.
    """
    t = Tally()
    items = pool["items"]
    k = 0
    since_ref = 0.0
    while True:
        i = k % len(items)
        if passes is not None and k == passes * len(items):
            break
        if i == 0 and k >= min_passes * len(items) and seconds is not None:
            per_pass = t.op_time * len(items) / k
            if t.op_time + per_pass / 2.0 >= seconds:
                break
        p = k // len(items)
        k += 1
        dt = _one_op(wl, items, i, p, t, expect)
        if calibrate:
            since_ref += dt
            if since_ref >= REF_EVERY_S or (i == len(items) - 1 and p not in t.refs):
                t.refs.setdefault(p, []).append(reference.timed())
                since_ref = 0.0
    return t


def _one_op(wl, items, i, p, t: Tally, expect) -> float:
    """Run, check and record item ``i`` in pass ``p``; return its op seconds."""
    prepared = wl.prepare(items[i])
    t.attempted += 1
    t0 = time.perf_counter()
    try:
        res = wl.op(prepared)
    except Exception as exc:   # the run must continue; record the type
        dt = time.perf_counter() - t0
        t.op_time += dt
        t.fail(type(exc).__name__)
        return dt
    t.op_time += res.times["op"]
    reason = wl.check(items[i], res)
    if reason is not None:
        t.fail(reason)
        return res.times["op"]
    for key, v in res.times.items():
        t.times.setdefault(key, []).append(v)
    for key, v in res.values.items():
        t.values.setdefault(key, []).append(v)
    t.op_pass.append(p)
    d = wl.digest(res)
    if expect is not None and expect.get(i, d) != d:
        t.fail("traced_output_differs")
    t.digests.setdefault(i, d)
    return res.times["op"]


def warm_up(wl, pool):
    """Fill caches and finish lazy imports before timing: the reference
    kernel a few times and the first pool item once, unchecked."""
    for _ in range(SETUP_REFS):
        reference.timed()
    try:
        wl.op(wl.prepare(pool["items"][0]))
    except Exception:   # the timed passes count it
        pass


def run_probes(wl, pool) -> Tally:
    t = Tally()
    for item in pool["probes"]:
        t.attempted += 1
        try:
            wl.op(wl.prepare(item))
        except Exception as exc:
            t.fail(type(exc).__name__)
    return t


def _ms(xs):
    return 1000.0 * statistics.median(xs)


def workload_metrics(name: str, t: Tally, probes: Tally, setup_s: float, rss_mb: float,
                     pool_size: int) -> dict:
    """The metrics a user of this workload sees, by name: (value, unit).

    ``op_ms_*`` and ``setup_s`` are scaled to reference speed; ``wall_*``
    and the per-phase figures (encode, decode, eval, lines) are wall-clock.
    """
    ops = t.times.get("op", [])
    m = {"setup_s": (setup_s, "s")}
    if ops:
        scaled = t.scaled_ops()
        refs = [r for rs in t.refs.values() for r in rs]
        m["op_ms_p50"] = (_ms(scaled), "ms")
        m["op_ms_mean"] = (1000.0 * statistics.fmean(scaled), "ms")
        m["op_ms_geomean"] = (1000.0 * statistics.geometric_mean(scaled), "ms")
        m["wall_op_ms_p50"] = (_ms(ops), "ms")
        m["wall_op_ms_mean"] = (1000.0 * statistics.fmean(ops), "ms")
        m["wall_ops_per_s"] = (len(ops) / t.op_time, "1/s")
        m["ref_kernel_ms"] = (_ms(refs), "ms")
        m["ref_kernel_runs"] = (len(refs), "count")
    if not ops:
        pass   # every operation failed: only the failure counts below
    elif name == "roundtrip_clean":
        m["encode_mcells_per_s"] = (sum(t.values["cells"]) / sum(t.times["encode"]) / 1e6, "Mcells/s")
        m["instances_per_s"] = (len(ops) / t.op_time, "1/s")
    if ops and name in ("roundtrip_clean", "decode_noisy"):
        dec = t.times["decode"]
        pct, tail = _tail(dec, pool_size)
        m["decode_ms_p50"] = (_ms(dec), "ms")
        m["decode_ms_tail"] = (1000.0 * tail, "ms")
        m["decode_tail_percentile"] = (pct, "%")
        # failed items count as lost instances with IoU 0
        ious = t.values["iou"] + [0.0] * (t.failed + probes.failed)
        m["mean_iou"] = (statistics.fmean(ious), "IoU")
        m["min_iou"] = (min(ious), "IoU")
        m["instances_lost"] = (sum(t.values["lost"]) + t.failed + probes.failed, "count")
    if ops and name == "eval_dense_page":
        pct, tail = _tail(ops, pool_size)
        m["eval_ms_p50"] = (_ms(ops), "ms")
        m["eval_ms_tail"] = (1000.0 * tail, "ms")
        m["eval_tail_percentile"] = (pct, "%")
    if ops and name == "parse_corpus":
        for kind, flag in (("valid", True), ("fuzz", False)):
            sel = [x for x, v in zip(ops, t.values["valid"]) if v is flag]
            if sel:
                m[f"{kind}_lines_per_s"] = (len(sel) / sum(sel), "lines/s")
    m["error_rate"] = ((t.failed + probes.failed) / (t.attempted + probes.attempted), "share")
    m["peak_rss_mb"] = (rss_mb, "MB")
    m["samples"] = (len(ops), "count")
    return m


def e2e_metrics(t: Tally, setup_s: float, rss_mb: float, pool_size: int) -> dict:
    """The gated metrics: timings scaled to reference speed, and memory.

    The geometric mean weighs every pool item's latency alike: one of n
    items whose seeded input costs twice as much moves it by 2 ** (1 / n),
    8% for nine items, where it moves the arithmetic mean by that item's
    whole share of the pass.
    """
    ops = t.scaled_ops()
    if not ops:
        return {}
    _, tail = _tail(ops, pool_size)
    values = {
        "op_ms_geomean": 1000.0 * statistics.geometric_mean(ops),
        "op_ms_tail": 1000.0 * tail,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _pin_to_one_cpu()
    _import_program()
    import tracing
    import workloads
    from textshape import detect, evaluate, formats, geom, labels

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    setups, wall_setups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _time_import()
        pool = wl.build(args.seed)
        wall_setups.append(time.perf_counter() - t0)
        ref = statistics.median(reference.timed() for _ in range(SETUP_REFS))
        setups.append(wall_setups[-1] * reference.REF_S / ref)
    setup_s = statistics.median(setups)

    if args.trace:
        plain = run_ops(wl, pool, seconds=args.seconds / 2.0)
        passes = plain.attempted // len(pool["items"])
        tracer = tracing.Tracer()
        mods = {"labels": labels, "detect": detect, "geom": geom,
                "evaluate": evaluate, "formats": formats}
        with tracer.install(mods):
            traced = run_ops(wl, pool, passes=passes, expect=plain.digests)
        overhead = traced.op_time / plain.op_time - 1.0
        errors = plain.errors + traced.errors
        layer = tracing.layer_metrics(tracer, passes, overhead)
        metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in layer.items()}
        for k, v in layer.items():
            print(f"{k:32s} {v:.6g} {tracing.LAYER_UNITS[k]}")
        print(f"passes {passes}, untraced {plain.op_time:.3f} s, traced {traced.op_time:.3f} s")
        failed, attempted = plain.failed + traced.failed, plain.attempted + traced.attempted
    else:
        warm_up(wl, pool)
        tally = run_ops(wl, pool, seconds=args.seconds, min_passes=MIN_PASSES, calibrate=True)
        probes = run_probes(wl, pool)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n_pool = len(pool["items"])
        detail = workload_metrics(args.workload, tally, probes, setup_s, rss_mb, n_pool)
        detail["wall_setup_s"] = (statistics.median(wall_setups), "s")
        for k, (v, unit) in detail.items():
            print(f"{k:24s} {v:.6g} {unit}")
        if probes.attempted:
            print(f"known-defect probes: {probes.failed}/{probes.attempted} raised "
                  f"{dict(probes.errors)} (not timed, not in 'failed' below)")
        metrics = e2e_metrics(tally, setup_s, rss_mb, n_pool)
        failed, attempted, errors = tally.failed, tally.attempted, tally.errors
    print("errors", json.dumps(dict(errors)))
    print("env", json.dumps(environment(args.seed)))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
