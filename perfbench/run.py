"""Benchmark of cold ``toricqh`` command lines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload algebra --seed 0 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --record

One op is one ``toricqh`` invocation (``cli.main`` with ``--format json``),
run in a child forked from a parent that has only imported the package, so
every op starts from the state of a fresh import: no cache filled by an
earlier op, by input generation or by loading the reference table.  One op
runs at a time (a closed loop with one client, all on one CPU), in whole
passes over the workload's op list, shuffled in an order fixed by the seed;
a run makes ``--seconds`` over the workload's nominal pass length
(``workloads.PASS_SECONDS``) passes, which lasts about ``--seconds`` at the
commit that defined the benchmark.

With ``--trace 0`` the last line holds the end-to-end metrics:

* ``ops_per_s``: ops completed per second over the run, each op counted from
  its fork to reaping its child;
* ``latency_p50_s``: median op wall time, timed around ``cli.main``;
* ``latency_tail_s``: op wall time at the highest percentile with at least
  ten ops beyond it (the percentile and op count are printed);
* ``peak_rss_mb``: the largest peak resident memory of any op's process;
* ``ok_ratio``: ops that did not fail over ops attempted;
* ``setup_s``: median of several set-ups, each one importing the program in
  a fresh interpreter, generating the inputs and loading the reference table.

The times are given at reference speed.  The shared machine this was built
on switches, for a second to tens of seconds at a time, between phases in
which the same code runs up to 1.8 times slower, so a run's raw times depend
on the phases it meets.  After every op (and around every set-up) the
benchmark times a fixed pure-Python reference kernel that never touches the
program, and multiplies each op's times by
``(REFERENCE_S / r) ** SPEED_EXPONENT``, where ``r`` is the median of the
reference times just before the op, just after it and after the next op:
the speed can change from one op to the next, so a wider window cancels
less.  The factor does not depend on the program, so a change to the program
moves the scaled times as it moves the raw ones, while a phase of the
machine moves the op and the kernel together and mostly cancels.  The
exponent is below 1 because the program's ops slow down a little less than
the kernel in a slow phase: on a 2-core machine, regressing the log wall
time of the same corpus op on the log reference time around it, over ten
seeds, gave slopes of 0.72 to 0.83, which the noise in the reference time
biases low; recomputed over 25 runs per workload, 0.9 gave the smallest
largest spread across seeds of 0.8, 0.9 and 1.  The raw (unscaled) times,
the reference times and the scale of every op are printed and written to
the run's output file.

With ``--trace 1`` it holds the per-layer metrics (see ``spans.py``) of the
workload's first round, in which every op runs once untraced and twice
traced.

An op fails on a wrong exit code, an exception or a wrong report.  At the
default seed every report is compared byte for byte with ``expected.json``,
which ``--record`` rewrites from the program as it is; at other seeds a
report must parse and have its command's top-level keys.  ``correct`` is
false when an op on a valid command line fails; the six bad command lines
of the geometry workload check the documented exit code 2 and count in
``failed`` only.  Per-op records, and the spans of a traced run (one JSON
line per op), are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import pickle
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = "perfbench/out"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Reference-speed scaling: the reference kernel runs after every op, and
# each op's times are multiplied by (REFERENCE_S / r) ** SPEED_EXPONENT,
# where r is the median reference time of the REFERENCE_WINDOW ops on
# either side of it (the one before it is the reference just before the op).
REFERENCE_S = 0.004
REFERENCE_WINDOW = 1
SPEED_EXPONENT = 0.9


def _reference_kernel():
    """Fixed pure-Python work that never touches the program: exact rational
    arithmetic, tuple-keyed dicts and list sorting, as in its hot loops."""
    acc = Fraction(0)
    counts = {}
    for i in range(1, 300):
        q = Fraction(i % 13 + 1, i)
        acc += q * q
        key = (i % 31, i % 7)
        counts[key] = counts.get(key, 0) + acc.numerator % 97
    rows = sorted([(i * j) % 11 for j in range(12)] for i in range(80))
    return acc, counts, rows


def reference():
    """Wall time of the reference kernel, run three times, in this process."""
    start = perf_counter()
    for _ in range(3):
        _reference_kernel()
    return perf_counter() - start


def speed_scale(ref):
    """Factor that takes a time measured when the reference kernel took
    ``ref`` to reference speed."""
    return (REFERENCE_S / ref) ** SPEED_EXPONENT


def speed_scales(refs, window=REFERENCE_WINDOW):
    """Per sample: the speed scale of the median reference time around it."""
    return [speed_scale(statistics.median(refs[max(0, i - window):i + window + 1]))
            for i in range(len(refs))]


def _child(op, traced):
    """Body of the forked child: one op, timed around ``cli.main``."""
    import toricqh.cli as cli
    recorder = None
    if traced:
        recorder = spans.Recorder()
        spans.install(recorder)
    out = io.StringIO()
    exc = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(op.argv())
    except SystemExit as stop:  # argparse rejects its own arguments this way
        code = stop.code if isinstance(stop.code, int) else int(bool(stop.code))
    except Exception as error:  # a traceback: the process would exit 1
        code, exc = 1, type(error).__name__
    wall = perf_counter() - start
    text = out.getvalue()
    try:
        report = json.loads(text)
        keys = sorted(report) if isinstance(report, dict) else None
    except ValueError:
        keys = None
    return {"code": code, "exc": exc, "wall": wall, "keys": keys,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "empty": not text,
            "spans": recorder.export() if traced else None}


def run_op(op, traced=False):
    """Fork, run one op in the child, wait for it; adds the child's peak
    resident memory."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            payload = pickle.dumps(_child(op, traced))
            with os.fdopen(w, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        result = {"code": None, "exc": f"child ended with status {status}",
                  "wall": 0.0, "keys": None, "sha256": None, "empty": True,
                  "spans": None}
    else:
        result = pickle.loads(data)  # written by our own child above
    result["rss_mb"] = usage.ru_maxrss / 1024
    return result


def check(op, result, table, exact):
    """None when the op behaved as expected, else the reason it failed.

    ``exact``: compare the report byte for byte with the recorded one (the
    default seed); otherwise only its top-level keys.
    """
    if result["exc"]:
        return f"raised {result['exc']}"
    if result["code"] != op.expect:
        return f"exit code {result['code']}, expected {op.expect}"
    if op.error_path:
        return None
    if exact:
        if result["sha256"] != table["ops"].get(op.key):
            return "report differs from the recorded one"
        return None
    if result["empty"]:
        return "no report" if op.expect == 0 else None
    if result["keys"] != table["keys"][op.command]:
        return f"report keys {result['keys']} differ"
    return None


def set_up(workload, seed):
    """One set-up: import the program in a fresh interpreter, generate the
    inputs and load the reference table.  Returns its wall time, the median
    of the reference times just before and after it, and what it made."""
    before = [reference() for _ in range(3)]
    start = perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, 'src'); import toricqh.cli"],
                   check=True, timeout=120)
    built = workloads.build(workload, seed, f"{OUT}/inputs/{workload}-{seed}")
    table = json.loads(EXPECTED.read_text())
    wall = perf_counter() - start
    ref = statistics.median(before + [reference() for _ in range(3)])
    return wall, ref, built, table


def write_inputs(inputs):
    for path, text in inputs.files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)


def pin_cpu():
    """Keep this process and every child on one CPU, so that the reference
    kernel and the ops run on the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_program():
    sys.path.insert(0, "src")
    import toricqh.cli  # noqa: F401  the state every forked op starts from
    gc.collect()
    gc.freeze()


def closed_loop(ops, passes, checker):
    """``passes`` whole passes over the ops, one op at a time, each followed
    by the reference kernel.  Adds to each result ``elapsed``, the op's time
    from fork to reaping its child, and ``ref``, the reference time after
    it."""
    results = []
    for _ in range(passes):
        for op in ops:
            start = perf_counter()
            result = run_op(op)
            result["elapsed"] = perf_counter() - start
            result["ref"] = reference()
            results.append((op, result, checker(op, result)))
    return results


def tail(values):
    """Value at the highest percentile with at least TAIL_BEYOND values
    beyond it, with that percentile."""
    ordered = sorted(values)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def op_records(workload, results, scales=None):
    """Per op: its identity, every wall time (scaled to reference speed when
    ``scales`` are given) and their median, failures."""
    by_op = {}
    scales = scales or [1.0] * len(results)
    for (op, result, reason), k in zip(results, scales):
        rec = by_op.setdefault(op.id, {
            "workload": workload, "op": op.id, "command": op.command,
            "input": op.input, "args": list(op.args), "expect": op.expect,
            "walls": [], "failures": []})
        rec["walls"].append(result["wall"] * k)
        if reason:
            rec["failures"].append(reason)
    for rec in by_op.values():
        rec["median_s"] = statistics.median(rec["walls"])
    return list(by_op.values())


def timings(results, scales):
    """ops_per_s, latency_p50_s and latency_tail_s (with its percentile) of
    the results, each time multiplied by its scale."""
    walls = [r["wall"] * k for (_, r, _), k in zip(results, scales)]
    elapsed = sum(r["elapsed"] * k for (_, r, _), k in zip(results, scales))
    tail_s, pct = tail(walls)
    return len(results) / elapsed, statistics.median(walls), tail_s, pct


def end_to_end(workload, ops, seconds, checker, setup, out_name):
    # The pass count depends on --seconds only, never on measured speed, so
    # every commit runs the same ops and the tail percentile stays the same.
    passes = max(1, round(seconds / workloads.PASS_SECONDS[workload]))
    results = closed_loop(ops, passes, checker)
    scales = speed_scales([r["ref"] for _, r, _ in results])
    ops_per_s, p50, tail_s, pct = timings(results, scales)
    raw = timings(results, [1.0] * len(results))
    setup_s = statistics.median(wall * speed_scale(ref) for wall, ref in setup)
    failed = sum(1 for *_, reason in results if reason)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(r["rss_mb"] for _, r, _ in results), "MB"),
        "ok_ratio": ((len(results) - failed) / len(results), "ratio"),
        "setup_s": (setup_s, "s"),
    }
    unscaled = {"ops_per_s": raw[0], "latency_p50_s": raw[1],
                "latency_tail_s": raw[2],
                "setup_s": statistics.median(wall for wall, _ in setup)}
    Path(out_name).write_text(json.dumps({
        "passes": passes, "ops": len(results),
        "latency_tail_percentile": pct, "unscaled": unscaled,
        "samples": [{"op": op.id, "wall": r["wall"], "elapsed": r["elapsed"],
                     "ref": r["ref"], "scale": k}
                    for (op, r, _), k in zip(results, scales)],
        "setup": [{"wall": wall, "ref": ref} for wall, ref in setup],
        "records": op_records(workload, results, scales)}, indent=1) + "\n")
    print(f"{workload}: {len(results)} ops in {passes} passes; "
          f"latency_tail_s is p{pct:.1f} of {len(results)} ops, with "
          f"{TAIL_BEYOND} beyond it; speed scale median "
          f"{statistics.median(scales):.3f} (min {min(scales):.3f}, "
          f"max {max(scales):.3f})")
    print("unscaled: " + json.dumps(unscaled))
    return metrics, results, []


def per_layer(workload, ops, checker, out_name, spans_name):
    """One untraced and two traced runs of every op, interleaved op by op so
    that drift in machine speed hits all three alike."""
    runs = ([], [], [])
    for op in ops:
        for run, traced in zip(runs, (False, True, True)):
            result = run_op(op, traced)
            run.append((op, result, checker(op, result)))
    plain, traced = runs[0], runs[1:]
    problems = []
    summaries = [[spans.summarize(r["spans"]) for _, r, _ in run]
                 for run in traced]
    for op, first, second in zip(ops, *summaries):
        if (first["calls"], first["counters"]) != \
                (second["calls"], second["counters"]):
            problems.append((op, "call counts differ between two traced runs"))
    # Counts repeat exactly (checked above); times are the mean of the runs.
    first, second = (spans.layer_metrics(s) for s in summaries)
    metrics = {name: ((value + second[name][0]) / 2 if unit == "s" else value,
                      unit) for name, (value, unit) in first.items()}
    untraced_wall = sum(r["wall"] for _, r, _ in plain)
    traced_wall = sum(r["wall"] for _, r, _ in traced[0] + traced[1]) / 2
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    module_self = sum(metrics[f"{m}.self_s"][0] for m in spans.MODULES)
    Path(out_name).write_text(json.dumps({
        "untraced": op_records(workload, plain),
        "traced": op_records(workload, traced[0] + traced[1])},
        indent=1) + "\n")
    with gzip.open(spans_name, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"targets": list(spans.TARGETS),
                             "times": "ns from the op's first span"}) + "\n")
        for k, run in enumerate(traced):
            for op, r, _ in run:
                fh.write(json.dumps(dict(op=op.id, run=k,
                                         **spans.to_json(r["spans"]))) + "\n")
    print(f"{workload}: traced op wall {traced_wall:.3f} s, per-module self "
          f"time {module_self:.3f} s, untraced op wall {untraced_wall:.3f} s")
    return metrics, [item for run in runs for item in run], problems


def record():
    """Rewrite expected.json from the program at the default seed."""
    table = {"seed": DEFAULT_SEED, "digests": {}, "keys": {}, "ops": {}}
    import_program()
    ok = True
    for workload in workloads.WORKLOADS:
        inputs, ops, digest = workloads.build(
            workload, DEFAULT_SEED, f"{OUT}/inputs/{workload}-{DEFAULT_SEED}")
        write_inputs(inputs)
        table["digests"][workload] = digest
        for op in ops:
            if op.error_path or op.key in table["ops"]:
                continue
            result = run_op(op)
            if result["exc"] or result["code"] != op.expect:
                print(f"cannot record {workload}/{op.id}: exit "
                      f"{result['code']} {result['exc'] or ''}",
                      file=sys.stderr)
                ok = False
            table["ops"][op.key] = result["sha256"]
            if result["keys"]:
                keys = table["keys"].setdefault(op.command, result["keys"])
                ok &= keys == result["keys"]
    if not ok:
        return 1
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table['ops'])} reports in {EXPECTED.name}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json at the default seed")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    pin_cpu()
    if not Path("src/toricqh/cli.py").is_file():
        print("error: run from a toricqh checkout (src/toricqh is missing)",
              file=sys.stderr)
        return 2
    Path(OUT).mkdir(parents=True, exist_ok=True)
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")

    setups = [set_up(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    (inputs, ops, digest), table = setups[-1][2:]
    if args.seed == table["seed"] and digest != table["digests"][args.workload]:
        print(f"error: the input set of seed {args.seed} has digest {digest}, "
              f"not the recorded {table['digests'][args.workload]}",
              file=sys.stderr)
        return 2
    exact = args.seed == table["seed"]

    def checker(op, result):
        return check(op, result, table, exact)

    write_inputs(inputs)
    import_program()
    stem = f"{OUT}/{args.workload}-seed{args.seed}"
    if args.trace:
        # Every round has the same number of ops; trace the first one.
        first_round = ops[:len(ops) // workloads.ROUNDS[args.workload]]
        metrics, results, problems = per_layer(
            args.workload, first_round, checker, f"{stem}-trace-ops.json",
            f"{stem}-spans.jsonl.gz")
    else:
        # In slot order a workload's heavy ops sit next to each other, where
        # one slow phase of the machine hits them all and moves the tail; a
        # shuffle fixed by the seed spreads them over the run.
        order = random.Random(args.seed).sample(ops, len(ops))
        metrics, results, problems = end_to_end(
            args.workload, order, args.seconds, checker,
            [s[:2] for s in setups], f"{stem}-ops.json")
    failures = [(op, reason) for op, _, reason in results if reason]
    for op, reason in sorted({(op.id, reason) for op, reason in
                              failures + problems}):
        print(f"FAILED {op}: {reason}")
    # The error-path ops check the CLI's exit-code contract; their failures
    # count in ``failed`` but do not make the computed results incorrect.
    wrong = [op for op, _ in failures + problems if not op.error_path]
    print(json.dumps({"correct": not wrong, "attempted": len(results),
                      "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
