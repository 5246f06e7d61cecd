"""Benchmark of the `cullis compute` path: text -> parse -> det -> format.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) as a closed loop on one thread: the
next operation starts when the previous one returns, and the run repeats
whole rounds of the workload's operations until --seconds have passed.
Afterwards every distinct output is checked against references computed
by reference.py, which does not use `cullis`. The last line of stdout is
one JSON object: correct, attempted, failed and metrics. With --trace 0
the metrics are end to end; with --trace 1 they are per layer, from
alternating untraced and traced rounds for --seconds and one counting
round. Progress and tables go to stderr; the run's details are also
written to perfbench/results/<workload>-seed<seed>-trace<0|1>.json.
"""
from time import perf_counter

_T0 = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WARMUP = (("1\n2\n", "int"), ("1/2\n3\n", "rational"), ("0.5\n2\n", "float"))

# (layer, metrics) in the order they are reported with --trace 1
LAYER_METRICS = (
    ("matrix.multiply", ("calls", "self_s", "mults", "adds")),
    ("matrix.skew_kernel_matrix", ("self_s",)),
    ("matrix.transpose", ("self_s",)),
    ("matrix.pad", ("self_s",)),
    ("matrix.Matrix", ("calls", "entries", "self_s")),
    ("pfaffian.SkewMatrix", ("self_s",)),
    ("pfaffian.pfaffian", ("self_s", "mults", "adds")),
    ("determinant.det", ("self_s",)),
    ("determinant.det_by_minors", ("calls", "self_s", "mults")),
    ("matio.parse", ("calls", "self_s")),
    ("scalars.format", ("self_s", "digits")),
)


class Program:
    """The modules of the program under test, looked up by attribute at
    every call so that the tracer's replacements take effect."""

    def __init__(self):
        import cullis
        import cullis.bench
        import cullis.determinant
        import cullis.matio
        import cullis.scalars

        if os.path.dirname(os.path.abspath(cullis.__file__)) != os.path.join(SRC, "cullis"):
            raise ImportError(f"cullis was imported from {cullis.__file__}, not from {SRC}")
        self.cullis = cullis
        self.bench = cullis.bench
        self.determinant = cullis.determinant
        self.matio = cullis.matio
        self.Matrix = cullis.Matrix
        self.domain_classes = [c for c in vars(cullis.scalars).values()
                               if isinstance(c, type) and issubclass(c, cullis.Domain)]


def operation(program, text, scalar, verify):
    """What `cullis compute [--verify]` does between reading the file and
    printing: returns the formatted value and the oracle verdict (True for
    a match, "skipped" over the cost cap, None when not asked)."""
    x = program.matio.parse_matrix_text(text, scalar)
    value = program.cullis.det(x)
    out = x.domain.format(value)
    verdict = None
    if verify:
        bench = program.bench
        if bench.minors_cost(x.rows, x.cols) > bench.VERIFY_CAP:
            verdict = "skipped"
        else:
            verdict = x.domain.eq(value, program.cullis.det_by_minors(x))
    return out, verdict


def counted_operation(program, tracer, item):
    """The same operation with det and the oracle on a counting copy of the
    domain, so the tracer attributes mults/adds to the layers."""
    x = program.matio.parse_matrix_text(item.text, item.scalar)
    dom = x.domain.counting()
    x = program.Matrix(dom, x.data)
    tracer.counter = dom
    try:
        value = program.cullis.det(x)
        if item.verify:
            program.cullis.det_by_minors(x)
        dom.format(value)
    finally:
        tracer.counter = None


def load_program():
    """Import cullis from this checkout and run one tiny operation per
    domain. Returns the program and the seconds since the process's first
    statement."""
    sys.path.insert(0, SRC)
    try:
        program = Program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        sys.exit(2)
    for text, tag in WARMUP:
        operation(program, text, tag, False)
    return program, perf_counter() - _T0


def run_rounds(program, items, seconds, tracer=None):
    """Whole rounds over `items` until `seconds` have passed (at least one)."""
    outputs, failures = set(), {}
    op_times, walls = [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        r0 = perf_counter()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.op = i
            t = perf_counter()
            try:
                out, verdict = operation(program, item.text, item.scalar, item.verify)
            except Exception as exc:  # a failed operation is counted, not fatal
                op_times.append(perf_counter() - t)
                failed += 1
                failures[i] = f"{type(exc).__name__}: {str(exc)[:100]}"
            else:
                op_times.append(perf_counter() - t)
                outputs.add((i, out, verdict))
        walls.append(perf_counter() - r0)
        attempted += len(items)
        if perf_counter() - start >= seconds:
            break
    return {"outputs": outputs, "failures": failures, "op_times": op_times,
            "walls": walls, "attempted": attempted, "failed": failed}


def check_outputs(items, outputs):
    """Check every distinct (item, output, verdict); returns the problems."""
    import reference

    refs = {}
    problems = []
    for i, out, verdict in sorted(outputs, key=lambda o: o[0]):
        if i not in refs:
            refs[i] = reference.reference(items[i])
        problem = reference.check(items[i], refs[i], out, verdict)
        if problem is not None:
            problems.append(f"{items[i].label} (#{i}): {problem}")
    return problems


def report_failures(items, failures):
    for i, what in sorted(failures.items()):
        known = items[i].known_fault
        note = f"known fault in {known}" if known else "UNEXPECTED"
        print(f"failed ({note}): {items[i].label} (#{i}): {what}", file=sys.stderr)


def metric(value, unit):
    return {"value": value, "unit": unit}


def fastest_times(parts, count):
    """Each operation's fastest repetition over the rounds in `parts`.

    The machine's speed drifts by 20-50% over tens of seconds; the fastest
    repetition is the estimate of an operation's time that the drift
    disturbs least."""
    times = [t for part in parts for t in part["op_times"]]
    return [min(times[i::count]) for i in range(count)]


def timed_run(program, items, seconds, setup_s):
    import resource
    from statistics import median

    res = run_rounds(program, items, seconds)
    # read before the reference code (numpy) is imported
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fastest = fastest_times([res], len(items))
    metrics = {
        "wall_s": metric(sum(fastest), "s"),
        "op_p50_ms": metric(median(fastest) * 1000, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    print(f"{len(res['walls'])} rounds of {len(items)} operations, round wall "
          + " ".join(f"{w:.3f}" for w in res["walls"]) + " s", file=sys.stderr)
    return res, metrics


def traced_run(program, items, seconds):
    """Untraced and traced rounds alternate for `seconds`, so the overhead
    ratio compares rounds run at the same time; then one counting round."""
    from statistics import median

    from spans import Tracer

    tracer = Tracer()
    rounds, plain, traced = [], [], []

    def plain_round():
        plain.append(run_rounds(program, items, 0))

    def traced_round():
        tracer.install(program)
        try:
            traced.append(run_rounds(program, items, 0, tracer))
        finally:
            tracer.uninstall()
        rounds.append(tracer.take())

    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        # which of the pair runs first alternates, so neither gains from going second
        pair = (plain_round, traced_round) if len(plain) % 2 == 0 else (traced_round, plain_round)
        for one_round in pair:
            one_round()
    tracer.install(program)
    try:
        for i, item in enumerate(items):
            tracer.op = i
            try:
                counted_operation(program, tracer, item)
            except Exception:  # the same failures as in the timed rounds
                pass
        counts = tracer.take()["layers"]
    finally:
        tracer.uninstall()

    res = {"outputs": set(), "failures": {}, "op_times": [], "walls": [],
           "attempted": 0, "failed": 0}
    for part in plain + traced:
        res["outputs"] |= part["outputs"]
        res["failures"].update(part["failures"])
        res["attempted"] += part["attempted"]
        res["failed"] += part["failed"]
    for part in traced:
        res["walls"] += part["walls"]
        res["op_times"] += part["op_times"]

    empty = {"calls": 0, "self_s": 0.0, "mults": 0, "adds": 0, "extra": 0}
    last = rounds[-1]["layers"]
    metrics = {}
    for layer, names in LAYER_METRICS:
        for name in names:
            if name == "self_s":
                value = median(r["layers"].get(layer, empty)["self_s"] for r in rounds)
                metrics[f"{layer}.self_s"] = metric(value, "s")
            elif name in ("mults", "adds"):
                metrics[f"{layer}.{name}"] = metric(counts.get(layer, empty)[name], "count")
            else:
                key = "calls" if name == "calls" else "extra"
                metrics[f"{layer}.{name}"] = metric(last.get(layer, empty).get(key, 0), "count")
    traced_wall = sum(fastest_times(traced, len(items)))
    untraced_wall = sum(fastest_times(plain, len(items)))
    metrics["trace.overhead_ratio"] = metric(traced_wall / untraced_wall, "ratio")
    print(f"tracing overhead over {len(rounds)} round pairs: traced {traced_wall:.3f} s "
          f"vs untraced {untraced_wall:.3f} s per round = x{traced_wall / untraced_wall:.3f}",
          file=sys.stderr)
    res["stages"] = stage_table(items, rounds)
    print_stage_table(res["stages"])
    return res, metrics


STAGES = (("parse", "matio.parse"), ("Matrix", "matrix.Matrix"),
          ("transp", "matrix.transpose"), ("pad", "matrix.pad"),
          ("kernel", "matrix.skew_kernel_matrix"), ("multiply", "matrix.multiply"),
          ("Skew", "pfaffian.SkewMatrix"), ("pfaff", "pfaffian.pfaffian"),
          ("det", "determinant.det"), ("minors", "determinant.det_by_minors"),
          ("format", "scalars.format"))


def stage_table(items, rounds):
    """Mean self seconds per traced round, per item label (a workload of
    many small items is grouped by domain, format and oracle), per layer."""
    groups = {}
    for i, item in enumerate(items):
        words = item.label.split()
        if len(items) > 50:
            words = [w for w in words if "x" not in w]
        groups.setdefault(" ".join(words), []).append(i)
    return {label: {stage: sum(r["by_op"].get((i, layer), 0.0) for r in rounds for i in idx)
                    / len(rounds) for stage, layer in STAGES}
            for label, idx in groups.items()}


def print_stage_table(table):
    print(f"{'operation':<28}" + "".join(f"{s:>9}" for s, _ in STAGES) + f"{'total':>9}",
          file=sys.stderr)
    for label, cells in table.items():
        print(f"{label:<28}" + "".join(f"{c:9.4f}" for c in cells.values())
              + f"{sum(cells.values()):9.4f}", file=sys.stderr)


def save(args, res, problems, result) -> None:
    """Keep the run's details next to the benchmark, for the README's tables."""
    import json
    import platform

    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "round_walls": res["walls"],
              "op_times": res["op_times"],
              "failures": {str(i): f for i, f in res["failures"].items()},
              "problems": problems[:20], "stages": res.get("stages"), "result": result}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)


def main(argv=None):
    program, setup_s = load_program()
    # the benchmark's own modules load after the timed set-up
    import argparse
    import json

    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    items = WORKLOADS[args.workload](args.seed)
    if args.trace:
        res, metrics = traced_run(program, items, args.seconds)
    else:
        res, metrics = timed_run(program, items, args.seconds, setup_s)
    report_failures(items, res["failures"])
    problems = check_outputs(items, res["outputs"])
    for p in problems[:20]:
        print(f"WRONG: {p}", file=sys.stderr)
    print(f"checked {len(res['outputs'])} distinct outputs: "
          f"{len(problems)} wrong", file=sys.stderr)
    result = {"correct": not problems, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    save(args, res, problems, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
