"""Benchmark for oddlength: three fixed workloads, checked results, and a
traced run that times each layer from outside the program.

    python3 bench/run.py --workload classical|exceptional|verify-cli
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from src/.
Every workload is a closed loop with one caller and fixed inputs, so the
seed is accepted but changes nothing.  A run makes the whole rounds of its
workload that fill --seconds on the reference box (at least one), each in a
fresh interpreter, checks every result outside the timed region, and prints
one JSON line last: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1.
Spans, counters and E8 checkpoints go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import checks  # noqa: E402  (sibling module)
from tracing import Tracer, patched  # noqa: E402

# cold interpreter starts per run; setup_s is their median.  They are spread
# before, between and after the rounds, so that one slow spell of the
# machine moves the median less.
COLD_STARTS = 8

CLASSICAL = (
    ("A7", "odd-length"),
    ("B8", "odd-length"),
    ("C8", "odd-length"),
    ("D8", "odd-length"),
    ("B8", "B-4var"),
    ("D8", "D-bivar"),
)
EXCEPTIONAL = ("F4", "E6", "E7")
E8_WORKERS = 2
E8_PARTS = 240
# identities run by `oddlength verify --type <family> --max-n 7`
VERIFY_FAMILIES = {"A": 16, "B": 38, "C": 6, "D": 26}
VERIFY_MAX_N = 7
# operations in one round: a group/profile result or one identity
OPS_PER_ROUND = {
    "classical": len(CLASSICAL),
    "exceptional": len(EXCEPTIONAL) + 2,  # and the E8 run and its resume
    "verify-cli": sum(VERIFY_FAMILIES.values()),
}

GROUPS = {
    "classical": ["A7", "B8", "C8", "D8"],
    "exceptional": ["F4", "E6", "E7", "E8"],
    "verify-cli": [f"A{n}" for n in range(1, VERIFY_MAX_N)]
    + [f"B{n}" for n in range(1, VERIFY_MAX_N + 1)]
    + [f"C{n}" for n in range(2, VERIFY_MAX_N + 1)]
    + [f"D{n}" for n in range(2, VERIFY_MAX_N + 1)],
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "elements_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SIGNED_GF_LAYERS = CLASSICAL + tuple((g, "odd-length") for g in EXCEPTIONAL)

PER_LAYER_UNITS = {
    "cartan.root_system_s": "s",
    "weyl.transversal_chain_s": "s",
    "engine.split_build_s.E7": "s",
    "engine.split_build_s.E8": "s",
    "engine.parts_per_s.E8": "1/s",
    "engine.worker_cpu_s.E8": "s",
    "engine.parent_cpu_s.E8": "s",
    "engine.checkpoint_write_s": "s",
    "engine.checkpoint_writes": "count",
    "engine.checkpoint_bytes": "bytes",
    "engine.resume_s.E8": "s",
    **{f"gf.signed_gf_s.{g}.{p}": "s" for g, p in SIGNED_GF_LAYERS},
    "gf.python_window_elements": "count",
    "gf.python_window_s": "s",
    **{f"gf.identity_s.{fam}": "s" for fam in VERIFY_FAMILIES},
    "gf.closed_form_s": "s",
    "poly.expand_product_s": "s",
    "poly.expand_product_calls": "count",
    "stats.predicate_calls": "count",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


def cpu_of(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def cpu_seconds() -> float:
    """CPU of this process and of its children that have ended."""
    return cpu_of(resource.RUSAGE_SELF) + cpu_of(resource.RUSAGE_CHILDREN)


def attempt(results: dict, key, fn) -> None:
    """Run one operation; a failure is recorded and counted, not fatal."""
    try:
        results[key] = fn()
    except Exception as exc:
        results[key] = exc
        print(f"operation {key} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# workloads: one round each, timed by the caller

def _span(tr: Tracer | None, name: str, **attrs):
    """A span of tr, or nothing in a plain round."""
    return contextlib.nullcontext({}) if tr is None else tr.span(name, **attrs)


def _signed_gf(ol, tr, group, profile):
    with _span(tr, "gf.signed_gf", group=group, profile=profile):
        return ol.signed_gf(ol.CartanType.parse(group), profile)


def classical_round(ol, tr) -> dict:
    results: dict = {}
    for group, profile in CLASSICAL:
        attempt(results, (group, profile), lambda: _signed_gf(ol, tr, group, profile))
    return results


def _e8(ol, tr, path: Path, resume: bool):
    own, kids = cpu_of(resource.RUSAGE_SELF), cpu_of(resource.RUSAGE_CHILDREN)
    with _span(tr, "engine.run_partitioned", group="E8", resume=resume) as rec:
        res = ol.run_partitioned(
            ol.CartanType.parse("E8"),
            workers=E8_WORKERS,
            checkpoint_path=str(path),
            resume=resume,
            allow_large=True,
        )
    rec["parent_cpu_s"] = cpu_of(resource.RUSAGE_SELF) - own
    rec["worker_cpu_s"] = cpu_of(resource.RUSAGE_CHILDREN) - kids
    return res


def _remove_checkpoint(path: Path) -> None:
    for p in (path, Path(str(path) + ".tmp")):
        p.unlink(missing_ok=True)


def exceptional_round(ol, tr) -> dict:
    results: dict = {}
    for group in EXCEPTIONAL:
        attempt(results, (group, "odd-length"), lambda: _signed_gf(ol, tr, group, "odd-length"))
    path = OUT / f"e8-{os.getpid()}.ckpt"
    _remove_checkpoint(path)
    try:
        attempt(results, ("E8", "run"), lambda: _e8(ol, tr, path, resume=False))
        attempt(results, ("E8", "resume"), lambda: _e8(ol, tr, path, resume=True))
    finally:
        _remove_checkpoint(path)
    return results


@dataclass
class VerifyRun:
    exit_code: int
    stdout: str
    reports: list


def _verify_family(ol, tr, family: str) -> VerifyRun:
    cli = ol.cli
    reports: list = []
    suite = cli.verification_suite

    def capture(*args, **kwargs):
        out = suite(*args, **kwargs)
        reports.extend(out)
        return out

    buf = io.StringIO()
    argv = ["verify", "--type", family, "--max-n", str(VERIFY_MAX_N)]
    with patched([(cli, "verification_suite", capture)]), contextlib.redirect_stdout(buf):
        with _span(tr, "cli.main", family=family):
            code = cli.main(argv)
    return VerifyRun(code, buf.getvalue(), reports)


def verify_round(ol, tr) -> dict:
    results: dict = {}
    for family in VERIFY_FAMILIES:
        attempt(results, family, lambda: _verify_family(ol, tr, family))
    return results


ROUNDS = {
    "classical": classical_round,
    "exceptional": exceptional_round,
    "verify-cli": verify_round,
}

# Seconds one round takes on the 2-core reference box (see README).  A run
# makes the number of whole rounds that fill --seconds at these figures, so
# every run does the same work however fast the machine is at the moment.
NOMINAL_ROUND_S = {"classical": 19.0, "exceptional": 15.0, "verify-cli": 7.5}


def round_count(workload: str, seconds: float, trace: bool) -> int:
    """Whole rounds for one run; with tracing, plain and traced alternate
    and a run has as many of one as of the other."""
    per = NOMINAL_ROUND_S[workload] * (2 if trace else 1)
    return max(1, round(seconds / per)) * (2 if trace else 1)


# ---------------------------------------------------------------------------
# operation counts and elements, from the benchmark's own group orders

_UNIVARIATE = re.compile(r"odd-length ([A-G]\d+)$")
_RESTRICTED = re.compile(r"\S+ ([A-G]\d+) full = \S+$")
_MULTIVARIATE = re.compile(r"(\S+) n=(\d+)$")


def identity_elements(name: str) -> int:
    """Group elements one verify identity enumerates."""
    if m := _UNIVARIATE.match(name):
        return checks.order(m[1])
    if m := _RESTRICTED.match(name):
        return 2 * checks.order(m[1])  # the full series and the restricted one
    if m := _MULTIVARIATE.match(name):
        return checks.order(("D" if m[1].startswith("D-") else "B") + m[2])
    raise ValueError(f"unrecognised identity {name!r}")


def tally(workload: str, results: dict) -> tuple[int, int, int]:
    """(attempted, failed, elements enumerated) for one round."""
    if workload == "verify-cli":
        attempted = failed = elements = 0
        for family, expected in VERIFY_FAMILIES.items():
            run = results[family]
            attempted += expected
            if isinstance(run, Exception):
                failed += expected
                continue
            ok = sum(1 for r in run.reports if r.ok)
            failed += expected - min(ok, expected)
            elements += sum(identity_elements(r.name) for r in run.reports)
        return attempted, failed, elements
    done = [key for key, r in results.items() if not isinstance(r, Exception)]
    elements = sum(checks.order(group) for group, what in done if what != "resume")
    return len(results), len(results) - len(done), elements


# ---------------------------------------------------------------------------
# checks, made outside the timed region

def check_round(workload: str, results: dict, ol) -> list[str]:
    """Problems found in one round's results; failed operations are skipped."""
    problems: list[str] = []
    ok = {k: v for k, v in results.items() if not isinstance(v, Exception)}
    if workload == "verify-cli":
        for family, run in ok.items():
            expected = VERIFY_FAMILIES[family]
            if run.exit_code != 0:
                problems.append(f"verify --type {family}: exit code {run.exit_code}")
            last = run.stdout.strip().splitlines()[-1:] or [""]
            if last[0] != f"{expected}/{expected} identities hold":
                problems.append(f"verify --type {family}: last line {last[0]!r}")
            if len(run.reports) != expected:
                problems.append(f"verify --type {family}: {len(run.reports)} identities")
        if "B" in ok:
            b4var = [r for r in ok["B"].reports if r.name == "B-4var n=5"]
            if not b4var:
                problems.append("verify --type B ran no B-4var n=5 identity")
            brute = checks.brute_b4var(5)
            problems += checks.check_equal(
                brute, checks.reference_product("B5", "B-4var"), "brute-force B-4var n=5"
            )
            for rep in b4var:
                problems += checks.check_equal(dict(rep.computed.terms), brute, "verify B-4var n=5")
        return problems

    for (group, what), res in ok.items():
        label = f"{group} {what}"
        if what == "resume":
            first = ok.get(("E8", "run"))
            if first is not None and res.poly.dumps() != first.poly.dumps():
                problems.append("E8 resumed result is not byte-identical to the first run")
            if res.parts_done != tuple(range(E8_PARTS)):
                problems.append("E8 resume does not report every part done")
            continue
        terms = dict(res.poly.terms)
        problems += checks.check_elements(res.elements, group)
        if what in ("odd-length", "run"):
            problems += checks.check_univariate(terms, group)
        else:
            problems += checks.check_vanishes(terms, label)
        reference = checks.reference_product(group, "odd-length" if what == "run" else what)
        if reference is not None:
            problems += checks.check_equal(terms, reference, label)
        elif group == "C8":
            from oddlength.engine import odd_length_gf_by_roots

            by_roots = odd_length_gf_by_roots(ol.root_system(ol.CartanType.parse("C8")))
            problems += checks.check_equal(terms, dict(by_roots.terms), "C8 against the root engine")
        else:
            problems.append(f"{label}: no independent reference")
    return problems


# ---------------------------------------------------------------------------
# set-up

def cold_setup_times(groups: list[str], count: int) -> list[float]:
    """Wall times of fresh interpreters that import oddlength and build root
    systems and transversal chains for the workload's groups."""
    code = (
        "from oddlength import CartanType, root_system\n"
        "from oddlength.weyl import transversal_chain\n"
        f"for g in {groups!r}:\n"
        "    transversal_chain(root_system(CartanType.parse(g)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def warm_setup(ol, groups: list[str], tr: Tracer | None) -> None:
    from oddlength.weyl import transversal_chain

    for g in groups:
        with _span(tr, "cartan.root_system", group=g):
            system = ol.root_system(ol.CartanType.parse(g))
        with _span(tr, "weyl.transversal_chain", group=g):
            transversal_chain(system)


# ---------------------------------------------------------------------------
# tracing: wrappers installed where the program's callers look them up

@contextlib.contextmanager
def instrumented(tr: Tracer):
    import oddlength.engine as engine
    import oddlength.gf as gf

    write = engine.Checkpoint.write

    def traced_write(self, path):
        with tr.span("engine.checkpoint_write") as rec:
            write(self, path)
        rec["bytes"] = os.path.getsize(path)

    predicate = {name: tr.counted("stats.predicate", getattr(gf, name))
                 for name in ("is_unimodal", "is_chessboard", "is_good_chessboard")}
    with patched([
        (engine.Checkpoint, "write", traced_write),
        (gf, "atomic_stats", tr.counted("stats.atomic_stats", gf.atomic_stats)),
        (gf, "expand_product", tr.counted("poly.expand_product", gf.expand_product)),
        (gf, "predicted_gf", tr.counted("gf.closed_form", gf.predicted_gf)),
        (gf, "predicted_multivariate", tr.counted("gf.closed_form", gf.predicted_multivariate)),
        *((gf, name, fn) for name, fn in predicate.items()),
    ]):
        yield


def round_layers(workload: str, tr: Tracer, results: dict, wall: float) -> dict[str, float]:
    m: dict[str, float] = {
        "cartan.root_system_s": tr.total("cartan.root_system"),
        "weyl.transversal_chain_s": tr.total("weyl.transversal_chain"),
    }
    for g in ("E7", "E8"):
        m[f"engine.split_build_s.{g}"] = tr.total("engine.split_build", group=g)
    for g, p in SIGNED_GF_LAYERS:
        m[f"gf.signed_gf_s.{g}.{p}"] = tr.total("gf.signed_gf", group=g, profile=p)
    writes = [s for s in tr.spans if s["name"] == "engine.checkpoint_write"]
    m["engine.checkpoint_write_s"] = tr.total("engine.checkpoint_write")
    m["engine.checkpoint_writes"] = len(writes)
    m["engine.checkpoint_bytes"] = sum(s["bytes"] for s in writes)
    runs = [s for s in tr.spans if s["name"] == "engine.run_partitioned" and not s["resume"]]
    ends = sorted(s["end"] for s in writes if runs and s["parent"] == runs[0]["id"])
    m["engine.parts_per_s.E8"] = (len(ends) - 1) / (ends[-1] - ends[0]) if len(ends) > 1 else 0.0
    m["engine.worker_cpu_s.E8"] = runs[0]["worker_cpu_s"] if runs else 0.0
    m["engine.parent_cpu_s.E8"] = runs[0]["parent_cpu_s"] if runs else 0.0
    m["engine.resume_s.E8"] = tr.total("engine.run_partitioned", resume=True)
    m["gf.python_window_elements"] = tr.calls["stats.atomic_stats"]
    m["gf.python_window_s"] = tr.busy["stats.atomic_stats"]
    identity = 0.0
    for family in VERIFY_FAMILIES:
        run = results.get(family)
        spent = sum(r.elapsed for r in run.reports) if isinstance(run, VerifyRun) else 0.0
        m[f"gf.identity_s.{family}"] = spent
        identity += spent
    m["gf.closed_form_s"] = tr.busy["gf.closed_form"]
    m["poly.expand_product_s"] = tr.busy["poly.expand_product"]
    m["poly.expand_product_calls"] = tr.calls["poly.expand_product"]
    m["stats.predicate_calls"] = tr.calls["stats.predicate"]
    m["cli.overhead_s"] = wall - identity if workload == "verify-cli" else 0.0
    return m


def split_build_probes(ol, tr: Tracer) -> None:
    """run_partitioned with no parts builds only the suffix matrices."""
    for g in ("E7", "E8"):
        with tr.span("engine.split_build", group=g):
            ol.run_partitioned(ol.CartanType.parse(g), parts=[], allow_large=True)


def one_round(workload: str, index: int, traced: bool, trace_path: Path) -> dict:
    """Set up, time one round, check it; runs in its own interpreter, so
    every round starts from the same state, as a user's process does."""
    import oddlength as ol
    import oddlength.cli  # noqa: F401  (verify-cli calls ol.cli.main)

    tr = Tracer(f"round{index}") if traced else None
    warm_setup(ol, GROUPS[workload], tr)
    with instrumented(tr) if traced else contextlib.nullcontext():
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with _span(tr, "bench.round"):
            results = ROUNDS[workload](ol, tr)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"round {index}{' traced' if traced else ''}: wall {wall:.3f} s, cpu {cpu:.3f} s",
          file=sys.stderr)
    attempted, failed, elements = tally(workload, results)
    summary = {
        "wall": wall,
        "cpu": cpu,
        "peak_rss_mb": max(own, kids) / 1024,  # ru_maxrss is in KiB on Linux
        "attempted": attempted,
        "failed": failed,
        "elements": elements,
        "problems": check_round(workload, results, ol),
    }
    if traced:
        if workload == "exceptional":
            split_build_probes(ol, tr)
        summary["layers"] = round_layers(workload, tr, results, wall)
        with open(trace_path, "a") as fh:
            tr.write(fh)
    return summary


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for the harness; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=23.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one round in this interpreter and print its summary
    parser.add_argument("--round", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = args.workload
    trace_path = OUT / f"trace-{workload}-{args.seed}.jsonl"

    sys.path.insert(0, str(SRC))
    try:
        import oddlength  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import oddlength from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.round is not None:
        print(json.dumps(one_round(workload, args.round, bool(args.trace), trace_path)))
        return 0
    if args.trace:
        trace_path.write_text("")

    ops = OPS_PER_ROUND[workload]
    groups = GROUPS[workload]
    n_rounds = round_count(workload, args.seconds, bool(args.trace))
    # one untimed start first, so that no timed one finds the file cache cold
    cold_setup_times(groups, 1)
    setup_times: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    plain: list[dict] = []
    traced: list[dict] = []
    for index in range(n_rounds):
        setup_times += cold_setup_times(groups, len(range(index, COLD_STARTS, n_rounds + 1)))
        is_traced = bool(args.trace) and index % 2 == 1
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--trace", str(int(is_traced)), "--round", str(index)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            attempted, failed = attempted + ops, failed + ops
            problems.append(f"round {index} exited with code {proc.returncode} and no result")
            continue
        summary = json.loads(lines[-1])
        attempted += summary["attempted"]
        failed += summary["failed"]
        problems += summary["problems"]
        (traced if is_traced else plain).append(summary)
    setup_times += cold_setup_times(groups, len(range(n_rounds, COLD_STARTS, n_rounds + 1)))

    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace and plain and traced:
        values = {k: statistics.median(t["layers"][k] for t in traced)
                  for k in traced[0]["layers"]}
        values["trace.overhead_s"] = (
            statistics.median(t["wall"] for t in traced)
            - statistics.median(r["wall"] for r in plain)
        )
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    elif plain and not args.trace:
        # means over the rounds: every round does the same work, and the
        # mean uses all of it where a median of two or three rounds keeps one
        values = {
            "wall_s": statistics.fmean(r["wall"] for r in plain),
            "cpu_s": statistics.fmean(r["cpu"] for r in plain),
            "elements_per_s": sum(r["elements"] for r in plain) / sum(r["wall"] for r in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    else:
        metrics = {}

    correct = not problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
