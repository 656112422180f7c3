"""The dualkit benchmark: time to an exact verdict, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload criteria-algebra --seed 0 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

  criteria-algebra  acceptance criteria 1-6 and 8-11 at their stated scale
  criteria-l2g      acceptance criterion 7 (local-to-global) at its stated scale
  documents         544 ``dualkit.cli.main`` commands over seeded documents

Everything runs in this one process and thread, imported from ``src/`` of
the checkout.  A pass runs the workload's inputs once; passes repeat until
the next one would end after ``--seconds``, and at least one runs.  Every
verdict is compared with the reference recorded in ``bench/reference``.

Times are wall-clock seconds scaled to a reference host speed (see
speed.py).  ``--trace 0`` prints
the end-to-end metrics.  ``--trace 1`` runs one untraced pass, then one
traced pass (see tracing.py) in each of two fresh interpreters with
different string-hash seeds, checks that both traced passes count exactly
the same work, and prints the per-layer metrics.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
REFERENCE = os.path.join(BENCH, "reference")

# Inputs are recorded for this many seeds; --seed s uses input set s mod INPUT_SETS.
INPUT_SETS = 16
STATED_SEED = 0       # the seed the criteria state their scale at
HELD_OUT_SEED = 7     # kept out of development; confirms a claimed gain

CRITERIA = {
    "criteria-algebra": (1, 2, 3, 4, 5, 6, 8, 9, 10, 11),
    "criteria-l2g": (7,),
}
WORKLOADS = tuple(CRITERIA) + ("documents",)
SETUP_PROBES = 5
TRACE_HASH_SEEDS = ("1", "2")   # PYTHONHASHSEED of the two traced passes' interpreters
TAIL_BEYOND = 10      # the tail percentile leaves this many commands above it
L2G_DRAWS = 600       # criterion 7 draws 300 random spaces over each of two dualizers


def fail_setup(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_dualkit():
    """Import dualkit from src/ of this checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dualkit", "__init__.py")):
        fail_setup("no dualkit sources under %s; run from a dualkit checkout" % SRC)
    sys.path.insert(0, SRC)
    import dualkit
    import dualkit.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(dualkit.__file__))) != SRC:
        fail_setup("imported dualkit from %s, not from %s" % (dualkit.__file__, SRC))
    return dualkit


def read_reference(name):
    path = os.path.join(REFERENCE, name)
    if not os.path.isfile(path):
        fail_setup("missing reference %s" % path)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# --- workloads ---------------------------------------------------------------------

class CriteriaWorkload:
    """Criteria called directly, as ``corpus.run_all`` calls them."""

    def __init__(self, name, input_set):
        from dualkit import corpus
        self.input_set = input_set
        by_number = dict(enumerate(corpus.CRITERIA, start=1))
        self.criteria = [(n, by_number[n]) for n in CRITERIA[name]]
        self.reference = read_reference("criteria.json")[str(input_set)]
        self.lines = {}

    def close(self):
        pass

    def run_pass(self, criteria=None):
        """One pass: (None, attempted, failed).  The pass is the one request,
        so it has no latencies of its own; `criteria` replaces the criteria
        (with traced wrappers)."""
        failed = 0
        for number, criterion in criteria or self.criteria:
            try:
                result = criterion(seed=self.input_set)
            except Exception as exc:          # a raising criterion is a failed verdict
                self.lines[number] = "raised %r" % exc
                failed += 1
                continue
            self.lines[number] = result.line()
            if not result.passed or result.line() != self.reference[str(number)]:
                failed += 1
        return None, len(self.criteria), failed

    def mismatches(self):
        return ["criterion %d: got %r, reference %r" % (n, line, self.reference[str(n)])
                for n, line in sorted(self.lines.items()) if line != self.reference[str(n)]]


class DocumentsWorkload:
    """A closed loop: one caller, the next command after the previous returns."""

    def __init__(self, input_set):
        import docgen
        from dualkit import cli
        self.cli = cli        # cli.main is looked up per call, so tracing can wrap it
        self.input_set = input_set
        self.directory = os.path.join(WORK, "documents-s%d-%d" % (input_set, os.getpid()))
        os.makedirs(self.directory)
        self.commands = docgen.generate(input_set, self.directory)
        reference = read_reference("documents.json")[str(input_set)]
        if docgen.fingerprint(self.directory, self.commands) != reference["inputs"]:
            self.close()
            fail_setup("generated documents differ from the recorded inputs")
        self.reference = reference["outputs"]
        self.bad = []

    def close(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    def run_pass(self, criteria=None):
        """One pass: (command latencies, attempted, failed)."""
        latencies = []
        failed = 0
        self.bad = []
        for (label, argv), expected in zip(self.commands, self.reference):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:     # argparse rejects an argv
                    code = exc.code
                except Exception as exc:      # a raising command is a failed verdict
                    code = "raised %r" % exc
                latencies.append(time.perf_counter() - start)
            if verdict_digest(code, out.getvalue()) != expected:
                failed += 1
                self.bad.append(label)
        return latencies, len(self.commands), failed

    def mismatches(self):
        return ["command %r differs from the reference" % label for label in self.bad]


def verdict_digest(code, stdout):
    return hashlib.sha256(("%s\n%s" % (code, stdout)).encode()).hexdigest()[:16]


def make_workload(name, input_set):
    if name == "documents":
        return DocumentsWorkload(input_set)
    return CriteriaWorkload(name, input_set)


def run_self(flag, workload, input_set, env=None):
    """This script in a fresh interpreter with `flag`; its standard output."""
    return subprocess.run([sys.executable, os.path.abspath(__file__), flag,
                           "--workload", workload, "--seed", str(input_set)],
                          cwd=ROOT, env=env, check=True, timeout=150,
                          capture_output=True, text=True).stdout


# --- set-up -------------------------------------------------------------------------

def measure_setup(workload, input_set):
    """Measured seconds of SETUP_PROBES probes, each a fresh interpreter that
    imports dualkit, builds the workload's inputs and exits."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        run_self("--setup-probe", workload, input_set)
        samples.append(time.perf_counter() - start)
    return samples


# --- measurement ---------------------------------------------------------------------

class Pass:
    """One pass: measured wall time and latencies, and the host speed factor."""

    def __init__(self, workload, criteria=None):
        with speed.SpeedSampler() as sampler:
            start = time.perf_counter()
            self.latencies, self.attempted, self.failed = workload.run_pass(criteria)
            self.measured = time.perf_counter() - start
        self.factor = sampler.factor()
        self.wall = self.measured * self.factor
        if self.latencies is None:
            self.latencies = [self.measured]


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_timed(workload, seconds):
    """Passes until the next would end after `seconds`; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(Pass(workload))
        if time.perf_counter() - start + passes[-1].measured > seconds:
            return passes


def end_to_end(workload, seconds, setup_samples, report):
    passes = run_timed(workload, seconds)
    tails = [tail(p.latencies) for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report("times are in reference seconds (see speed.py); measured seconds in brackets")
    report("passes: %d, wall per pass: %s" % (len(passes), ", ".join(
        "%.3f s [%.3f s]" % (p.wall, p.measured) for p in passes)))
    report("requests per pass: %d; tail = p%.1f (%d beyond it)"
           % (len(passes[0].latencies), tails[0][1],
              min(TAIL_BEYOND, len(passes[0].latencies) - 1)))
    # set-up is scaled by the speed sampled during the passes that follow it:
    # a sampler running beside the probes' start-up tracked the host worse
    setup_factor = statistics.median(p.factor for p in passes)
    report("set-up samples: %s" % ", ".join("%.3f s [%.3f s]" % (s * setup_factor, s)
                                           for s in setup_samples))
    report("failed_frac: %d/%d = %.4f" % (failed, attempted, failed / attempted))
    report("one caller, one thread, no queue: no request waits, so no wait time is reported")
    metrics = {
        "setup_s": (setup_factor * statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cmd_p50_ms": (1e3 * statistics.median(p.factor * statistics.median(p.latencies)
                                               for p in passes), "ms"),
        "cmd_tail_ms": (1e3 * statistics.median(p.factor * t[0]
                                                for p, t in zip(passes, tails)), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, attempted, failed, True


# --- traced run ----------------------------------------------------------------------

def traced_pass(workload, name, input_set):
    """One traced pass in this interpreter: its per-layer summary, with the
    pass's outcome under "attempted", "failed" and "mismatches"."""
    import tracing
    tracer = tracing.Tracer()
    criteria = tracer.install(getattr(workload, "criteria", ()))
    try:
        traced = Pass(workload, criteria or None)
    finally:
        tracer.uninstall()
    summary, self_total = tracer.summary()
    for key in summary:
        if key.endswith(("_s", ".s")):
            summary[key] *= traced.factor
    draws = summary.pop("properties.check_finite_bp.draws", 0)
    useful = summary.pop("properties.check_finite_bp.useful", 0)
    summary["properties.check_finite_bp.useful_ratio"] = useful / draws if draws else 0.0
    summary["corpus.l2g.lep_yield"] = lep_yield(workload)
    summary["trace.wall_s"] = traced.wall
    summary["trace.glue_s"] = (traced.measured - self_total) * traced.factor
    summary["trace.spans"] = len(tracer.spans)
    tracer.write(os.path.join(WORK, "trace-%s-s%d-h%s.json"
                              % (name, input_set, os.environ.get("PYTHONHASHSEED", "x"))))
    return {"summary": summary, "attempted": traced.attempted, "failed": traced.failed,
            "mismatches": workload.mismatches()}


def per_layer(workload, name, input_set, report):
    """One untraced pass here, then a traced pass in each of two fresh
    interpreters with different string-hash seeds; their counts must agree."""
    untraced = Pass(workload)
    attempted, failed = untraced.attempted, untraced.failed
    runs = []
    for hash_seed in TRACE_HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = json.loads(run_self("--traced-pass", name, input_set, env).splitlines()[-1])
        attempted += out["attempted"]
        failed += out["failed"]
        for line in out["mismatches"]:
            report("traced pass (PYTHONHASHSEED=%s): %s" % (hash_seed, line))
        summary = out["summary"]
        summary["trace.untraced_wall_s"] = untraced.wall
        summary["trace.overhead_s"] = summary["trace.wall_s"] - untraced.wall
        runs.append(summary)

    counts = [{k: v for k, v in run.items() if is_count(k)} for run in runs]
    deterministic = counts[0] == counts[1]
    for key in sorted(set(counts[0]) | set(counts[1])):
        if counts[0].get(key) != counts[1].get(key):
            report("count differs between the traced passes: %s %r != %r"
                   % (key, counts[0].get(key), counts[1].get(key)))

    metrics = {}
    for metric, unit, _ in per_layer_metrics():
        values = [run.get(metric, 0) for run in runs]
        metrics[metric] = (values[0] if is_count(metric) else statistics.mean(values), unit)
    traced_wall = metrics["trace.wall_s"][0]
    glue = metrics["trace.glue_s"][0]
    report("times are in reference seconds (see speed.py)")
    report("traced passes ran with PYTHONHASHSEED=%s; counts %s"
           % (" and ".join(TRACE_HASH_SEEDS), "identical" if deterministic else "DIFFER"))
    report("traced wall %.3f s, untraced %.3f s, tracing overhead %.3f s; layer self "
           "times cover %.3f s, benchmark glue %.3f s"
           % (traced_wall, untraced.wall, traced_wall - untraced.wall, traced_wall - glue, glue))
    return metrics, attempted, failed, deterministic


def lep_yield(workload):
    """Random LEP(2) instances found by criterion 7, over the spaces it drew."""
    line = getattr(workload, "lines", {}).get(7, "")
    found = re.search(r"(\d+) random LEP\(2\) instances", line)
    return int(found.group(1)) / L2G_DRAWS if found else 0.0


COUNT_SUFFIXES = (".calls", "_out", ".bytes_in", ".bytes_out", ".constructed", "_yield",
                  "_ratio", ".spans")


def is_count(metric):
    """Counts and ratios of counts, which two passes at one seed must repeat."""
    return metric.endswith(COUNT_SUFFIXES)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in BENCHMARK.json order."""
    import tracing
    out = []
    for layer in tracing.LAYERS:
        out += [(layer + ".calls", "count"), (layer + ".self_s", "s")]
    for layer, names in tracing.TRACED.items():
        for fn in names:
            out += [("%s.%s.calls" % (layer, fn), "count"), ("%s.%s.s" % (layer, fn), "s")]
    for layer, cls, method in tracing.HOT:
        base = "%s.%s.%s" % (layer, cls, method)
        out += [(base + ".calls", "count"), (base + ".s", "s")]
    out += [("corpus.criterion_%d.s" % n, "s") for n in range(1, 12)]
    out += [("algebras.generate_vectors.vectors_out", "count"),
            ("algebras.enumerate_homs.homs_out", "count"),
            ("constrained.ccomp.functions_out", "count"),
            ("topology.FiniteTopology.constructed", "count"),
            ("fileformat.bytes_in", "bytes"),
            ("fileformat.bytes_out", "bytes"),
            ("properties.check_finite_bp.useful_ratio", "ratio"),
            ("corpus.l2g.lep_yield", "ratio"),
            ("trace.wall_s", "s"),
            ("trace.untraced_wall_s", "s"),
            ("trace.overhead_s", "s"),
            ("trace.glue_s", "s"),
            ("trace.spans", "count")]
    return [(name, unit, "higher" if unit == "ratio" else "lower") for name, unit in out]


# --- entry point -------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=STATED_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    input_set = args.seed % INPUT_SETS

    import_dualkit()
    os.makedirs(WORK, exist_ok=True)
    if args.setup_probe or args.traced_pass:
        workload = make_workload(args.workload, input_set)
        try:
            if args.traced_pass:
                print(json.dumps(traced_pass(workload, args.workload, input_set)))
        finally:
            workload.close()
        return 0

    def report(line):
        print("# " + line)

    report("workload %s, seed %d -> input set %d (stated-scale seed %d, held-out seed %d)"
           % (args.workload, args.seed, input_set, STATED_SEED, HELD_OUT_SEED))
    workload = make_workload(args.workload, input_set)
    try:
        if args.trace:
            metrics, attempted, failed, ok = per_layer(workload, args.workload, input_set, report)
        else:
            setup_samples = measure_setup(args.workload, input_set)
            metrics, attempted, failed, ok = end_to_end(workload, args.seconds,
                                                        setup_samples, report)
        for line in workload.mismatches():
            report(line)
    finally:
        workload.close()
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
