"""The three benchmark workloads, their output checks, and the runner.

Every workload runs in this one process.  Each set-up re-imports the engine
package from scratch, so no module-level or per-spec cache (the catalog's
`lru_cache`, `ManifoldSpec._cache`, `hodge._BASIS_INDEX_CACHE`, or any cache
added later) survives from one timed unit into the next.

- catalog_report: one unit is `akhodge report --json` over the 7 catalog
  entries, from a cold engine.
- ladder_table: one unit is `hodge_table(spec, "delbar")` on the n = 5
  H(1,2)-type ladder nilmanifold, from a cold engine.
- form_queries: one unit is one pass over a fixed, seeded stream of single
  calls (`primitive_decompose`, `harmonic_membership`) on pre-built specs;
  the engine stays warm between passes, as a long-lived caller's would.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter, namedtuple
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import spans
from spans import Tracer

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

ENGINE_MODULES = ("scalars", "exterior", "model", "operators", "linalg",
                  "hodge", "catalog", "reports", "cli")

CHECK_IDS = ("prop31", "prop32", "cor33", "thm34", "cor35", "prop41",
             "lemma44", "lemma46", "lemma47", "lemma48", "cw_identity",
             "hd_lefschetz", "h10_identity", "inclusion21")

# (name, unit, better) of the metrics a user of the engine sees
END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, the end-to-end metric it should move) of the traced run
PER_LAYER = (
    ("model.parse_spec.s", "s", "setup_s on every workload"),
    ("model.validate.s", "s", "setup_s on every workload"),
    ("operators.operator_block.s", "s",
     "run_s on ladder_table (most) and catalog_report; setup_s on "
     "form_queries"),
    ("operators.operator_block.total_s", "s",
     "run_s on ladder_table (most) and catalog_report: block construction "
     "including star and adjoints"),
    ("operators.operator_block.calls", "count", "as operator_block.s"),
    ("operators.operator_block.builds", "count", "as operator_block.s"),
    ("operators.operator_block.hit_ratio", "ratio", "as operator_block.s"),
    ("operators.full_degree_matrix.s", "s",
     "run_s on ladder_table and catalog_report"),
    ("operators.laplacian.s", "s", "run_s on ladder_table"),
    ("operators.hodge_star.s", "s",
     "run_s on ladder_table (inside block construction); query_p50_ms on "
     "form_queries"),
    ("operators.component.s", "s", "query_p50_ms on form_queries"),
    ("linalg.matmul.s", "s", "run_s on ladder_table"),
    ("linalg.matmul.calls", "count", "run_s on ladder_table"),
    ("linalg.rref.s", "s",
     "run_s on catalog_report (most) and ladder_table; setup_s on "
     "form_queries"),
    ("linalg.rref.calls", "count", "as linalg.rref.s"),
    ("linalg.rref.cells", "count", "as linalg.rref.s"),
    ("linalg.rref.nnz", "count", "as linalg.rref.s"),
    ("linalg.rref.noop_ratio", "ratio", "as linalg.rref.s"),
    ("linalg.nullspace.s", "s", "as linalg.rref.s"),
    ("linalg.solve_map.s", "s", "setup_s on form_queries"),
    ("linalg.apply.s", "s",
     "query_p50_ms on form_queries; run_s on catalog_report"),
    ("hodge.subspace.s", "s",
     "run_s on catalog_report; query_p50_ms on form_queries"),
    ("hodge.harmonic_space.s", "s", "run_s on ladder_table and "
     "catalog_report"),
    ("hodge.harmonic_space.calls", "count", "as harmonic_space.s"),
    ("hodge.primitive_subspace.s", "s", "run_s on catalog_report"),
    ("hodge.verify.s", "s", "run_s on catalog_report only"),
    ("hodge.verify.total_s", "s", "run_s on catalog_report only"),
    ("hodge.verify.calls", "count", "run_s on catalog_report only"),
    ("hodge.verify.repeat_ratio", "ratio", "run_s on catalog_report only"),
    *((f"hodge.verify.{check}.{stat}", "s", "run_s on catalog_report only")
      for check in CHECK_IDS for stat in ("s", "total_s")),
    ("hodge.primitive_decompose.s", "s",
     "query_p50_ms and queries_per_s on form_queries"),
    ("hodge.harmonic_membership.s", "s",
     "query_p50_ms and queries_per_s on form_queries"),
    ("reports.run_expected_item.s", "s", "run_s on catalog_report"),
    ("cli.main.s", "s", "run_s on catalog_report"),
    ("query_p99_ms", "ms",
     "tail latency on form_queries (untraced units of the traced run)"),
    ("trace.outside_s", "s", "time of the unit in no traced layer"),
    ("trace.spans", "count", "spans recorded per unit"),
    ("trace.run_s", "s", "traced run_s"),
    ("trace.overhead_s", "s", "traced run_s minus untraced run_s"),
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fresh_engine() -> SimpleNamespace:
    """Import the engine anew; every cache it holds starts empty."""
    for name in [m for m in sys.modules
                 if m == "akhodge" or m.startswith("akhodge.")]:
        del sys.modules[name]
    package = importlib.import_module("akhodge")
    return SimpleNamespace(package=package, **{
        name: importlib.import_module("akhodge." + name)
        for name in ENGINE_MODULES})


# ---------------------------------------------------------------------------
# Tracing: which engine functions are layers

def install_tracer(eng, tracer: Tracer) -> dict:
    """Wrap the public functions of model, operators, linalg, hodge, reports
    and cli.  Returns the counters the hooks fill."""
    counts = {"block_keys": set(), "verify_keys": set(), "verify_repeats": 0,
              "rref_cells": 0, "rref_nnz": 0, "rref_noop": 0}
    modules = [eng.package] + [getattr(eng, m) for m in ENGINE_MODULES]
    Matrix = eng.linalg.Matrix

    def block_hook(args, result):
        counts["block_keys"].add((id(args[0]), args[1], tuple(args[2])))

    def rref_hook(args, result):
        matrix = args[0]
        counts["rref_cells"] += matrix.rows * matrix.cols
        counts["rref_nnz"] += sum(1 for row in matrix.data for a in row if a)
        if result[0].data == matrix.data:
            counts["rref_noop"] += 1

    def verify_hook(args, result):
        key = (id(args[0]), args[1])
        if key in counts["verify_keys"]:
            counts["verify_repeats"] += 1
        counts["verify_keys"].add(key)

    def fn(home, name, layer, hook=None):
        tracer.wrap_function(modules, home, name, layer, hook)

    fn(eng.model, "parse_spec", "model.parse_spec")
    fn(eng.model, "validate", "model.validate")
    fn(eng.operators, "operator_block", "operators.operator_block",
       block_hook)
    fn(eng.operators, "full_degree_matrix", "operators.full_degree_matrix")
    for name in ("laplacian_matrix", "laplacian_d_matrix", "laplacian_d_full"):
        fn(eng.operators, name, "operators.laplacian")
    fn(eng.operators, "hodge_star", "operators.hodge_star")
    fn(eng.operators, "component", "operators.component")
    tracer.wrap_method(Matrix, "__mul__", "linalg.matmul")
    tracer.wrap_method(Matrix, "rref", "linalg.rref", rref_hook)
    tracer.wrap_method(Matrix, "nullspace", "linalg.nullspace")
    tracer.wrap_method(Matrix, "solve_map", "linalg.solve_map")
    tracer.wrap_method(Matrix, "apply", "linalg.apply")
    for name in ("member", "coordinates_of", "intersect", "sum",
                 "image_under", "contains"):
        tracer.wrap_method(eng.hodge.Subspace, name, "hodge.subspace")
    fn(eng.hodge, "harmonic_space", "hodge.harmonic_space")
    fn(eng.hodge, "primitive_subspace", "hodge.primitive_subspace")
    fn(eng.hodge, "verify", lambda args: f"hodge.verify.{args[1]}",
       verify_hook)
    fn(eng.hodge, "primitive_decompose", "hodge.primitive_decompose")
    fn(eng.hodge, "harmonic_membership", "hodge.harmonic_membership")
    fn(eng.reports, "run_expected_item", "reports.run_expected_item")
    fn(eng.cli, "main", "cli.main")
    fn(eng.cli, "cmd_report", "cli.main")
    return counts


def raw_layers(tracer: Tracer, counts: dict, elapsed_s: float) -> Counter:
    """Additive per-layer totals of one traced phase lasting elapsed_s."""
    totals = tracer.layer_totals()
    raw = Counter()
    for stat, suffix in (("self", ".s"), ("calls", ".calls"),
                         ("outer", ".total_s")):
        for layer, value in totals[stat].items():
            raw[layer + suffix] += value
    raw["trace.outside_s"] = elapsed_s - totals["top"]
    raw["trace.spans"] = len(tracer.spans)
    raw["operators.operator_block.builds"] = len(counts["block_keys"])
    raw["block_hits"] = (raw["operators.operator_block.calls"]
                         - len(counts["block_keys"]))
    for key in ("verify_repeats", "rref_cells", "rref_nnz", "rref_noop"):
        raw[key] = counts[key]
    return raw


def layer_metrics(raw: Counter) -> dict:
    """Every PER_LAYER metric except the trace.run_s/overhead_s pair."""
    def ratio(num, den):
        return raw[num] / raw[den] if raw[den] else 0.0

    verify = [f"hodge.verify.{check}" for check in CHECK_IDS]
    out = {
        "operators.operator_block.hit_ratio":
            ratio("block_hits", "operators.operator_block.calls"),
        "linalg.rref.cells": raw["rref_cells"],
        "linalg.rref.nnz": raw["rref_nnz"],
        "linalg.rref.noop_ratio": ratio("rref_noop", "linalg.rref.calls"),
        "hodge.verify.s": sum(raw[v + ".s"] for v in verify),
        "hodge.verify.total_s": sum(raw[v + ".total_s"] for v in verify),
        "hodge.verify.calls": sum(raw[v + ".calls"] for v in verify),
    }
    out["hodge.verify.repeat_ratio"] = (
        raw["verify_repeats"] / out["hodge.verify.calls"]
        if out["hodge.verify.calls"] else 0.0)
    for name, _, _ in PER_LAYER:
        out.setdefault(name, raw[name])
    return out


# ---------------------------------------------------------------------------
# Inputs

def ladder_spec(n: int) -> str:
    """DSL of the H(1,2)-type nilmanifold of complex dimension n: d(phi1)
    and d(phi2) as in specs/h12_t3.akspec, every other phi closed, and
    omega = sum_j (i/2) phi^{j jbar}."""
    coframe = " ".join(f"phi{j}" for j in range(1, n + 1))
    omega = " + ".join(f"1/2*i*phi{{{j},{j}}}" for j in range(1, n + 1))
    return (f"manifold ladder_n{n}\n"
            f"dim {2 * n}\n"
            f"coframe {coframe}\n"
            "d phi1 = -1/4*i*phi{23,} - 1/4*i*phi{2,3} + 1/4*i*phi{3,2}"
            " - 1/4*i*phi{,23}\n"
            "d phi2 = -1/4*i*phi{13,} - 1/4*i*phi{1,3} + 1/4*i*phi{3,1}"
            " - 1/4*i*phi{,13}\n"
            f"omega = {omega}\n")


# complex dimension of each catalog entry the query stream uses
QUERY_SPECS = {"torus6_g": 3, "iwasawa_ak": 3, "h12_t3": 4, "kt4": 2}
DECOMPOSE_SPECS = ("iwasawa_ak", "h12_t3", "kt4")
MEMBERSHIP_SPECS = ("torus6_g", "iwasawa_ak", "h12_t3", "kt4")
QUERIES_PER_CLASS = 3
TERMS_PER_FORM = 3


def _random_form(rng: random.Random, n: int, p: int, q: int) -> str:
    monomials = [(holo, anti)
                 for holo in itertools.combinations(range(1, n + 1), p)
                 for anti in itertools.combinations(range(1, n + 1), q)]
    chosen = sorted(rng.sample(monomials, min(TERMS_PER_FORM,
                                              len(monomials))))
    text = ""
    for holo, anti in chosen:
        num = rng.choice((1, 2, 3))
        den = rng.choice((1, 2, 4))
        unit = "*i" if rng.random() < 0.5 else ""
        sign = "-" if rng.random() < 0.5 else "+"
        mono = "phi{%s,%s}" % ("".join(map(str, holo)),
                               "".join(map(str, anti)))
        term = f"{num}/{den}{unit}*{mono}"
        if text:
            text += f" {sign} {term}"
        else:
            text = ("-" if sign == "-" else "") + term
    return text


def make_queries(seed: int) -> list[tuple[str, str, str, str]]:
    """The seeded query stream: (kind, catalog key, operator, form text).

    Every (kind, spec, operator, bidegree) class gets the same number of
    queries, so the work mix is the same for every seed; the seed picks the
    monomials, coefficients and order."""
    rng = random.Random(seed)
    queries = []
    for key in DECOMPOSE_SPECS:
        n = QUERY_SPECS[key]
        for p, q in itertools.product(range(n + 1), repeat=2):
            for _ in range(QUERIES_PER_CLASS):
                queries.append(("decompose", key, "",
                                _random_form(rng, n, p, q)))
    for key in MEMBERSHIP_SPECS:
        n = QUERY_SPECS[key]
        for op in ("del", "delbar"):
            for p, q in itertools.product(range(n + 1), repeat=2):
                for _ in range(QUERIES_PER_CLASS):
                    queries.append(("membership", key, op,
                                    _random_form(rng, n, p, q)))
    rng.shuffle(queries)
    return queries


def stream_digest(queries) -> str:
    return sha256("".join("|".join(query) + "\n" for query in queries))


# ---------------------------------------------------------------------------
# Workloads.  unit() returns (per-operation seconds, per-operation outputs);
# an operation that raises yields its exception as output.  check() returns,
# for the outputs of one unit, a problem string or None per operation.


class CatalogReport:
    name = "catalog_report"
    cold = True
    setup_repeats = 7

    def inputs(self, seed: int):
        argv = ["report", "--json"]
        return argv, sha256(" ".join(argv))

    def setup(self, eng, argv):
        for key in eng.catalog.keys():
            eng.model.validate(eng.catalog.get(key).spec)
        return argv

    def unit(self, eng, argv):
        buf = io.StringIO()
        start = _now()
        try:
            with redirect_stdout(buf):
                code = eng.cli.main(argv)
            out = (code, buf.getvalue())
        except Exception as exc:  # counted as a failed operation
            out = exc
        return [_now() - start], [out]

    def check(self, eng, argv, outputs):
        if isinstance(outputs[0], Exception):
            return [None]  # reported by the caller
        code, text = outputs[0]
        if code != 0:
            return [f"report exit code {code}"]
        if sha256(text) != EXPECTED["catalog_report_sha256"]:
            return ["report output differs from the recorded sha256"]
        summary = json.loads(text)["summary"]
        if summary != {"fails": 0, "errata_flagged": 2}:
            return [f"report summary {summary}"]
        return [None]


class LadderTable:
    name = "ladder_table"
    cold = True
    setup_repeats = 7
    n = 5

    def inputs(self, seed: int):
        text = ladder_spec(self.n)
        return text, sha256(text)

    def setup(self, eng, text):
        spec = eng.model.parse_spec(text)
        if not (eng.model.validate(spec).ok and spec.almost_kahler
                and spec.unitary_scale == 1):
            raise RuntimeError("ladder spec is not almost-Kahler at scale 1")
        return spec

    def unit(self, eng, spec):
        start = _now()
        try:
            out = eng.hodge.hodge_table(spec, "delbar")
        except Exception as exc:  # counted as a failed operation
            out = exc
        return [_now() - start], [out]

    def check(self, eng, spec, outputs):
        want = EXPECTED["ladder_table"].get(str(self.n))
        return [None if outputs[0] == want
                else f"table {outputs[0]} != recorded {want}"]


class FormQueries:
    name = "form_queries"
    cold = False
    setup_repeats = 2

    def inputs(self, seed: int):
        queries = make_queries(seed)
        return queries, stream_digest(queries)

    def setup(self, eng, queries):
        specs = {key: eng.catalog.get(key).spec for key in QUERY_SPECS}
        for key, spec in specs.items():
            if spec.n != QUERY_SPECS[key]:
                raise RuntimeError(f"{key} has n = {spec.n}")
            eng.model.validate(spec)
        # build every decomposition solver through the public entry point
        for key in DECOMPOSE_SPECS:
            spec = specs[key]
            for pq in itertools.product(range(spec.n + 1), repeat=2):
                first = eng.exterior.basis_of(pq, spec.n)[0]
                eng.hodge.primitive_decompose(
                    spec, eng.exterior.Form.monomial(first))
        return [(kind, specs[key], op,
                 eng.model.parse_form(text, specs[key].n, specs[key].symbols))
                for kind, key, op, text in queries]

    def unit(self, eng, stream):
        decompose = eng.hodge.primitive_decompose
        membership = eng.hodge.harmonic_membership
        seconds = []
        outputs = []
        for kind, spec, op, form in stream:
            start = _now()
            try:
                if kind == "decompose":
                    out = decompose(spec, form)
                else:
                    out = membership(spec, op, form)
            except Exception as exc:  # counted as a failed operation
                out = exc
            seconds.append(_now() - start)
            outputs.append(out)
        return seconds, outputs

    def check(self, eng, stream, outputs):
        """Decompositions must reconstruct their input from primitive
        components; constant-coefficient memberships must agree with
        harmonic_space(...).member; symbolic ones with a re-evaluation on a
        separately parsed spec.  Oracles run on separately parsed specs, so
        they share no cache with the timed calls."""
        hodge = eng.hodge
        oracle_specs = {}

        def oracle(spec):
            if spec.name not in oracle_specs:
                oracle_specs[spec.name] = eng.model.parse_spec(
                    eng.catalog.dsl_source(spec.name))
            return oracle_specs[spec.name]

        problems = []
        for query, out in zip(stream, outputs):
            if isinstance(out, Exception):
                problems.append(None)  # reported by the caller
                continue
            try:
                problems.append(self._check_one(hodge, oracle, query, out))
            except Exception as exc:  # a crashed oracle fails the query
                problems.append(f"check raised {exc!r}")
        return problems

    @staticmethod
    def _check_one(hodge, oracle, query, out):
        kind, spec, op, form = query
        ref = oracle(spec)
        if kind == "decompose":
            if out.reconstruct(ref) != form:
                return "reconstruction differs from the input"
            for r, beta in out.components.items():
                for pq, part in beta.components().items():
                    if not hodge.primitive_subspace(ref, pq).member(part):
                        return f"component r={r} on {pq} is not primitive"
            return None
        if spec.constant_coefficient:
            want = hodge.harmonic_space(ref, op, form.pure_bidegree()
                                        ).member(form)
            got = out.status == "Harmonic"
            ok = got == want and (got or not out.witness.is_zero())
        else:
            again = hodge.harmonic_membership(ref, op, form)
            ok = (out.status in ("Harmonic", "NotHarmonic")
                  and (out.status, out.witness) == (again.status,
                                                    again.witness))
        return None if ok else f"{spec.name} {op}-membership {out.status}"


def same_output(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return False
    if hasattr(a, "components"):
        return a.components == b.components
    if hasattr(a, "status"):
        return (a.status, a.witness) == (b.status, b.witness)
    return a == b


WORKLOADS = {w.name: w for w in (CatalogReport(), LadderTable(),
                                 FormQueries())}


# ---------------------------------------------------------------------------
# The runner

# The host's speed changes by up to 1.6x within seconds, and a fixed loop of
# Fraction products shows it as much as the engine does.  So while an
# untraced run measures, a short fixed probe runs every PROBE_PERIOD_S from
# a timer signal, in the middle of whatever the engine is doing, and every
# end-to-end time is reported at a reference speed: multiplied by
# PROBE_REF_S times the mean probe speed (1 / probe seconds) over the timed
# interval, widened by PROBE_WINDOW_S on each side.  The mean of speeds,
# not of times, because work done is speed integrated over time.  The
# probes' own time is kept out of every timed interval (`_now` excludes
# it).  Raw seconds stay in the run line.
PROBE_PERIOD_S = 0.02
PROBE_WINDOW_S = 0.25
PROBE_REF_S = 0.0004


def _probe_work() -> Fraction:
    """Fixed work of the engine's kind (Fraction products and sums,
    tuple-keyed dict stores) that shares no code with the engine."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        table[(i % 97, i % 13)] = acc
    return acc


class SpeedProbe:
    """Runs `_probe_work` from a SIGALRM handler every PROBE_PERIOD_S of
    wall time and keeps a clock that leaves the probes' time out."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock, seconds)
        self.spent = 0.0  # seconds spent in the handler
        self._busy = False
        self._previous = None

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def start(self) -> None:
        self.samples.clear()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        entered = time.perf_counter()
        # a collection here would time the engine's heap, not the host
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _probe_work()
            seconds = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.samples.append((entered - self.spent, seconds))
        self.spent += time.perf_counter() - entered
        self._busy = False

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end] (clock
        times); 1.0 when no probe ran."""
        lo, hi = start - PROBE_WINDOW_S, end + PROBE_WINDOW_S
        speeds = [1 / p for t, p in self.samples if lo <= t <= hi]
        if not speeds:
            speeds = [1 / p for _, p in self.samples]
        return PROBE_REF_S * statistics.fmean(speeds) if speeds else 1.0


PROBE = SpeedProbe()
_now = PROBE.now


# one timed unit: total seconds, operations, median operation seconds,
# every operation's seconds when kept, and the clock times it began and ended
UnitTimes = namedtuple("UnitTimes", "total count median ops interval")


def _mean_unit(units: list[UnitTimes]) -> float:
    """Mean raw unit time."""
    return statistics.fmean(unit.total for unit in units)


def _p99(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


class _Run:
    """Set-ups and timed units of one run, with output comparison."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.setup_s: list[float] = []   # untraced set-up seconds
        self.setup_intervals: list[tuple[float, float]] = []  # their clock
        self.engine = None
        self.state = None
        self.reference = None   # outputs of the first unit
        self.mismatches: list[int] = []  # per operation: units that differ
        self.units_run = 0
        self.peak_rss_mb = 0.0
        self.problems: list[str] = []

    def setup(self, tracer: Tracer | None = None, keep: bool = True):
        """Fresh engine plus the workload's set-up; `keep` makes it the
        engine of the next units.  With a tracer, the tracer is installed
        right after the import and left installed.  Returns (seconds, hook
        counters or None)."""
        gc.collect()
        start = _now()
        engine = fresh_engine()
        counts = install_tracer(engine, tracer) if tracer else None
        state = self.workload.setup(engine, self.inputs)
        end = _now()
        seconds = end - start
        if tracer is None:
            self.setup_s.append(seconds)
            self.setup_intervals.append((start, end))
        if keep:
            self.engine, self.state = engine, state
        return seconds, counts

    def unit(self, tracer: Tracer | None = None):
        """One timed unit; cold workloads set up first.  Returns the
        per-operation seconds, the clock times the unit (without its
        set-up) began and ended, and, when traced, the layer totals of the
        unit and of its set-up."""
        setup_s, counts = 0.0, None
        if self.engine is None or self.workload.cold:
            setup_s, counts = self.setup(tracer)
        if tracer is not None and counts is None:
            counts = install_tracer(self.engine, tracer)
        gc.collect()
        began = _now()
        try:
            seconds, outputs = self.workload.unit(self.engine, self.state)
        finally:
            ended = _now()
            if tracer is not None:
                tracer.uninstall()
        self.units_run += 1
        if self.reference is None:
            self.reference = outputs
            self.mismatches = [0] * len(outputs)
        else:
            for i, (ref, out) in enumerate(zip(self.reference, outputs)):
                if not same_output(ref, out):
                    self.mismatches[i] += 1
                    self.problems.append("output differs from the first unit")
        raw = None
        if tracer is not None:
            raw = raw_layers(tracer, counts, setup_s + sum(seconds))
        return seconds, (began, ended), raw

    def units(self, budget_s: float, tracers: list | None = None,
              keep_ops: bool = False):
        """Timed units until the next one would overrun budget_s (at least
        one); traced when `tracers` is a list, which collects one tracer
        per unit.  Returns a UnitTimes per unit and the units' layer totals.

        Operation times are kept only with keep_ops: a run holds 100,000s of
        them, and keeping them would make peak_rss_mb grow with throughput.
        For the same reason a cold workload's peak RSS is read after its
        first unit (later units add allocator fragmentation, not engine
        memory); a warm workload's after its last, so growing caches show.
        """
        times, raws = [], []
        started = _now()
        while True:
            tracer = None
            if tracers is not None:
                tracer = Tracer()
                tracers.append(tracer)
            seconds, interval, raw = self.unit(tracer)
            if self.units_run == 1 or not self.workload.cold:
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            times.append(UnitTimes(sum(seconds), len(seconds),
                                   statistics.median(seconds),
                                   seconds if keep_ops else None,
                                   interval))
            raws.append(raw)
            if _now() - started + times[-1].total > budget_s:
                return times, raws

    def check(self) -> tuple[int, int]:
        """Check the first unit's outputs; an operation fails in every unit
        when its first output is wrong, else in each unit that differed.
        Returns (operations attempted, operations failed)."""
        problems = self.workload.check(self.engine, self.state,
                                       self.reference)
        failed = 0
        for ref, problem, differed in zip(self.reference, problems,
                                          self.mismatches):
            if isinstance(ref, Exception):
                problem = f"raised {ref!r}"
            if problem is None:
                failed += differed
            else:
                failed += self.units_run
                self.problems.append(problem)
        return self.units_run * len(self.reference), failed


def _mean(counters: list[Counter]) -> Counter:
    total = Counter()
    for counter in counters:
        total.update(counter)
    return Counter({key: value / len(counters)
                    for key, value in total.items()})


def run(name: str, seed: int, seconds: float, trace: bool,
        spans_path: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run information).

    Untraced, the timed units fill `seconds`, and set-up is sampled
    setup_repeats times before them and again after them, so that its
    median spans the run; the speed probe runs throughout.  Traced,
    untraced units fill the first half (the reference for
    trace.overhead_s) and traced units the second, with no probe.  Set-up
    is traced too: each cold unit's, or the one set-up that a warm
    workload's units share."""
    workload = WORKLOADS[name]
    inputs, digest = workload.inputs(seed)
    bench = _Run(workload, inputs)
    if trace:
        for _ in range(workload.setup_repeats):
            bench.setup()
        tracers = []
        setup_raw = Counter()
        if not workload.cold:
            # the traced set-up's engine serves every unit of this run
            tracer = Tracer()
            tracers.append(tracer)
            setup_s, counts = bench.setup(tracer)
            tracer.uninstall()
            setup_raw = raw_layers(tracer, counts, setup_s)
        plain, _ = bench.units(seconds / 2, keep_ops=True)
        traced, raws = bench.units(seconds / 2, tracers)
        values = layer_metrics(setup_raw + _mean(raws))
        values["trace.run_s"] = _mean_unit(traced)
        values["trace.overhead_s"] = values["trace.run_s"] - _mean_unit(plain)
        values["query_p99_ms"] = _p99(
            [t for unit in plain for t in unit.ops]) * 1e3
        metrics = {key: (values[key], unit) for key, unit, _ in PER_LAYER}
        if spans_path is not None:
            # a warm workload's first tracer holds only its set-up
            spans.dump(tracers[:1 if workload.cold else 2], spans_path)
    else:
        PROBE.start()
        try:
            for _ in range(workload.setup_repeats):
                bench.setup()
            plain, _ = bench.units(seconds)
            for _ in range(workload.setup_repeats):
                bench.setup(keep=False)
        finally:
            PROBE.stop()
        # unit and set-up times at the reference speed
        factors = [PROBE.factor(*unit.interval) for unit in plain]
        setups = [setup_s * PROBE.factor(*interval) for setup_s, interval
                  in zip(bench.setup_s, bench.setup_intervals)]
        values = {
            "run_s": statistics.median(unit.total * factor for unit, factor
                                       in zip(plain, factors)),
            "setup_s": statistics.median(setups),
            "queries_per_s": (sum(unit.count for unit in plain)
                              / sum(unit.total * factor for unit, factor
                                    in zip(plain, factors))),
            "query_p50_ms": statistics.median(
                unit.median * factor for unit, factor
                in zip(plain, factors)) * 1e3,
            "peak_rss_mb": bench.peak_rss_mb,
        }
        metrics = {key: (values[key], unit) for key, unit, _ in END_TO_END}
    check_started = _now()
    attempted, failed = bench.check()
    check_s = _now() - check_started
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    info = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "inputs_sha256": digest,
        "units": bench.units_run, "setups": len(bench.setup_s),
        "unit_s": [unit.total for unit in plain],
        "raw_run_s": _mean_unit(plain),
        "raw_setup_s": statistics.median(bench.setup_s),
        "scale": None if trace else statistics.fmean(factors),
        "probes": 0 if trace else len(PROBE.samples),
        "probe_s": 0.0 if trace else PROBE.spent,
        "check_s": check_s,
        "fail_ratio": failed / attempted,
        "problems": sorted(set(bench.problems))[:10],
    }
    return result, info
