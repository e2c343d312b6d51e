"""The ccontrol benchmark: compile time, compiled-code throughput and
interpretive overhead.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
One process, no threads. Workloads (BENCHMARK.json says why each):

- ``compile-corpus``: rounds that compile all five corpus entries both ways
  from source text, each followed, outside the compile timing, by a check
  of that round's outputs on the corpus membership queries;
- ``search-compiled``: seeded generate-and-test queries on programs
  compiled during set-up;
- ``interpreted``: the corpus queries on the encoded interpreter and the
  futamura residual.

Every query runs each of its ways (naive, ``mi_run``, encoded, classic,
futamura) and every answer multiset is checked against a first-principles
reference and the naive engine. Compiled outputs are fingerprinted on every
compile and once more in a child process under another ``PYTHONHASHSEED``.

Times are scaled to a reference machine speed (see ``SpeedProbe``); the raw
times are printed beside them. Human-readable rows go to stdout, each
starting with ``#``; the last line is the JSON result. Results, and with
``--trace 1`` the per-layer trace, are written under ``perfbench/results``.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout has no package to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import pipeline
import queries as Q
from pipeline import CORPUS, ROOT, VARIANTS
from tracer import Tracer

WORKLOADS = ("compile-corpus", "search-compiled", "interpreted")
SETUP_REPEATS = 5
# far above any query's count, so a runaway search ends within the run
MAX_INFERENCES = 200_000
FIXTURE = ROOT / "tests" / "fixtures" / "queens_parity.json"
PARITY_QUERY = "queens([1,2,3,4,5,6],Q)"
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
clock = time.perf_counter


# --- machine speed ------------------------------------------------------------

# probe time on a 2-CPU Intel Xeon virtual machine, Python 3.11.7, with no
# other load
PROBE_REF_S = 0.006


def _probe_tree(k):
    return (k,) if k < 2 else (k, _probe_tree(k - 1), _probe_tree(k - 2))


def _probe_work():
    total = 0
    for _ in range(60):
        stack = [_probe_tree(12)]
        seen = {}
        while stack:
            x = stack.pop()
            seen[x[0]] = seen.get(x[0], 0) + 1
            stack.extend(x[1:])
        total += len(seen)
    return total


class SpeedProbe:
    """Scales measured times to a reference machine speed.

    On a machine shared with other tenants the speed of interpreted code
    drifts: on a 2-CPU Xeon virtual machine the median time of one compiled
    query differed by 75% between processes started a minute apart, so no
    statistic inside one run could make runs agree. A fixed piece of interpreter-bound work that does not
    touch ccontrol (building and walking trees of tuples) is timed after
    every measured piece, and the piece's time ``t`` is reported as
    ``t * PROBE_REF_S / p``, with ``p`` the mean probe time before and after
    it. The same processes then agreed within 8%. A change to ccontrol
    moves ``t`` and not ``p``, so it shows in full.
    """

    def __init__(self):
        self.samples = [self._probe()]

    @staticmethod
    def _probe():
        t0 = clock()
        _probe_work()
        return clock() - t0

    def measure(self, fn, *args):
        """(result, raw seconds, seconds at reference speed) of fn(*args)."""
        t0 = clock()
        result = fn(*args)
        raw = clock() - t0
        before = self.samples[-1]
        self.samples.append(self._probe())
        return result, raw, raw * 2 * PROBE_REF_S / (before + self.samples[-1])


# --- checks -------------------------------------------------------------------

class Tally:
    """Checks attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(what)
        return ok


@dataclass
class Record:
    entry: str
    variant: str
    query: str
    seconds: float                   # at reference speed
    raw_s: float
    inferences: int


@dataclass
class Round:
    records: list
    compile_s: float = 0.0           # compile-corpus only, at reference speed
    compile_raw_s: float = 0.0
    stage_s: dict = field(default_factory=dict)

    @property
    def query_s(self):
        return sum(r.seconds for r in self.records)


def run_queries(lib, compiled, queries, tally, probe):
    """Run each query each of its ways, checking every answer multiset
    against the reference and the naive engine's."""
    limits = lib.engine.Limits(max_inferences=MAX_INFERENCES)
    records = []
    for q in queries:
        c = compiled[q.entry]
        naive_key = None
        for variant in q.variants:
            what = f"{variant} {q.text}"
            try:
                res, raw, norm = probe.measure(pipeline.run_query, lib, c,
                                               variant, q.goal, limits)
            except Exception as e:    # a crash is one failed run, not fatal
                tally.check(False, f"{what}: {type(e).__name__}: {e}")
                continue
            key = Q.answer_key(lib.terms, res)
            if variant == "naive":
                naive_key = key
            tally.check(res.exhausted, f"{what}: hit the inference limit")
            tally.check(key == q.expected,
                        f"{what}: answers differ from the reference")
            if naive_key is not None and variant != "naive":
                tally.check(key == naive_key,
                            f"{what}: answers differ from the naive engine")
            records.append(Record(q.entry, variant, q.text, norm, raw,
                                  res.inference_count))
    return records


def compile_round(lib, texts, order, probe):
    """Compile the entries in ``order``; returns (compiled, raw seconds,
    seconds at reference speed, per-stage seconds at reference speed)."""
    compiled, raw_s, norm_s, stage_s = {}, 0.0, 0.0, {}
    for name in order:
        c = pipeline.compile_entry(lib, name, texts[name][0], texts[name][1],
                                   probe.measure)
        compiled[name] = c
        for stage, (raw, norm) in c.stage_s.items():
            raw_s += raw
            norm_s += norm
            stage_s[stage] = stage_s.get(stage, 0.0) + norm
    return compiled, raw_s, norm_s, stage_s


def check_compiled(lib, compiled, baseline, tally):
    """Closedness, and the fingerprint equal to the first compile's."""
    for name, c in compiled.items():
        tally.check(c.closed, f"{name}: futamura residual is not closed")
        tally.check(pipeline.fingerprint(lib, c) == baseline[name],
                    f"{name}: fingerprint differs between compiles")


def check_round(records, first, lib, tally, parity):
    """Per-round checks on inference counts: the same total as the first
    round, classic and futamura totals within the ``cc pipeline``
    tolerance, and the recorded queens parity fixture."""
    total = sum(r.inferences for r in records)
    if first is not None:
        tally.check(total == sum(r.inferences for r in first),
                    f"inference total changed between rounds: {total}")
    by_query = {}
    for r in records:
        by_query.setdefault(r.query, {})[r.variant] = r.inferences
    both = [v for v in by_query.values() if "classic" in v and "futamura" in v]
    classic = sum(v["classic"] for v in both)
    futamura = sum(v["futamura"] for v in both)
    deviation = abs(classic - futamura) / max(classic, futamura, 1)
    tally.check(deviation <= lib.tolerance,
                f"classic {classic} vs futamura {futamura} inferences: "
                f"deviation {deviation:.2%} above {lib.tolerance:.0%}")
    if PARITY_QUERY in by_query:
        got = by_query[PARITY_QUERY]
        tally.check(parity is not None
                    and got.get("classic") == parity["direct_inferences"]
                    and got.get("futamura") ==
                    parity["specialized_inferences"],
                    f"{PARITY_QUERY}: classic/futamura inferences "
                    f"{got.get('classic')}/{got.get('futamura')} differ from "
                    f"{FIXTURE.relative_to(ROOT)}")


def hash_seed_fingerprints(baseline, tally):
    """Compile the corpus in a child process under another hash seed and
    compare fingerprints."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(pipeline.__file__).resolve())],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=150)
        other = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as e:
        tally.check(False, f"fingerprint child under PYTHONHASHSEED="
                           f"{env['PYTHONHASHSEED']} failed: {e}")
        return
    for name in CORPUS:
        tally.check(other.get(name) == baseline[name],
                    f"{name}: fingerprint differs under PYTHONHASHSEED="
                    f"{env['PYTHONHASHSEED']}")


def load_parity(tally):
    try:
        return json.loads(FIXTURE.read_text())["n6"]
    except (OSError, ValueError, KeyError) as e:
        tally.check(False, f"cannot read {FIXTURE.relative_to(ROOT)}: {e}")
        return None


# --- statistics -------------------------------------------------------------

median = statistics.median


def tail(samples):
    """The highest of p50..p99.9 with at least ten samples beyond it, as
    (percentile, value), or None when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, xs[min(n - 1, math.ceil(p / 100 * n) - 1)]
    return None


def describe(samples, unit):
    t = tail(samples)
    spread = f"p{t[0]:g} {t[1]:.6g}" if t else "no tail (n < 20)"
    return f"median {median(samples):.6g} {unit}, {spread}, n={len(samples)}"


def kips(records, variant, raw=False):
    """Thousands of inferences per second run ``variant``: the geometric
    mean over its queries of each query's rate at its median time.

    Each query counts once, so the drift of the machine during one long
    query (queens on 6 columns takes seconds) does not set the figure.
    """
    runs = {}
    for r in records:
        if r.variant == variant and r.inferences:
            runs.setdefault(r.query, (r.inferences, []))[1].append(
                r.raw_s if raw else r.seconds)
    return math.exp(statistics.fmean(math.log(n / median(ts) / 1000)
                                     for n, ts in runs.values()))


def interp_overhead(rounds):
    """Encoded over futamura time on the queries both ran, per entry and as
    a geometric mean over entries."""
    cost = {}
    for rnd in rounds:
        both = {r.query for r in rnd.records if r.variant == "encoded"}
        for r in rnd.records:
            if r.query in both and r.variant in ("encoded", "futamura"):
                row = cost.setdefault(r.entry, {"encoded": 0.0,
                                                "futamura": 0.0})
                row[r.variant] += r.seconds
    ratios = {e: row["encoded"] / row["futamura"] for e, row in cost.items()}
    geomean = math.exp(statistics.fmean(math.log(x) for x in ratios.values()))
    return cost, ratios, geomean


def environment(args):
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": platform.machine(), "cpu": model or platform.processor(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random")}


# --- the per-layer run --------------------------------------------------------

def _micro(fn, items, repeats=7):
    """Median microseconds per call of ``fn`` over ``items`` (raw time)."""
    per_call = []
    for _ in range(repeats):
        t0 = clock()
        for x in items:
            fn(x)
        per_call.append((clock() - t0) / len(items) * 1e6)
    return median(per_call)


def microbenchmarks(lib, rng, compiled):
    """Seeded terms through unify, Substitution.apply and rename_apart."""
    T = lib.terms
    counter = iter(range(10**9))

    def term(depth):
        r = rng.random()
        if depth == 0 or r < 0.2:
            return T.Const(rng.randint(0, 9)) if r < 0.1 \
                else T.Var(f"X{next(counter)}")
        if r < 0.6:
            return T.mklist([term(depth - 1)
                             for _ in range(rng.randint(1, 4))])
        return T.Struct(rng.choice("fgh"),
                        tuple(term(depth - 1)
                              for _ in range(rng.randint(1, 3))))

    def generalize(t):
        if isinstance(t, T.Struct) and rng.random() < 0.8:
            return T.Struct(t.functor, tuple(generalize(a) for a in t.args))
        return T.Var(f"Y{next(counter)}")

    pairs = [(t, generalize(t)) for t in (term(4) for _ in range(200))]
    subs = [(T.unify(g, t), g) for t, g in pairs]
    clauses = [c for x in compiled.values()
               for c in x.classic.program.clauses + x.program.clauses]
    clauses = rng.sample(clauses, min(200, len(clauses)))
    fresh = T.FreshNames()
    return {
        "terms.unify_us": _micro(lambda p: T.unify(*p), pairs),
        "terms.apply_us": _micro(lambda sg: sg[0].apply(sg[1]), subs),
        "terms.rename_apart_us": _micro(lambda c: T.rename_apart(c, fresh),
                                        clauses),
    }


def layer_metrics(tr, compiled, micro, unfold_rate, interp_x, overhead):
    s = tr.stats
    futamura = [c.futamura for c in compiled.values()]
    classic = [c.classic.program for c in compiled.values()]

    def arity(programs):
        return statistics.fmean(len(cl.head.args)
                                for p in programs for cl in p.clauses)

    m = {}
    for name in ("terms.unify", "terms.apply", "terms.rename_apart",
                 "terms.clauses_for", "engine.solve", "engine.builtin",
                 "absdom.abstract_unify_with_clause", "absdom.canonicalize",
                 "multi.try_fold", "multi.case_split",
                 "policy.select_conjunct"):
        m[f"{name}.calls"] = s[name].calls
        m[f"{name}.s"] = s[name].self_s
    for name in ("terms.parse", "analysis.analyze", "metaint.mi_run",
                 "metaint.build_tables", "metaint.encode",
                 "pd.specialize_encoded", "pd.check_closedness",
                 "synthesis.synthesize"):
        m[f"{name}.s"] = s[name].self_s
    for name in ("terms.unify", "multi.try_fold"):
        m[f"{name}.success_frac"] = s[name].succeeded / s[name].calls
    m.update(micro)
    m["engine.inferences"] = s["engine.solve"].inferences
    m["analysis.states"] = sum(len(c.graph.states) for c in compiled.values())
    m["analysis.transitions"] = sum(len(c.graph.transitions)
                                    for c in compiled.values())
    m["metaint.mi_run.inferences"] = s["metaint.mi_run"].inferences
    m["metaint.encoded_clauses"] = sum(len(c.encoded.clauses)
                                       for c in compiled.values())
    m["pd.unfold_steps"] = sum(f.unfold_steps for f in futamura)
    m["pd.unfold_steps_per_s"] = unfold_rate
    m["pd.memo_entries"] = sum(len(f.memo) for f in futamura)
    m["pd.residual_clauses"] = sum(len(f.program.clauses) for f in futamura)
    m["pd.mean_head_arity"] = arity([f.program for f in futamura])
    m["synthesis.clauses"] = sum(len(p.clauses) for p in classic)
    m["synthesis.mean_head_arity"] = arity(classic)
    m["interp_overhead_x"] = interp_x
    m["trace.overhead_frac"] = overhead
    return m


# --- the workload run ---------------------------------------------------------

def run(args, out):
    """Set up, measure, check; returns (metrics, tally, report rows)."""
    tally = Tally()
    rng = random.Random(args.seed)
    t0 = clock()
    lib = pipeline.import_ccontrol()
    import_raw = clock() - t0
    probe = SpeedProbe()
    import_s = import_raw * PROBE_REF_S / probe.samples[0]
    texts = {name: pipeline.corpus_texts(lib, name) for name in CORPUS}
    parity = load_parity(tally)

    if args.workload == "compile-corpus":
        queries = Q.check_queries(texts, CORPUS)
    elif args.workload == "search-compiled":
        queries = Q.search_queries(rng)
    else:
        queries = Q.interpreted_queries(rng, texts, CORPUS)

    def parse_queries():
        for q in queries:
            q.goal = lib.terms.parse_goal(q.text)

    # set-up: parse the queries, compile every entry both ways; repeated,
    # and the median reported, so that work moved into set-up shows
    setup_s, setup_raw, setup_compile_s, unfold_rates = [], [], [], []
    baseline = None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        _, raw, norm = probe.measure(parse_queries)
        compiled, craw, cnorm, stage_s = compile_round(lib, texts, CORPUS,
                                                       probe)
        setup_s.append(norm + cnorm)
        setup_raw.append(raw + craw)
        setup_compile_s.append(cnorm)
        unfold_rates.append(sum(c.futamura.unfold_steps
                                for c in compiled.values())
                            / stage_s["specialize"])
        if baseline is None:
            baseline = {n: pipeline.fingerprint(lib, c)
                        for n, c in compiled.items()}
        check_compiled(lib, compiled, baseline, tally)

    def one_round():
        gc.collect()
        if args.workload != "compile-corpus":
            return Round(run_queries(lib, compiled, queries, tally, probe))
        order = list(CORPUS)
        rng.shuffle(order)
        fresh, raw, norm, stage_s = compile_round(lib, texts, order, probe)
        check_compiled(lib, fresh, baseline, tally)
        return Round(run_queries(lib, fresh, queries, tally, probe), norm,
                     raw, stage_s)

    rounds = []
    deadline = clock() + args.seconds
    while True:
        rounds.append(one_round())
        check_round(rounds[-1].records,
                    rounds[0].records if len(rounds) > 1 else None,
                    lib, tally, parity)
        if clock() >= deadline:
            break

    if args.workload == "compile-corpus":
        compile_s = [r.compile_s for r in rounds]
        compile_raw = [r.compile_raw_s for r in rounds]
    else:
        compile_s = setup_compile_s
        compile_raw = None
    records = [r for rnd in rounds for r in rnd.records]
    metrics = {
        "setup_s": import_s + median(setup_s),
        "compile_s": median(compile_s),
        "compiled_clauses": pipeline.compiled_clauses(compiled),
        "infer_total": sum(r.inferences for r in rounds[0].records),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    for variant in VARIANTS:
        metrics[f"{variant}_kips"] = kips(records, variant)

    rows = ["speed probe: " + describe(probe.samples, "s") +
            f" (reference {PROBE_REF_S} s); times below are at the "
            "reference speed, raw ones in brackets",
            f"{len(rounds)} rounds; " + describe(
                [r.compile_s + r.query_s for r in rounds], "s"),
            f"setup: import {import_s:.4f} s; " + describe(setup_s, "s") +
            f" [raw median {median(setup_raw):.6g} s]",
            "compile round: " + describe(compile_s, "s") +
            (f" [raw median {median(compile_raw):.6g} s]"
             if compile_raw else " (the compiles during set-up)")]
    if args.workload == "compile-corpus":
        for stage in rounds[0].stage_s:
            rows.append(f"  stage {stage}: " + describe(
                [r.stage_s[stage] for r in rounds], "s"))
    for variant in VARIANTS:
        rs = [r for r in records if r.variant == variant]
        raw = kips(records, variant, raw=True)
        rows.append(f"{variant}: {metrics[f'{variant}_kips']:.4f} kinf/s "
                    f"[raw {raw:.4f}]; per-query time " +
                    describe([r.seconds for r in rs], "s"))
        for entry in CORPUS:
            er = [r for r in rs if r.entry == entry]
            if er:
                rows.append(f"  {entry:<10} {len(er):>4} runs "
                            f"{sum(r.inferences for r in er) // len(rounds):>7}"
                            f" inf/round {kips(er, variant):8.4f} kinf/s")
    cost, ratios, geomean = interp_overhead(rounds)
    for entry, ratio in ratios.items():
        rows.append(f"interp_overhead_x {entry:<10} {ratio:7.3f} "
                    f"(encoded {cost[entry]['encoded']:.4f} s / futamura "
                    f"{cost[entry]['futamura']:.4f} s on the same queries)")
    rows.append(f"interp_overhead_x geomean {geomean:.3f} over "
                f"{len(ratios)} entries")

    if args.trace:
        micro = microbenchmarks(lib, rng, compiled)
        tr = Tracer()
        tr.install()
        try:
            gc.collect()
            if args.workload == "compile-corpus":
                window = one_round()
                window_s = window.compile_s + window.query_s
            else:
                traced, _, norm, _ = compile_round(lib, texts, CORPUS, probe)
                window_s = norm + Round(run_queries(lib, traced, queries,
                                                   tally, probe)).query_s
        finally:
            tr.uninstall()
        untraced_s = median(compile_s) + median(r.query_s for r in rounds)
        overhead = window_s / untraced_s - 1
        metrics = layer_metrics(tr, compiled, micro, median(unfold_rates),
                                geomean, overhead)
        rows.append(f"traced window {window_s:.4f} s vs untraced "
                    f"{untraced_s:.4f} s: overhead {overhead:.2%}")
        out["trace"] = tr.as_dict()

    hash_seed_fingerprints(baseline, tally)
    out["rounds"] = len(rounds)
    per_query = {}
    for r in records:
        per_query.setdefault((r.query, r.variant), []).append(r)
    out["queries"] = [
        {"query": q, "variant": v, "entry": rs[0].entry,
         "inferences": rs[0].inferences, "runs": len(rs),
         "median_s": median(r.seconds for r in rs),
         "raw_median_s": median(r.raw_s for r in rs)}
        for (q, v), rs in per_query.items()]
    out["interp_overhead"] = {"per_entry": ratios, "geomean": geomean,
                              "base_s": cost}
    return metrics, tally, rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    layers = json.loads((HERE / "layers.json").read_text())["groups"]
    mapped = [m for g in layers for m in g["layer_metrics"]]
    if sorted(mapped) != sorted(d["name"] for d in spec["per_layer"]):
        print("perfbench: layers.json does not list each per_layer metric "
              "of BENCHMARK.json once", file=sys.stderr)
        return 1
    env = environment(args)
    out = {"environment": env, "layers": layers}
    try:
        metrics, tally, rows = run(args, out)
    except pipeline.SourceMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    except Exception:                 # a crash outside a query run
        traceback.print_exc()
        return 1
    if set(metrics) != {d["name"] for d in declared}:
        print("perfbench: metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1

    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for row in rows:
        print("# " + row)
    for msg in tally.messages:
        print("# FAILED " + msg)
    print(f"# failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} checks)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]],
                                "unit": d["unit"]} for d in declared},
    }
    out.update(result, failures=tally.messages)
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
