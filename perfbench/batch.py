"""The batch workloads' worker process: bulk-reach and paper-sets.

One process launches, imports the package, compiles the workload's
programs and runs one warm-up evaluation, then prints ``READY``.  The
parent times launch-to-READY as the set-up time; a ``--setup-only``
worker stops there.  Otherwise the worker runs timed evaluations for
``--seconds`` seconds and prints one ``RESULT`` line.

Every timed evaluation gets input atoms built outside the timer, over
constants never interned before (the names carry the evaluation's
index), and the timer covers program text plus those atoms, through
``parse_rules`` and ``evaluate``, to answers decoded into Python
values.  Each evaluation's answers are checked against the plain-Python
references of :mod:`gen` outside the timer.

With ``--trace 1`` the first half of the time runs untraced, the second
half traced: spans around ``parse_rules`` and the answer decoding, and
around the engine's ``check_program``, ``stratify``/``scc_schedule``,
``Database`` construction and ``evaluate_component`` (patched in
``repro.engine.evaluator`` for the traced half only), plus the
``MetricsCollector`` phase split inside the fixpoint.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import metrics as names  # noqa: E402
import procstat  # noqa: E402
import programs  # noqa: E402
import repro.engine.evaluator  # noqa: E402
from repro import evaluate, from_term, parse_query, parse_rules  # noqa: E402
from repro.observe import MetricsCollector  # noqa: E402
from repro.program import Atom  # noqa: E402
from repro.terms import Const  # noqa: E402
from repro.terms.term import id_table_size  # noqa: E402
from tracer import Tracer, null_span  # noqa: E402


def solve(span, text, facts, queries, metrics):
    """Program text + atoms -> model -> decoded answers, one per query.

    Returns ``(answers, result)``; each answer is a list of dicts of
    Python values.
    """
    with span("parser.parse"):
        program = parse_rules(text)
        parsed = [parse_query(q) for q in queries]
    result = evaluate(program, facts, metrics=metrics)
    with span("engine.decode"):
        answers = [
            [
                {name: from_term(v) for name, v in binding.items()}
                for binding in result.answers(query)
            ]
            for query in parsed
        ]
    return answers, result


class BulkReach:
    """Linear reachability over a 100k-edge follows graph."""

    name = "bulk-reach"
    min_evals = 4

    def __init__(self, seed: int) -> None:
        self.edges = gen.follow_edges(seed, gen.REACH_USERS, gen.REACH_EDGES)
        self.expected = gen.reachable(self.edges)
        self.warm_edges = gen.follow_edges(seed + 1, gen.WARM_USERS, gen.WARM_EDGES)
        self.warm_expected = gen.reachable(self.warm_edges)

    def build(self, index: int):
        """Fresh atoms for evaluation ``index`` (-1: the warm-up), one
        list per program the workload evaluates."""
        edges, users = self.edges, gen.REACH_USERS
        if index < 0:
            edges, users = self.warm_edges, gen.WARM_USERS
        consts = [Const(f"e{index}u{u}") for u in range(users)]
        facts = [Atom("source", (consts[0],))]
        facts.extend(Atom("follows", (consts[u], consts[v])) for u, v in edges)
        return (facts,)

    def run(self, facts, span, metrics=None):
        (facts,) = facts
        (answers,), result = solve(
            span, programs.REACH_PROGRAM, facts, ["? reach(X)."], metrics
        )
        return {a["X"] for a in answers}, [result]

    def check(self, answers, index: int) -> bool:
        expected = self.warm_expected if index < 0 else self.expected
        return answers == {f"e{index}u{u}" for u in expected}


class PaperSets:
    """The paper's set programs: parts explosion, book deals, social."""

    name = "paper-sets"
    min_evals = 10

    def __init__(self, seed: int) -> None:
        self.bom_edges, self.leaves, self.costs = gen.bom_tree(seed)
        self.prices = gen.book_prices(seed)
        self.deals = gen.book_deals(self.prices)
        self.follows, self.interest = gen.social_graph(seed, gen.SOCIAL_USERS)
        self.audience = gen.audience(self.follows)
        self.recommend = gen.recommend(self.follows)

    @staticmethod
    def _offset(index: int) -> int:
        # part numbers are integer constants: shift them per evaluation
        return (index + 2) * 1_000_000

    def build(self, index: int):
        off = self._offset(index)
        bom = [Atom("p", (Const(a + off), Const(b + off))) for a, b in self.bom_edges]
        bom += [Atom("q", (Const(p + off), Const(c))) for p, c in self.leaves.items()]
        titles = [Const(f"e{index}b{i}") for i in range(len(self.prices))]
        books = [Atom("book", (t, Const(p))) for t, p in zip(titles, self.prices)]
        users = [Const(f"e{index}u{u}") for u in range(gen.SOCIAL_USERS)]
        social = [Atom("follows", (users[a], users[b])) for a, b in self.follows]
        social += [
            Atom("interest", (users[u], Const(f"e{index}t{t}")))
            for u, t in self.interest
        ]
        return bom, books, social

    def run(self, facts, span, metrics=None):
        bom, books, social = facts
        (parts,), r1 = solve(
            span, programs.TC_SCOPED_PROGRAM, bom,
            ["? result(X, C)."], metrics,
        )
        (deals,), r2 = solve(
            span, programs.BOOK_DEAL_PROGRAM, books,
            ["? book_deal(S)."], metrics,
        )
        (aud, rec), r3 = solve(
            span, programs.SOCIAL_PROGRAM, social,
            ["? audience(U, N).", "? recommend(A, B)."], metrics,
        )
        answers = (
            {a["X"]: a["C"] for a in parts},
            {a["S"] for a in deals},
            {a["U"]: a["N"] for a in aud},
            {(a["A"], a["B"]) for a in rec},
        )
        return answers, [r1, r2, r3]

    def check(self, answers, index: int) -> bool:
        off = self._offset(index)
        parts, deals, aud, rec = answers
        user = lambda u: f"e{index}u{u}"  # noqa: E731
        return (
            parts == {p + off: c for p, c in self.costs.items()}
            and deals == {
                frozenset(f"e{index}b{i}" for i in deal) for deal in self.deals
            }
            and aud == {user(u): n for u, n in self.audience.items()}
            and rec == {(user(a), user(b)) for a, b in self.recommend}
        )


WORKLOADS = {w.name: w for w in (BulkReach, PaperSets)}

#: module attributes of repro.engine.evaluator timed in the traced half
ENGINE_SPANS = (
    ("check_program", "program.check"),
    ("stratify", "program.stratify"),
    ("scc_schedule", "program.stratify"),
    ("Database", "engine.ingest"),
    ("evaluate_component", "engine.fixpoint"),
)


def emit(tag: str, payload: dict) -> None:
    print(tag, json.dumps(payload), flush=True)


def measure(wl, seconds: float, first: int, min_evals: int, tracer=None,
            rss_after: int | None = None) -> dict:
    """Evaluate fresh inputs until ``seconds`` pass (and ``min_evals``).

    Returns the walls, the machine speed probed around each evaluation,
    the check verdicts, and with a ``tracer`` the per-evaluation layer
    breakdown.  ``rss_after`` samples memory after that many
    evaluations, so that it covers the same work in every run.
    """
    span = tracer.span if tracer is not None else null_span
    walls, speeds, verdicts, layers, memory = [], [], [], [], None
    deadline = time.perf_counter() + seconds
    index = first
    while len(walls) < min_evals or time.perf_counter() < deadline:
        facts = wl.build(index)
        collector = MetricsCollector() if tracer is not None else None
        ids_before = id_table_size()
        gc.collect()
        before = procstat.probe()
        if tracer is None:
            start = time.perf_counter()
            answers, results = wl.run(facts, span)
            walls.append(time.perf_counter() - start)
        else:
            with tracer.span("eval", index=index) as root:
                answers, results = wl.run(facts, span, collector)
            walls.append(root["end"] - root["start"])
            layers.append(breakdown(tracer, root, collector, results, facts,
                                    id_table_size() - ids_before))
        speeds.append((before + procstat.probe()) / 2)
        verdicts.append(wl.check(answers, index))
        del facts, answers, results
        index += 1
        if rss_after is not None and len(walls) == rss_after:
            gc.collect()
            memory = procstat.memory_mb()
    return {"walls": walls, "speeds": speeds, "verdicts": verdicts,
            "layers": layers, "memory": memory}


def scaled(run: dict) -> list[float]:
    """Each evaluation's wall at the reference machine speed."""
    return [procstat.at_reference_speed(w, p) for w, p in zip(run["walls"], run["speeds"])]


def breakdown(tracer, root, collector, results, facts, id_growth) -> dict:
    """One traced evaluation, attributed: self times add up to its wall."""
    below = tracer.children(root)
    own = Tracer.self_times(root, below)
    incl = Tracer.totals(below)
    phases = collector.phases
    counters = collector.counters
    fixpoint = incl.get("engine.fixpoint", 0.0)
    # plan is not subtracted: grouping compiles its rules' plans inside
    # its own timer, so part of the plan time is already in grouping
    split = sum(phases.get(p, 0.0) for p in ("match", "grouping"))
    ingest = incl.get("engine.ingest", 0.0)
    return {
        "wall": root["end"] - root["start"],
        "parser.parse_s": own.get("parser.parse", 0.0),
        "program.check_s": own.get("program.check", 0.0),
        "program.stratify_s": own.get("program.stratify", 0.0),
        "engine.ingest_s": ingest,
        "engine.ingest_rows_per_s": sum(map(len, facts)) / ingest if ingest else 0.0,
        "terms.id_table_growth": id_growth,
        "engine.fixpoint_s": fixpoint,
        "engine.fixpoint_self_s": fixpoint - split,
        "engine.match_s": phases.get("match", 0.0),
        "engine.plan_s": phases.get("plan", 0.0),
        "engine.grouping_s": phases.get("grouping", 0.0),
        "engine.decode_s": own.get("engine.decode", 0.0),
        "unattributed_s": own["eval"],
        "engine.facts": sum(r.total_facts for r in results),
        "engine.iterations": sum(r.total_iterations for r in results),
        "engine.rule_firings": sum(r.total_firings for r in results),
        "exec.kernel_calls": counters.get("kernel_calls", 0),
        "exec.kernel_rows": counters.get("kernel_rows", 0),
        "exec.batch_bindings": counters.get("batch_bindings", 0),
        "exec.plans_built": counters.get("plans_built", 0),
    }


COUNTERS = (
    "terms.id_table_growth", "engine.facts", "engine.iterations",
    "engine.rule_firings", "exec.kernel_calls", "exec.kernel_rows",
    "exec.batch_bindings", "exec.plans_built",
)


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer values: means of the traced evaluations (so they stay
    additive), counters of the first traced evaluation (exact)."""
    layers = traced["layers"]
    out = {name: 0 for name in names.SERVING}
    for name in names.IN_PROCESS + ("unattributed_s",):
        if name in COUNTERS:
            out[name] = layers[0][name]
        else:
            out[name] = statistics.fmean(l[name] for l in layers)
    out["trace.wall_s"] = statistics.fmean(l["wall"] for l in layers)
    fast, slow = scaled(untraced), scaled(traced)
    out["trace.overhead_eval_s"] = statistics.median(slow) - statistics.median(fast)
    out["trace.overhead_ops_per_s"] = len(slow) / sum(slow) - len(fast) / sum(fast)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    # set-up, timed by the parent from launch to READY: the imports
    # above, input preparation (reported, and subtracted by the parent),
    # program compile and one warm-up evaluation
    start = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    warm = wl.build(-1)
    prep = time.perf_counter() - start
    for text in (programs.REACH_PROGRAM, programs.TC_SCOPED_PROGRAM,
                 programs.BOOK_DEAL_PROGRAM, programs.SOCIAL_PROGRAM):
        parse_rules(text)
    answers, _ = wl.run(warm, null_span)
    warm_ok = wl.check(answers, -1)
    del warm, answers
    emit("READY", {"prep_s": prep, "ok": warm_ok})
    if args.setup_only:
        return 0

    gc.collect()
    rss0 = procstat.memory_mb()["VmRSS"]
    if args.trace:
        half = args.seconds / 2
        floor = max(2, wl.min_evals // 2)
        untraced = measure(wl, half, 0, floor)
        tracer = Tracer()
        for attr, span_name in ENGINE_SPANS:
            tracer.patch(repro.engine.evaluator, attr, span_name)
        try:
            traced = measure(wl, half, 10_000, floor, tracer)
        finally:
            tracer.unpatch()
        runs = [untraced, traced]
        values = per_layer(untraced, traced)
        if args.spans:
            tracer.write(args.spans, {"workload": wl.name, "seed": args.seed})
    else:
        run = measure(wl, args.seconds, 0, wl.min_evals, rss_after=wl.min_evals)
        runs = [run]
        walls = scaled(run)
        values = {
            "eval_s": statistics.median(walls),
            "ops_per_s": len(walls) / sum(walls),
            "peak_rss_mb": run["memory"]["VmHWM"],
            "rss_growth_mb": run["memory"]["VmRSS"] - rss0,
        }
    verdicts = [v for r in runs for v in r["verdicts"]]
    walls = [w for r in runs for w in r["walls"]]
    speeds = [p for r in runs for p in r["speeds"]]
    emit("RESULT", {
        "values": values,
        "attempted": len(verdicts),
        "failed": verdicts.count(False),
        "warm_ok": warm_ok,
        "walls": walls,
        "speeds": speeds,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
