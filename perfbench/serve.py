"""The serve-churn workload: a durable server under read/write churn.

The load process (this module, inside ``run.py``) builds a durable
store for ``SOCIAL_PROGRAM`` with the package's own ``LDL`` session: a
snapshot of the base network plus a WAL tail of updates.  Every server
start copies that pristine store, launches ``python -m repro serve
--db`` and times launch until the first answered query, so each start
restores the snapshot and replays the same tail.

The load is a closed loop over ``CONNECTIONS`` connections from one
process, one thread per connection, each sending its next request when
the previous one is answered.  Half the requests are writes, a
quarter hot queries and a quarter cold queries:

* hot queries ``community(tK, S)``: ``interest`` never changes, so
  after the first miss these are answer-cache hits;
* cold queries ``audience``/``recommend``/``followers`` of a random
  user: every write to ``follows`` invalidates them, so they are
  misses the server fills by on-demand magic evaluation;
* writes, alternating on each connection: ``add_facts`` of
  ``follows(fresh, uK)`` with a constant never seen before, then
  ``remove_facts`` of that edge.

The shares follow from the latency metrics: queries and updates each
need a p99 with ten samples beyond it, so they get equal shares, and
hot and cold queries split the queries' share evenly for the same
reason (see README.md).

The load's times are reported as measured.  The machine's speed is
probed only before and after the load, while the server is idle, and
is printed for information: probed there, it follows the served speed
too weakly to scale by (see README.md).

After the load the final EDB is known exactly (each connection writes
only its own fresh constants); the server's answers to a fixed set of
queries must equal both a from-scratch ``evaluate()`` of that EDB and
the plain-Python sets of :mod:`gen`.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import gen
import metrics as names
import procstat
import programs
from repro import LDL, Client, evaluate, from_term, parse_query, parse_rules
from repro.program import Atom
from repro.server import protocol
from repro.storage import DurableStore
from repro.terms import Const
from tracer import Tracer, null_span

CONNECTIONS = 2
FSYNC = "always"
RESTORE_RUNS = 3
#: drawn with equal probability: half writes, a quarter hot queries,
#: a quarter cold queries
KINDS = ("write", "write", "hot", "cold")
#: how often the traced half samples the server's resident memory
RSS_EVERY_S = 0.25
#: rss_growth_mb is read when this many writes have completed, so it
#: compares the same amount of churn however fast the server runs
RSS_AFTER_WRITES = 300


def canon(rows: list[dict]) -> list:
    """Answer rows in an order-free form (sets sorted by their repr)."""

    def value(v):
        if isinstance(v, frozenset):
            return sorted(map(repr, map(value, v)))
        return v

    return sorted(repr(sorted((k, value(v)) for k, v in row.items())) for row in rows)


class ServerProcess:
    """One ``python -m repro serve --db`` child and a client to it."""

    def __init__(self, root: str, env: dict, program_path: str, db: str,
                 timeout: float = 60.0) -> None:
        self.speed = procstat.probe()
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", program_path,
             "--port", "0", "--db", db, "--fsync", FSYNC],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        self.host = self.port = None
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("% serving on "):
                    address = line.split()[3]
                    self.host, port = address.rsplit(":", 1)
                    self.port = int(port)
                    break
        finally:
            watchdog.cancel()
        if self.port is None:
            self.stop()
            raise RuntimeError("server did not report its address")

    def client(self):
        return Client(self.host, self.port)

    def memory(self) -> dict:
        return procstat.memory_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM, then wait for the graceful checkpoint and exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


class Connection(threading.Thread):
    """One closed-loop client connection."""

    def __init__(self, load, cid: int, seed: int, deadline: float,
                 traced: bool) -> None:
        super().__init__(name=f"conn{cid}")
        self.load, self.cid, self.deadline, self.traced = load, cid, deadline, traced
        self.rng = random.Random(seed * 1000 + cid)
        self.ops: list[dict] = []
        #: the edge this connection added last, until it removes it
        self.added: tuple[str, str] | None = None
        self.begin = self.end = 0.0
        self.fresh = 0
        self.span = load.tracer.span if traced else null_span

    def run(self) -> None:
        load = self.load
        client = load.server.client()
        try:
            with self.span("client.connection", conn=self.cid):
                self.begin = time.perf_counter()
                while time.perf_counter() < self.deadline:
                    self.ops.append(load.one_op(client, self))
                self.end = time.perf_counter()
        finally:
            client.close()


class ServeChurn:
    def __init__(self, root: str, work: str, env: dict, seed: int) -> None:
        self.root, self.work, self.env, self.seed = root, work, env, seed
        self.follows, self.interest = gen.social_graph(
            seed, gen.SERVE_USERS, interests=gen.SERVE_TOPICS
        )
        # the follows EDB as the load sees it
        self.live = {(self.user(a), self.user(b)) for a, b in self.follows}
        self.lock = threading.Lock()
        self.server: ServerProcess | None = None
        self.tracer = Tracer()
        self.wal_seen = 0
        self.wal_growth = 0
        self.writes = 0
        self.churned = None  # server memory once RSS_AFTER_WRITES writes are done

    # -- inputs ------------------------------------------------------------

    def atom(self, pred: str, *values):
        return Atom(pred, tuple(Const(v) for v in values))

    @staticmethod
    def user(u) -> str:
        return u if isinstance(u, str) else f"u{u}"

    def build_store(self) -> None:
        """Snapshot of the base network plus a WAL tail of updates."""
        os.makedirs(self.work, exist_ok=True)
        self.program_path = os.path.join(self.work, "social.ldl")
        with open(self.program_path, "w") as fh:
            fh.write(programs.SOCIAL_PROGRAM)
        self.base = os.path.join(self.work, "base")
        rng = random.Random(self.seed)
        session = LDL(programs.SOCIAL_PROGRAM, path=self.base, fsync=FSYNC)
        try:
            session.add_atoms(
                [self.atom("follows", self.user(a), self.user(b)) for a, b in self.follows]
                + [self.atom("interest", self.user(u), f"t{t}") for u, t in self.interest]
            )
            session.checkpoint()
            self.wal_header = os.path.getsize(os.path.join(self.base, "wal.log"))
            tail = []
            for i in range(gen.SERVE_WAL_TAIL):
                if i % 4 == 3:
                    victim = tail.pop(rng.randrange(len(tail)))
                    session.remove_atoms([self.atom("follows", *victim)])
                    self.live.discard(victim)
                else:
                    edge = (f"w{i}", self.user(rng.randrange(gen.SERVE_USERS)))
                    session.add_atoms([self.atom("follows", *edge)])
                    tail.append(edge)
                    self.live.add(edge)
        finally:
            session.close()

    def fresh_copy(self, tag: str) -> str:
        path = os.path.join(self.work, tag)
        shutil.copytree(self.base, path)
        return path

    # -- set-up ------------------------------------------------------------

    def start_server(self, tag: str) -> tuple[ServerProcess, float, float]:
        """A server on a fresh copy of the store: ``(server, seconds to the
        first answer, probe seconds around the start)``."""
        db = self.fresh_copy(tag)
        server = ServerProcess(self.root, self.env, self.program_path, db)
        try:
            client = server.client()
            try:
                client.call("query", q="? audience(u0, N).")
            finally:
                client.close()
        except BaseException:
            server.stop()
            raise
        setup = time.perf_counter() - server.start
        return server, setup, (server.speed + procstat.probe()) / 2

    def restore_times(self) -> list[float]:
        """In-process ``DurableStore.open`` on fresh copies, timed."""
        program = parse_rules(programs.SOCIAL_PROGRAM)
        out = []
        for k in range(RESTORE_RUNS):
            path = self.fresh_copy(f"restore{k}")
            store = DurableStore(program, path, fsync=FSYNC)
            start = time.perf_counter()
            store.open()
            out.append(time.perf_counter() - start)
            store.close()
            shutil.rmtree(path)
        return out

    # -- load --------------------------------------------------------------

    def one_op(self, client, conn: Connection) -> dict:
        rng = conn.rng
        kind = rng.choice(KINDS)
        if kind == "write":
            if conn.added is not None:
                edge = conn.added
                op, call = "remove", client.remove_facts
            else:
                conn.fresh += 1
                edge = (f"c{conn.cid}x{conn.fresh}", self.user(rng.randrange(gen.SERVE_USERS)))
                op, call = "add", client.add_facts
            record = {"kind": op}
            start = time.perf_counter()
            try:
                with conn.span(f"client.{op}"):
                    call("follows", [edge])
                record["ok"] = True
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                record["ok"], record["error"] = False, repr(exc)
            record["start"], record["end"] = start, time.perf_counter()
            if record["ok"]:
                conn.added = edge if op == "add" else None
                with self.lock:
                    if op == "add":
                        self.live.add(edge)
                    else:
                        self.live.discard(edge)
                    if conn.traced:
                        self.sample_wal()
                    self.writes += 1
                    if self.writes == RSS_AFTER_WRITES:
                        self.churned = self.server.memory()
            return record
        if kind == "hot":
            text = f"? community(t{rng.randrange(gen.SERVE_TOPICS)}, S)."
        else:
            pred = rng.choice(("audience(u{}, N)", "recommend(u{}, B)", "followers(u{}, S)"))
            text = "? " + pred.format(rng.randrange(gen.SERVE_USERS)) + "."
        record = {"kind": kind}
        start = time.perf_counter()
        try:
            with conn.span("client.query", kind=kind):
                response = client.call("query", q=text)
            record["ok"], record["cache"] = True, response.get("cache")
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            record["ok"], record["error"] = False, repr(exc)
        record["start"], record["end"] = start, time.perf_counter()
        return record

    def sample_wal(self) -> None:
        """WAL growth seen from outside (caller holds ``self.lock``)."""
        try:
            size = os.path.getsize(os.path.join(self.db, "wal.log"))
        except OSError:
            return
        if size >= self.wal_seen:
            self.wal_growth += size - self.wal_seen
        else:  # compacted into a snapshot: the log restarted
            self.wal_growth += size - self.wal_header
        self.wal_seen = size

    def drive(self, seconds: float, traced: bool) -> dict:
        """Closed-loop load for ``seconds``; the machine's speed is probed
        just before and just after it, while no request is in flight."""
        speeds = [procstat.probe()]
        deadline = time.perf_counter() + seconds
        conns = [
            Connection(self, cid, self.seed, deadline, traced)
            for cid in range(CONNECTIONS)
        ]
        rss = []
        for conn in conns:
            conn.start()
        while alive := [c for c in conns if c.is_alive()]:
            if traced:
                rss.append(self.server.memory()["VmRSS"])
            alive[0].join(RSS_EVERY_S)
        speeds.append(procstat.probe())
        return {"conns": conns, "rss": rss, "speeds": speeds}

    # -- checking ----------------------------------------------------------

    def check(self, client) -> list[bool]:
        """Per check query: served == from-scratch evaluate() == Python sets."""
        users = [self.user(u) for u in range(gen.SERVE_USERS)]
        queries = (
            [f"? audience({u}, N)." for u in users]
            + [f"? recommend({u}, B)." for u in users[::5]]
            + [f"? community(t{t}, S)." for t in range(gen.SERVE_TOPICS)]
        )
        served = [
            [
                {k: from_term(v) for k, v in protocol.decode_binding(b).items()}
                for b in client.call("query", q=q)["answers"]
            ]
            for q in queries
        ]
        atoms = [self.atom("follows", a, b) for a, b in self.live]
        atoms += [self.atom("interest", self.user(u), f"t{t}") for u, t in self.interest]
        model = evaluate(parse_rules(programs.SOCIAL_PROGRAM), atoms)
        scratch = [
            [
                {k: from_term(v) for k, v in b.items()}
                for b in model.answers(parse_query(q))
            ]
            for q in queries
        ]
        aud = gen.audience(self.live)
        rec = gen.recommend(self.live)
        com = gen.community((self.user(u), f"t{t}") for u, t in self.interest)
        python = (
            [[{"N": aud[u]}] if u in aud else [] for u in users]
            + [[{"B": b} for a, b in rec if a == u] for u in users[::5]]
            + [[{"S": com[f"t{t}"]}] if f"t{t}" in com else [] for t in range(gen.SERVE_TOPICS)]
        )
        return [
            canon(s) == canon(e) == canon(p)
            for s, e, p in zip(served, scratch, python)
        ]

    # -- the run -----------------------------------------------------------

    def run(self, seconds: float, trace: bool, setup_runs: int):
        """Returns ``(values, attempted, failed, correct, notes)``."""
        self.build_store()
        restore = self.restore_times() if trace else []
        setups, speeds = [], []
        for k in range(setup_runs):
            server, setup, speed = self.start_server(f"start{k}")
            setups.append(setup)
            speeds.append(speed)
            if k < setup_runs - 1 and server.stop() != 0:
                raise RuntimeError("server exited uncleanly after a set-up run")
        self.server = server
        self.db = os.path.join(self.work, f"start{setup_runs - 1}")
        notes = []
        try:
            rss0 = self.server.memory()["VmRSS"]
            stats = [self.stats()] if trace else []
            if trace:
                untraced = self.drive(seconds / 2, traced=False)
                stats.append(self.stats())
                self.wal_seen = os.path.getsize(os.path.join(self.db, "wal.log"))
                traced = self.drive(seconds / 2, traced=True)
                stats.append(self.stats())
                halves = [untraced, traced]
            else:
                halves = [self.drive(seconds, traced=False)]
            mem = self.server.memory()
            client = self.server.client()
            try:
                verdicts = self.check(client)
            finally:
                client.close()
        finally:
            code = self.server.stop()
        if code != 0:
            notes.append(f"server exit code {code}")
        ops = [op for h in halves for c in h["conns"] for op in c.ops]
        errors = {op["error"] for op in ops if not op["ok"]}
        notes.extend(sorted(errors)[:3])
        notes.append(f"final check: {sum(verdicts)}/{len(verdicts)} queries "
                     "match evaluate() and the Python sets")
        # the final check's queries are operations too: a wrong answer fails
        attempted = len(ops) + len(verdicts)
        failed = sum(not op["ok"] for op in ops) + verdicts.count(False)
        if trace:
            values = self.per_layer(untraced, traced, stats, restore)
            values["error_rate"] = failed / attempted
        else:
            churned = self.churned or mem
            values = self.end_to_end(halves[0])
            values.update(
                setup_s=statistics.median(map(procstat.at_reference_speed, setups, speeds)),
                peak_rss_mb=churned["VmHWM"],
                rss_growth_mb=churned["VmRSS"] - rss0,
            )
        notes.append(f"measured setup_s: {' '.join(f'{s:.4f}' for s in setups)}")
        notes.append(procstat.describe_speed(speeds, "setup times"))
        notes.append(procstat.describe_speed([p for h in halves for p in h["speeds"]], None)
                     + " around the load; load times are as measured")
        if self.churned is None and not trace:
            notes.append(f"rss_growth_mb read at the end: fewer than "
                         f"{RSS_AFTER_WRITES} writes completed")
        notes.append(self.describe(halves[0]))
        return values, attempted, failed, code == 0 and failed == 0, notes

    def stats(self) -> dict:
        client = self.server.client()
        try:
            return client.stats()
        finally:
            client.close()

    @staticmethod
    def summary(half: dict) -> dict:
        conns = half["conns"]
        ops = [op for c in conns for op in c.ops]
        done = [op for op in ops if op["ok"]]
        window = max(c.end for c in conns) - min(c.begin for c in conns)
        lat = lambda pred: [op["end"] - op["start"] for op in done if pred(op)]  # noqa: E731
        return {
            "ops": ops,
            "ops_per_s": len(done) / window,
            "queries": lat(lambda op: op["kind"] in ("hot", "cold")),
            "updates": lat(lambda op: op["kind"] in ("add", "remove")),
            "misses": lat(lambda op: op.get("cache") == "miss"),
            "hits": lat(lambda op: op.get("cache") in ("hit", "hit-subsumed")),
            # every request's latency, failed ones too: the attribution
            # must add up to the connections' wall
            "every": [op["end"] - op["start"] for op in ops],
        }

    def end_to_end(self, half: dict) -> dict:
        """eval_s and ops_per_s, as measured."""
        s = self.summary(half)
        return {"eval_s": statistics.median(s["misses"]), "ops_per_s": s["ops_per_s"]}

    def describe(self, half: dict) -> str:
        s = self.summary(half)
        qlabel, q99 = procstat.tail_percentile(s["queries"])
        ulabel, u99 = procstat.tail_percentile(s["updates"])
        return (
            f"queries={len(s['queries'])} query_p50_ms={statistics.median(s['queries']) * 1e3:.3f} "
            f"query_{qlabel}_ms={q99 * 1e3:.3f} updates={len(s['updates'])} "
            f"update_p50_ms={statistics.median(s['updates']) * 1e3:.3f} "
            f"update_{ulabel}_ms={u99 * 1e3:.3f} cold_misses={len(s['misses'])} "
            f"hits={len(s['hits'])} "
            + " ".join(f"{k}={sum(op['kind'] == k for op in s['ops'])}"
                       for k in ("hot", "cold", "add", "remove"))
        )

    def per_layer(self, untraced, traced, stats, restore) -> dict:
        u, t = self.summary(untraced), self.summary(traced)
        before, after = stats[1], stats[2]
        d = lambda get: get(after) - get(before)  # noqa: E731
        lat = d(lambda s: s["server"]["latency"]["sum_seconds"])
        reqs = d(lambda s: s["server"]["latency"]["count"])
        maint = lambda key: d(lambda s: s["session"]["maintenance"][key])  # noqa: E731
        writes = len(t["updates"])
        hits, misses = len(t["hits"]), len(t["misses"])
        conn_wall = sum(c.end - c.begin for c in traced["conns"])
        n = len(t["ops"])
        handler_ms = lat / reqs * 1e3
        values = {name: 0 for name in names.IN_PROCESS}
        values.update({
            "server.handler_ms": handler_ms,
            "server.wire_ms": statistics.fmean(t["every"]) * 1e3 - handler_ms,
            "server.rss_mb": statistics.fmean(traced["rss"]),
            "cache.hit_rate": hits / (hits + misses),
            "cache.hit_ms": statistics.median(t["hits"]) * 1e3,
            "cache.miss_ms": statistics.median(t["misses"]) * 1e3,
            "cache.invalidated_per_update": d(
                lambda s: s["answer_cache"]["entries_invalidated"]) / writes,
            "maintain.delta_updates": maint("delta_updates"),
            "maintain.recompute_updates": maint("recompute_updates"),
            "maintain.count_adjusted_per_update": maint("count_adjusted") / max(1, maint("updates")),
            "maintain.rederived_per_overdeleted": (
                maint("rederived") / maint("overdeleted") if maint("overdeleted") else 0.0
            ),
            "storage.restore_s": statistics.median(restore),
            "storage.wal_records_replayed": stats[0]["session"]["store"]["wal_records_replayed"],
            "storage.wal_bytes_per_update": self.wal_growth / writes,
            "client.query_p50_ms": statistics.median(u["queries"]) * 1e3,
            "client.query_p99_ms": procstat.tail_percentile(u["queries"])[1] * 1e3,
            "client.update_p50_ms": statistics.median(u["updates"]) * 1e3,
            "client.update_p99_ms": procstat.tail_percentile(u["updates"])[1] * 1e3,
            "unattributed_s": (conn_wall - sum(t["every"])) / n,
            "trace.wall_s": conn_wall / n,
            "trace.overhead_eval_s": (
                self.end_to_end(traced)["eval_s"] - self.end_to_end(untraced)["eval_s"]
            ),
            "trace.overhead_ops_per_s": (
                self.end_to_end(traced)["ops_per_s"] - self.end_to_end(untraced)["ops_per_s"]
            ),
        })
        return values
