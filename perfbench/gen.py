"""Seeded inputs and independent reference answers for every workload.

Plain Python only: nothing here imports the package under test, so the
references cannot share a bug with it.  Every generator is a pure
function of its seed; the benchmark derives the names of the constants
(fresh per evaluation) separately, so one seed fixes the *shape* of the
input and each timed evaluation still sees constants never interned
before.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

# -- bulk-reach ---------------------------------------------------------------

REACH_USERS = 20_000
REACH_EDGES = 100_000
#: the warm-up evaluation of the set-up phase runs on a tenth-size graph
WARM_USERS = 2_000
WARM_EDGES = 10_000


def follow_edges(seed: int, users: int, edges: int) -> list[tuple[int, int]]:
    """Exactly ``edges`` distinct directed pairs over ``users`` users."""
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < edges:
        u = rng.randrange(users)
        v = rng.randrange(users)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            out.append((u, v))
    return out


def reachable(edges: list[tuple[int, int]], source: int = 0) -> set[int]:
    """Breadth-first search: every user reachable from ``source``."""
    succ: dict[int, list[int]] = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    seen = {source}
    queue = deque([source])
    while queue:
        for v in succ.get(queue.popleft(), ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


# -- paper-sets ---------------------------------------------------------------

BOM_DEPTH = 4
BOM_FANOUT = 2
BOOKS = 24
SOCIAL_USERS = 80


def bom_tree(seed: int, depth: int = BOM_DEPTH, fanout: int = BOM_FANOUT):
    """A layered parts tree: ``(p_edges, leaf_costs, total_costs)``.

    Heap numbering from root 1; leaves carry random integer costs and
    every part's expected cost is the sum over the leaves below it.
    """
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    leaves: dict[int, int] = {}
    totals: dict[int, int] = {}

    def build(part: int, level: int) -> int:
        if level == depth:
            leaves[part] = totals[part] = rng.randrange(1, 100)
            return totals[part]
        total = 0
        for k in range(1, fanout + 1):
            child = part * fanout + k
            edges.append((part, child))
            total += build(child, level + 1)
        totals[part] = total
        return total

    build(1, 0)
    return edges, leaves, totals


def book_prices(seed: int, count: int = BOOKS) -> list[int]:
    """Prices 5..119, evenly spread, dealt to the titles in seeded order:
    every seed yields the same number of deals, so the work per
    evaluation does not depend on the seed."""
    prices = [5 + 115 * k // count for k in range(count)]
    random.Random(seed).shuffle(prices)
    return prices


def book_deals(prices: list[int]) -> set[frozenset[int]]:
    """Brute force: every set {X, Y, Z} (repeats collapse) under 100."""
    n = range(len(prices))
    return {
        frozenset((x, y, z))
        for x, y, z in itertools.product(n, n, n)
        if prices[x] + prices[y] + prices[z] < 100
    }


def social_graph(seed: int, users: int, follows_per_user: int = 4,
                 interests: int = 5):
    """Seeded ``(follows, interest)`` pairs for the social program.

    The follows edges are the union of ``follows_per_user`` random
    permutations of the users (self-loops and repeats dropped), so every
    user follows about as many users as follow it, and the work per
    user, per query and per seed barely varies.  Every user has two of
    the ``interests`` topics.
    """
    rng = random.Random(seed)
    follows: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for _ in range(follows_per_user):
        perm = list(range(users))
        rng.shuffle(perm)
        for u, v in enumerate(perm):
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                follows.append((u, v))
    interest = [(u, t) for u in range(users) for t in rng.sample(range(interests), 2)]
    return follows, interest


def audience(follows) -> dict:
    """``followers(U, S), card(S, N)``: users with at least one follower."""
    counts: dict = {}
    for f, u in follows:
        counts[u] = counts.get(u, 0) + 1
    return counts


def recommend(follows) -> set:
    """``candidate(A, B), ~follows(A, B)``: friends of friends not followed."""
    edges = set(follows)
    succ: dict = {}
    for a, m in edges:
        succ.setdefault(a, set()).add(m)
    out = set()
    for a, ms in succ.items():
        for m in ms:
            for b in succ.get(m, ()):
                if a != b and (a, b) not in edges:
                    out.add((a, b))
    return out


def community(interest) -> dict:
    """``community(T, <U>)``: the users sharing each interest."""
    out: dict = {}
    for u, t in interest:
        out.setdefault(t, set()).add(u)
    return {t: frozenset(us) for t, us in out.items()}


# -- serve-churn --------------------------------------------------------------

SERVE_USERS = 150
SERVE_TOPICS = 5
#: updates replayed from the WAL tail when the server starts
SERVE_WAL_TAIL = 64
