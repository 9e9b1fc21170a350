"""Integer max-flow and exact minimum-ratio solvers.

Capacities are arbitrary-precision integers (rational inputs get scaled by a
common denominator), so min-cut values and every ratio computed here are
exact.  The ratio solvers minimize  weight(N(S)) / weight(S)  over nonempty
subsets S of a source set, where N(S) is the union of per-source neighbor
sets; ties are broken toward the lexicographically smallest witness.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputError

BRUTE_FORCE_LIMIT = 20  # the most sources min_ratio_bruteforce enumerates


class FlowNetwork:
    """Integer max-flow by Dinic's blocking flows, warm-startable.

    Arc ``a`` runs to ``head[a]`` with residual capacity ``cap[a]``; its
    reverse arc is ``a ^ 1`` and ``adj[v]`` lists the arcs leaving ``v``.
    ``max_flow`` augments the flow ``cap`` already holds and returns the
    flow it adds, so after raising some ``cap[a]``, or adding arcs, it finds
    just the extra flow they admit.  ``truncate`` removes arcs added after a
    mark, so a network can carry an arc only while it is needed.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.head: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Add the arc u -> v of capacity ``cap`` and return its index."""
        arc = len(self.head)
        self.head += (v, u)
        self.cap += (cap, 0)
        self.adj[u].append(arc)
        self.adj[v].append(arc + 1)
        return arc

    def truncate(self, arcs: int) -> None:
        """Remove every arc added after the first ``arcs``, newest first.

        ``arcs`` is a past ``len(head)``; the remaining arcs keep whatever
        ``cap`` holds for them.
        """
        adj, head = self.adj, self.head
        for a in range(len(head) - 1, arcs - 1, -1):
            adj[head[a ^ 1]].pop()
        del head[arcs:], self.cap[arcs:]

    def max_flow(self, s: int, t: int, cutoff: int | None = None) -> int:
        """Augment to a maximum s-t flow and return the flow this call added.

        With ``cutoff``, return as soon as the added flow reaches it, leaving
        ``cap`` holding that partial flow.  ``cutoff=1`` on integer
        capacities stops at the first augmenting path, so ``max_flow(s, t,
        cutoff=1) == 0`` says, as cheaply as one search, whether any more
        flow exists.
        """
        adj, head, cap = self.adj, self.head, self.cap
        total = 0
        while True:
            # BFS levels, stopping once t is labelled: no shortest path
            # passes a vertex at t's level or beyond.
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            enqueue = queue.append
            for v in queue:
                nxt = level[v] + 1
                for a in adj[v]:
                    w = head[a]
                    if level[w] < 0 and cap[a]:
                        level[w] = nxt
                        enqueue(w)
                if level[t] >= 0:
                    break
            else:
                return total
            # Blocking flow along level-increasing arcs, walked with an
            # explicit path (heights come from user input, so no recursion).
            # ptr[v] is v's next untried arc; a dead end leaves the level
            # graph.
            ptr = [0] * self.n
            path: list[int] = []
            v = s
            while True:
                if v == t:
                    push = min(map(cap.__getitem__, path))
                    for a in path:
                        cap[a] -= push
                        cap[a ^ 1] += push
                    total += push
                    if cutoff is not None and total >= cutoff:
                        return total
                    k = 0
                    while cap[path[k]]:
                        k += 1
                    del path[k:]
                    v = head[path[-1]] if path else s
                    continue
                arcs = adj[v]
                i, end = ptr[v], len(arcs)
                want = level[v] + 1
                while i < end:
                    a = arcs[i]
                    if cap[a] and level[head[a]] == want:
                        break
                    i += 1
                ptr[v] = i
                if i < end:
                    path.append(a)
                    v = head[a]
                else:
                    level[v] = -1
                    if not path:
                        break
                    v = head[path.pop() ^ 1]
                    ptr[v] += 1

    def source_side(self, s: int) -> set[int]:
        """Vertices reachable from s in the residual network (the minimal min cut)."""
        adj, head, cap = self.adj, self.head, self.cap
        seen = {s}
        stack = [s]
        while stack:
            for a in adj[stack.pop()]:
                w = head[a]
                if cap[a] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen


def lex_less(a: int, b: int) -> bool:
    """Lexicographic order on index sets encoded as bitmasks (bit i = i-th id).

    Matches tuple comparison of the sorted index sequences, so the empty set
    is smallest and {0} < {0, 1} < {1}.
    """
    if a == b:
        return False
    if a == 0:
        return True
    if b == 0:
        return False
    low = (a ^ b) & -(a ^ b)
    if a & low:
        return (b >> low.bit_length()) != 0
    return (a >> low.bit_length()) == 0


def common_scale(values) -> int:
    return lcm(*{v.denominator for v in values})


def _integerize(sources, neighbors, source_weight, target_weight):
    targets = sorted({u for s in sources for u in neighbors[s]})
    src_w = [source_weight[s] for s in sources]
    dst_w = [target_weight[u] for u in targets]
    scale = common_scale(src_w + dst_w)
    sw = [w.numerator * (scale // w.denominator) for w in src_w]
    dw = [w.numerator * (scale // w.denominator) for w in dst_w]
    tindex = {u: i for i, u in enumerate(targets)}
    nbr = [sorted(tindex[u] for u in neighbors[s]) for s in sources]
    return targets, sw, dw, nbr


def min_ratio_bruteforce(sources, neighbors, source_weight, target_weight,
                         min_share=0) -> tuple[Fraction, frozenset]:
    """Enumerate every nonempty subset of ``sources`` exactly.

    Refuses more than BRUTE_FORCE_LIMIT sources.  Only subsets weighing at
    least ``min_share`` times the whole source set compete.  Subset images and
    weights are built incrementally over bitmasks, on scaled integers.
    """
    sources = sorted(sources)
    n = len(sources)
    if n == 0:
        raise InputError("empty source set")
    if n > BRUTE_FORCE_LIMIT:
        raise InputError(f"brute force limited to {BRUTE_FORCE_LIMIT} sources (got {n})")
    _targets, sw, dw, nbr = _integerize(sources, neighbors, source_weight, target_weight)
    min_share = Fraction(min_share)
    share_den = min_share.denominator
    need = min_share.numerator * sum(sw)
    nmask = [0] * n
    for i in range(n):
        for k in nbr[i]:
            nmask[i] |= 1 << k
    size = 1 << n
    imgs = [0] * size
    img_w = [0] * size
    set_w = [0] * size
    best_num = best_den = 0
    best_mask = 0
    for m in range(1, size):
        low = m & -m
        i = low.bit_length() - 1
        rest = m ^ low
        added = nmask[i] & ~imgs[rest]
        imgs[m] = imgs[rest] | added
        w = img_w[rest]
        while added:
            b = added & -added
            w += dw[b.bit_length() - 1]
            added ^= b
        img_w[m] = w
        set_w[m] = set_w[rest] + sw[i]
        if set_w[m] * share_den < need:
            continue
        if best_mask == 0:
            best_num, best_den, best_mask = w, set_w[m], m
            continue
        diff = w * best_den - best_num * set_w[m]
        if diff < 0 or (diff == 0 and lex_less(m, best_mask)):
            best_num, best_den, best_mask = w, set_w[m], m
    witness = frozenset(sources[i] for i in range(n) if best_mask >> i & 1)
    return Fraction(best_num, best_den), witness


def lex_min_greedy(n: int, feasible, done) -> list[int]:
    """Grow the lexicographically smallest index set in 0..n-1 that ``done`` accepts.

    ``feasible(chosen, barred)`` says whether some optimal set contains every
    index in ``chosen`` and none in ``barred``.  Each round adds the smallest
    index whose addition stays feasible and bars the indices it skipped, so
    each query's ``chosen`` and ``barred`` extend, as lists, those of the
    last accepted query.
    """
    included: list[int] = []
    excluded: list[int] = []
    pos = 0
    while not done(included):
        for idx in range(pos, n):
            skipped = list(range(pos, idx))
            if feasible(included + [idx], excluded + skipped):
                included.append(idx)
                excluded += skipped
                pos = idx + 1
                break
        else:
            raise RuntimeError("no feasible extension of the lex-min witness")
    return included


def pinned_queries(net: FlowNetwork, pin_chosen, pin_barred):
    """``lex_min_greedy``'s feasibility queries on the maximum flow from node 0
    to node 1 that ``net`` holds.

    ``pin_chosen(i)`` and ``pin_barred(i)`` force index ``i`` in or out by
    raising capacities or adding arcs.  Pins keep the flow feasible, so a
    query is feasible exactly when no extra flow exists, which
    ``max_flow(0, 1, cutoff=1)`` answers at its first augmenting path.  A
    query pins only the indices past the last accepted query's; an accepted
    query's pins stay, and a rejected one is undone by restoring the
    capacities and removing its arcs.
    """
    base = net.cap[:]
    kept_in = kept_out = 0

    def feasible(chosen, barred) -> bool:
        nonlocal base, kept_in, kept_out
        for i in chosen[kept_in:]:
            pin_chosen(i)
        for i in barred[kept_out:]:
            pin_barred(i)
        if net.max_flow(0, 1, cutoff=1) == 0:
            base = net.cap[:]
            kept_in, kept_out = len(chosen), len(barred)
            return True
        net.truncate(len(base))
        net.cap[:] = base
        return False

    return feasible


def min_ratio_mincut(sources, neighbors, source_weight, target_weight, *,
                     witness: bool = True
                     ) -> tuple[Fraction, frozenset | None, tuple[Fraction, ...]]:
    """Iterative ratio minimization over min-cuts.

    Starting from the full-set ratio, each round finds a nonempty minimizer
    of weight(N(S)) - lam * weight(S) as the source side of a min cut and
    re-normalizes lam; it stops when that minimum hits zero.  The returned
    trace holds the strictly decreasing lam sequence, one maximum flow per
    entry.  One network serves every round: a round only re-weighs its arcs.
    The witness is the lexicographically smallest minimizing subset,
    extracted with ``pinned_queries`` on the last round's flow: a forced-in
    source's source arc is raised to infinity, and a forced-out source gets
    an infinite arc to the sink for as long as it is pinned.
    ``witness=False`` skips the extraction and returns ``None`` in the
    witness's place.
    """
    sources = sorted(sources)
    if not sources:
        raise InputError("empty source set")
    zeros = sorted(s for s in sources if not neighbors[s])
    if zeros:
        return Fraction(0), frozenset({zeros[0]}) if witness else None, (Fraction(0),)
    _targets, sw, dw, nbr = _integerize(sources, neighbors, source_weight, target_weight)
    n, m = len(sources), len(dw)
    total_src = sum(sw)
    total_dst = sum(dw)
    # nodes: 0 source, 1 sink, 2..2+n-1 the sources, then the targets; arcs:
    # the n source arcs, then the middle arcs, then the m target arcs
    net = FlowNetwork(2 + n + m)
    for i in range(n):
        net.add_edge(0, 2 + i, 0)
    for i in range(n):
        for k in nbr[i]:
            net.add_edge(2 + i, 2 + n + k, 0)
    for k in range(m):
        net.add_edge(2 + n + k, 1, 0)
    first_target = len(net.head) - 2 * m

    def reweigh(num: int, den: int) -> int:
        # source arcs num*sw, middle arcs infinite, target arcs den*dw, no flow
        inf = num * total_src + den * total_dst + 1
        cap = [inf, 0] * (len(net.head) // 2)
        cap[:2 * n:2] = [num * w for w in sw]
        cap[first_target::2] = [den * w for w in dw]
        net.cap[:] = cap
        return inf

    lam = Fraction(total_dst, total_src)
    trace = [lam]
    bound = max(4, n * m + 2)
    for _ in range(bound):
        inf = reweigh(lam.numerator, lam.denominator)
        if net.max_flow(0, 1) == lam.numerator * total_src:
            break
        reached = net.source_side(0)
        side = [i for i in range(n) if 2 + i in reached]
        if not side:
            raise RuntimeError("improving cut came back empty")
        img = set()
        for i in side:
            img.update(nbr[i])
        new_lam = Fraction(sum(dw[k] for k in img), sum(sw[i] for i in side))
        if not new_lam < lam:
            raise RuntimeError("ratio iteration failed to decrease")
        lam = new_lam
        trace.append(lam)
    else:
        raise RuntimeError(f"ratio iteration exceeded its bound of {bound}")
    if not witness:
        return lam, None, tuple(trace)

    num, den = lam.numerator, lam.denominator

    def force_in(i: int) -> None:
        net.cap[2 * i] = inf  # source arc i is arc 2*i

    def force_out(i: int) -> None:
        net.add_edge(2 + i, 1, inf)

    def attains_optimum(index_set) -> bool:
        img = set()
        for i in index_set:
            img.update(nbr[i])
        return (bool(index_set) and
                den * sum(dw[k] for k in img) == num * sum(sw[i] for i in index_set))

    feasible = pinned_queries(net, force_in, force_out)
    found = frozenset(sources[i] for i in lex_min_greedy(n, feasible, attains_optimum))
    return lam, found, tuple(trace)
