"""Integer max-flow and exact minimum-ratio solvers.

Capacities are arbitrary-precision integers (rational inputs get scaled by a
common denominator through ``rational.to_integers``), so min-cut values and
every ratio computed here are exact.  The ratio solvers minimize
weight(N(S)) / weight(S)  for one measure ``weight`` over nonempty subsets S
of a source set, where N(S) is the union of per-source neighbor sets; ties
are broken toward the lexicographically smallest witness.  Both refuse a
source weight <= 0 and a neighbor weight < 0, and return one
``MagnificationResult``.

``min_ratio_mincut`` runs Dinkelbach's rounds on one network; its docstring
says why nesting the rounds and opening each with a greedy flow leave every
result unchanged.  Its witness and the minimum-weight cutset's come from
``lex_min_walk``, whose every query pins one index in and probes once
(``max_flow(s, t, probe=True)``: one depth-first residual search, apart
from Dinic's phases, that stops at the sink and pushes nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .rational import exact_weight, parse_rational, to_integers

BRUTE_FORCE_LIMIT = 20  # the most sources min_ratio_bruteforce enumerates


@dataclass(frozen=True)
class MagnificationResult:
    """A ratio solve: the minimum, its lex-min witness (None if not extracted)
    and the Dinkelbach trace (() for brute force; equality ignores it)."""

    value: Fraction
    witness: frozenset | None
    trace: tuple[Fraction, ...] = field(compare=False)


class FlowNetwork:
    """Integer max-flow by Dinic's blocking flows, warm-startable.

    Arc ``a`` runs to ``head[a]`` with residual capacity ``cap[a]``; its
    reverse arc is ``a ^ 1`` and ``adj[v]`` lists the arcs leaving ``v``.
    ``max_flow`` augments the flow ``cap`` already holds and returns the
    flow it adds, so after raising some ``cap[a]``, or adding arcs, it finds
    just the extra flow they admit; with ``probe=True`` it only says whether
    any exists.  ``truncate`` removes arcs added after a mark, so a network
    can carry an arc only while it is needed.
    """

    def __init__(self, n: int, arcs=()):
        """``n`` nodes and the arcs ``(u, v, cap)`` of ``arcs``, laid out as
        the same ``add_edge`` calls would lay them out."""
        self.n = n
        adj = self.adj = [[] for _ in range(n)]
        arcs = list(arcs)
        head = self.head = [0] * (2 * len(arcs))
        head[::2] = [v for _u, v, _c in arcs]
        head[1::2] = [u for u, _v, _c in arcs]
        cap = self.cap = [0] * (2 * len(arcs))
        cap[::2] = [c for _u, _v, c in arcs]
        for a, (u, v, _c) in enumerate(arcs):
            adj[u].append(2 * a)
            adj[v].append(2 * a + 1)

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

    def max_flow(self, s: int, t: int, probe: bool = False) -> int:
        """Augment to a maximum s-t flow and return the flow this call added.

        Each phase labels BFS levels until t is labelled, then finishes a
        blocking flow on the level graph.  ``probe=True`` runs no phase and
        pushes nothing: one depth-first search of the residual network,
        which stops at the first residual arc into t, returns 1 if it finds
        one, so more flow exists, and 0 if ``cap`` holds a maximum flow
        already.  ``s == t`` is refused in both modes.
        """
        if s == t:
            raise ValueError(f"source and sink are the same node ({s})")
        adj, head, cap = self.adj, self.head, self.cap
        if probe:
            # any residual s-t path will do; the stack takes the heads of
            # the newest arcs, last in their lists, first
            seen = [False] * self.n
            seen[s] = True
            stack = [s]
            push, pop = stack.append, stack.pop
            while stack:
                for a in adj[pop()]:
                    if cap[a]:
                        w = head[a]
                        if not seen[w]:
                            if w == t:
                                return 1
                            seen[w] = True
                            push(w)
            return 0
        total = 0
        while True:
            # BFS levels, stopping once t is labelled: every vertex below
            # t's level is labelled by then, and no shortest path passes
            # another vertex at t's level.
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
                        if w == t:
                            break
                        enqueue(w)
                if level[t] >= 0:
                    break
            else:
                return total
            # Blocking flow along level-increasing arcs, walked from s with
            # an explicit path (heights come from user input, so no
            # recursion).  ptr[v] is v's next untried arc; a dead end leaves
            # the level graph.
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


def _integerize(sources, neighbors, weight):
    """Scaled source weights, sorted targets' weights, and source -> target indices.

    An empty source set, a weight that is not a Fraction or an int
    (``rational.exact_weight``), a source weight <= 0 and a target weight < 0
    are refused first.
    """
    if not sources:
        raise InputError("empty source set")
    targets = sorted({u for s in sources for u in neighbors[s]})
    weight = {v: w if type(w := weight[v]) is Fraction else exact_weight(v, w)
              for v in (*sources, *targets)}
    for v in sources:
        if weight[v].numerator <= 0:
            raise InputError(f"source weight of ({v}) must be positive (got {weight[v]})")
    for u in targets:
        if weight[u].numerator < 0:
            raise InputError(f"neighbor weight of ({u}) must be nonnegative (got {weight[u]})")
    ints, _scale = to_integers([(weight[v].numerator, weight[v].denominator)
                                for v in (*sources, *targets)])
    tindex = {u: i for i, u in enumerate(targets)}
    nbr = [sorted(tindex[u] for u in neighbors[s]) for s in sources]
    return ints[:len(sources)], ints[len(sources):], nbr


def min_ratio_bruteforce(sources, neighbors, weight,
                         min_share=0) -> MagnificationResult:
    """Enumerate every nonempty subset of ``sources`` exactly.

    Refuses more than BRUTE_FORCE_LIMIT sources and a ``min_share`` outside
    [0, 1] or refused by ``rational.parse_rational`` (a float, a bool, a
    decimal string).  Only subsets weighing at least ``min_share`` times the
    whole source set compete, so the whole set always does.  Subsets are
    walked depth-first, each right after its prefix, so in lexicographic
    order of their sorted indices, and the first one to beat every earlier
    one strictly is the lex-min minimizer.  Images and weights, on scaled
    integers, are kept per depth: memory is linear in the number of sources.
    """
    sources = sorted(sources)
    n = len(sources)
    if n > BRUTE_FORCE_LIMIT:
        raise InputError(f"brute force limited to {BRUTE_FORCE_LIMIT} sources (got {n})")
    min_share = parse_rational(min_share)
    if not 0 <= min_share <= 1:
        raise InputError(f"min_share must lie in [0, 1] (got {min_share})")
    sw, dw, nbr = _integerize(sources, neighbors, weight)
    share_den = min_share.denominator
    need = min_share.numerator * sum(sw)
    nmask = [sum(1 << k for k in ks) for ks in nbr]  # each ks lists distinct indices
    # the current subset is pick[:d]; entry e of img, img_w and set_w holds
    # the image mask, image weight and set weight of the prefix pick[:e]
    pick = [0] * n
    img, img_w, set_w = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    best_num, best_den, best = 1, 0, ()  # 1/0: any competing subset beats it
    d = i = 0
    while True:
        if i < n:
            added = nmask[i] & ~img[d]
            w = img_w[d]
            while added:
                b = added & -added
                w += dw[b.bit_length() - 1]
                added ^= b
            s = set_w[d] + sw[i]
            pick[d] = i
            d += 1
            img[d], img_w[d], set_w[d] = img[d - 1] | nmask[i], w, s
            if s * share_den >= need and w * best_den < best_num * s:
                best_num, best_den, best = w, s, pick[:d]
            i += 1
        elif d:
            d -= 1
            i = pick[d] + 1
        else:
            return MagnificationResult(Fraction(best_num, best_den),
                                       frozenset(sources[k] for k in best), ())


def lex_min_walk(n: int, query, bar, done) -> list[int]:
    """Grow the lexicographically smallest index set in 0..n-1 that ``done`` accepts.

    Indices are offered once each, in increasing order.  ``query(i)`` says
    whether some optimal set contains ``i`` and every index chosen so far
    and avoids every barred one; an accepted ``i`` is chosen and keeps its
    pin.  A rejected ``i`` lies in no such set, so ``bar(i)`` bars it for
    the rest of the walk.  So each query sees the chosen and barred sets of
    the textbook greedy, which tries the indices after the last chosen one
    in turn with every skipped one barred, with the bars set in the order
    of that greedy's lists.  ``done(chosen)`` is called on the walk's own
    list, empty first and then after each acceptance, so a caller can fold
    in just ``chosen[-1]``.
    """
    chosen: list[int] = []
    if done(chosen):
        return chosen
    for i in range(n):
        if not query(i):
            bar(i)
        else:
            chosen.append(i)
            if done(chosen):
                return chosen
    raise RuntimeError("no feasible extension of the lex-min witness")


def min_ratio_mincut(sources, neighbors, weight, *, witness: bool = True
                     ) -> MagnificationResult:
    """Iterative ratio minimization over min-cuts (Dinkelbach's method).

    Starting from the full-set ratio, each round finds a nonempty minimizer
    of f(S) = weight(N(S)) - lam * weight(S) as the source side of a min cut
    and re-normalizes lam; it stops when that minimum hits zero.  The
    result's trace holds the strictly decreasing lam sequence, one maximum
    flow per entry.  One network serves every round, and a round only
    re-weighs its arcs:

    - Rounds are nested.  For lam' < lam, every minimizer of f at lam' lies
      inside every minimizer at lam: with S a minimizer at lam and S' one
      at lam', submodularity gives f_lam(S | S') + f_lam'(S & S') <=
      f_lam(S) + f_lam'(S') - (lam - lam') * weight(S' - S), so the positive
      source weights force S' - S to be empty (Gallo, Grigoriadis and
      Tarjan, 1989).  A round after the first therefore gives source arcs
      only to the last round's source side, the live sources, and is
      optimal when the flow saturates them.  Its minimal min cut, its
      optimum and every optimal set are those of the full network: a dead
      source lies in no optimal set of either.
    - Each round opens with a greedy flow along s -> i -> k -> t, one pass
      over the middle arcs, and a max flow finishes it.

    The last round's live set S_{R-1} (every source if the first round is
    optimal) is the largest optimal set: its ratio is the final lam*; an
    optimal set minimizes f at lam*, so by nesting it lies inside S_{R-1};
    and optimal sets are closed under union, since f_lam*(S | S') +
    f_lam*(S & S') <= 0 with both terms >= 0.  A source without neighbors
    needs no path of its own: no middle arc drains its source arc, so the
    rounds run down to lam = 0 (the first lam, with no targets at all),
    whose optimal sets are the sources whose neighbors all weigh 0.

    The witness, the lexicographically smallest optimal set, is grown by
    ``lex_min_walk`` on the last round's flow.  A query raises the source's
    source arc to infinity and probes, and a rejected source gets its old
    capacity back and then an infinite arc to the sink for good, so every
    probe runs on the network of the textbook greedy's query (see
    ``lex_min_walk``).  A probe pushes nothing, so it asks whether the
    pinned network's maximum flow exceeds the last round's value, whichever
    maximum flow the round left.  S_{R-1} holds every source chosen so far
    and none barred, so the walk accepts exactly its sources, and the
    witness is the shortest prefix of sorted S_{R-1} whose ratio, folded
    into integer sums at each acceptance, is lam*.  ``witness=False`` skips
    the extraction; the witness is then None.  A source weight <= 0 or a
    neighbor weight < 0 is refused before any network is built.
    """
    sources = sorted(sources)
    sw, dw, nbr = _integerize(sources, neighbors, weight)
    n, m = len(sources), len(dw)
    total_src, total_dst = sum(sw), sum(dw)
    # nodes: 0 source, 1 sink, 2..2+n-1 the sources, then the targets; arcs:
    # the n source arcs, then the middle arcs source by source, then the m
    # target arcs; first_mid[i] is source i's first middle arc
    net = FlowNetwork(2 + n + m, [
        *((0, 2 + i, 0) for i in range(n)),
        *((2 + i, 2 + n + k, 0) for i, ks in enumerate(nbr) for k in ks),
        *((2 + n + k, 1, 0) for k in range(m))])
    first_mid = [2 * n]
    for ks in nbr:
        first_mid.append(first_mid[-1] + 2 * len(ks))
    first_target = first_mid[-1]

    def reweigh(num: int, den: int, live) -> tuple[int, int]:
        # source arcs num*sw for live sources and 0 for the rest, middle arcs
        # infinite, target arcs den*dw; returns infinity and the greedy flow
        inf = num * total_src + den * total_dst + 1
        cap = [inf, 0] * (len(net.head) // 2)
        cap[:2 * n] = [0] * (2 * n)
        room = [den * w for w in dw]
        for i in live:
            give = left = num * sw[i]
            a = first_mid[i]
            for k in nbr[i]:
                r = room[k]
                if r:
                    if left <= r:
                        room[k] = r - left
                        cap[a], cap[a + 1] = inf - left, left
                        left = 0
                        break
                    room[k] = 0
                    cap[a], cap[a + 1] = inf - r, r
                    left -= r
                a += 2
            cap[2 * i], cap[2 * i + 1] = left, give - left
        cap[first_target::2] = room
        cap[first_target + 1::2] = [den * w - r for w, r in zip(dw, room)]
        net.cap = cap
        return inf, sum(cap[1:2 * n:2])

    lam = Fraction(total_dst, total_src)
    trace = [lam]
    live, live_weight = range(n), total_src
    bound = max(4, n * m + 2)
    for _ in range(bound):
        inf, opening = reweigh(lam.numerator, lam.denominator, live)
        if opening + net.max_flow(0, 1) == lam.numerator * live_weight:
            break
        reached = net.source_side(0)
        live = [i for i in live if 2 + i in reached]
        if not live:
            raise RuntimeError("improving cut came back empty")
        live_weight = sum(sw[i] for i in live)
        img = set().union(*(nbr[i] for i in live))
        new_lam = Fraction(sum(dw[k] for k in img), live_weight)
        if not new_lam < lam:
            raise RuntimeError("ratio iteration failed to decrease")
        lam = new_lam
        trace.append(lam)
    else:
        raise RuntimeError(f"ratio iteration exceeded its bound of {bound}")
    if not witness:
        return MagnificationResult(lam, None, tuple(trace))
    cap, num, den = net.cap, lam.numerator, lam.denominator
    image: set[int] = set()
    img_w = set_w = 0

    def force_in(i: int) -> bool:
        old, cap[2 * i] = cap[2 * i], inf  # source arc i is arc 2*i
        if not net.max_flow(0, 1, probe=True):
            return True
        cap[2 * i] = old
        return False

    def attains_optimum(chosen) -> bool:
        nonlocal img_w, set_w
        if not chosen:
            return False
        i = chosen[-1]
        img_w += sum(dw[k] for k in nbr[i] if k not in image)
        image.update(nbr[i])
        set_w += sw[i]
        return img_w * den == num * set_w

    chosen = lex_min_walk(n, force_in, lambda i: net.add_edge(2 + i, 1, inf), attains_optimum)
    return MagnificationResult(lam, frozenset(sources[i] for i in chosen), tuple(trace))
