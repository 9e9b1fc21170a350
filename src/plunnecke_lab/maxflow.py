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
(``max_flow(s, t, probe=True)``, which pushes nothing).  Each network is
built with every arc its walk pins or bars, so a walk only sets
capacities.  A walk's probes share the residual closures of s and of t
that the walk opens, so each searches only from the arcs raised since the
walk's last probe that found no path; any other probe starts afresh
(``FlowNetwork``).
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
    Arcs are fixed at construction: an arc a caller may need later is
    built in at capacity 0.  ``max_flow`` augments the flow ``cap`` already
    holds and returns the flow it adds, so after raising some capacities
    it finds just the extra flow they admit; with ``probe=True`` it only
    says whether any exists.

    A probe searches between two closures of the residual network: the
    nodes s reaches, and nodes known to reach t (``_probe``).  While
    ``lex_min_walk`` runs on the network, its probes share the walk's
    closures; any other probe starts afresh from {s} and {t}, so ``cap``
    may be written freely outside a walk.
    """

    def __init__(self, n: int, arcs):
        """``n`` nodes and the arcs ``(u, v, cap)`` of ``arcs``: arc k has
        index 2k, and each node lists its arcs in the order of ``arcs``."""
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
        self._walk = None  # the running walk's closures (_closures), or None

    def max_flow(self, s: int, t: int, probe: bool = False) -> int:
        """Augment to a maximum s-t flow and return the flow this call added.

        Each phase labels BFS levels until t is labelled, then finishes a
        blocking flow on the level graph.  ``probe=True`` runs no phase
        and pushes nothing: it returns 1 if the residual network has an s-t
        path, so more flow exists, and 0 if ``cap`` holds a maximum flow
        already.  A probe of a running walk searches only from the arcs the
        walk raised since its last probe that returned 0; any other probe
        searches from s (``_probe``).  ``s == t`` is refused in both modes.
        """
        if s == t:
            raise ValueError(f"source and sink are the same node ({s})")
        if probe:
            return self._probe(s, t)
        adj, head, cap = self.adj, self.head, self.cap
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

    def _closures(self, s: int, t: int) -> tuple:
        """Fresh probe closures for (s, t): the source side {s}, with every
        arc out of s noted, and the sink side {t}.  They rely on no arc yet.
        """
        from_s, to_t = [False] * self.n, [False] * self.n
        from_s[s] = to_t[t] = True
        return s, t, from_s, to_t, self.adj[s][:], []

    def _raise(self, a: int, c: int) -> None:
        """Raise arc ``a`` to ``c`` in the running walk, noting it if it
        leaves the walk's source side or enters its sink side."""
        self.cap[a] = c
        _s, _t, from_s, to_t, leaving, entering = self._walk
        if from_s[self.head[a ^ 1]]:
            leaving.append(a)
        if to_t[self.head[a]]:
            entering.append(a)

    def _probe(self, s: int, t: int) -> int:
        """1 if t is reachable from s in the residual network, else 0.

        A probe from s to t of the running walk uses the walk's closures;
        any other probe opens fresh ones and drops them after.  The search
        starts from the noted arcs that leave the source side, and stops at
        the first node of the sink side.  If it reaches one, it forgets the
        nodes it reached.  Otherwise it commits: the source side keeps
        them, the sink side grows back from the noted arcs that enter it,
        and no arc stays noted.  A node joins each side at most once, when
        its arcs are scanned, so the committing probes of one walk scan
        each arc at most twice in all, plus the arcs noted; a probe that
        finds a path also scans the arcs of the nodes it forgets.
        """
        adj, head, cap = self.adj, self.head, self.cap
        walk = self._walk
        if walk is None or walk[0] != s or walk[1] != t:
            walk = self._closures(s, t)
        _s, _t, from_s, to_t, leaving, entering = walk
        reached: list[int] = []
        stack = [leaving]
        while stack:
            for a in stack.pop():
                if cap[a]:
                    w = head[a]
                    if not from_s[w]:
                        if to_t[w]:
                            for v in reached:
                                from_s[v] = False
                            return 1
                        from_s[w] = True
                        reached.append(w)
                        stack.append(adj[w])
        self._reach_t(to_t, [head[a ^ 1] for a in entering if cap[a]])
        del leaving[:], entering[:]
        return 0

    def _reach_t(self, to_t: list[bool], nodes) -> None:
        """Mark ``nodes``, and every node that reaches one of them in the
        residual network, in the sink side ``to_t``."""
        adj, head, cap = self.adj, self.head, self.cap
        stack = []
        for v in nodes:
            if not to_t[v]:
                to_t[v] = True
                stack.append(v)
        while stack:
            for b in adj[stack.pop()]:
                x = head[b]
                if not to_t[x] and cap[b ^ 1]:
                    to_t[x] = True
                    stack.append(x)

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


def lex_min_walk(net: FlowNetwork, pins, bars, inf: int, done) -> list[int]:
    """Grow the lexicographically smallest index set in 0..len(pins)-1 that
    ``done`` accepts, on ``net`` at a maximum flow from node 0 to node 1.

    Indices are offered once each, in increasing order.  The query of ``i``
    raises every arc of ``pins[i]`` to ``inf``, which pins ``i`` in, and
    probes once (``max_flow(0, 1, probe=True)``, which pushes nothing).
    No more flow means some optimal set contains ``i`` and every index
    chosen so far and avoids every barred one: ``i`` is chosen and keeps
    its pin.  Otherwise ``i`` lies in no such set: its pin arcs get their
    old capacities back and arc ``bars[i]`` is raised to ``inf``, which bars
    ``i`` for the rest of the walk.  So each query sees the chosen and
    barred sets of the textbook greedy, which tries the indices after the
    last chosen one in turn with every skipped one barred, with the bars
    set in the order of that greedy's lists.

    The walk opens fresh residual closures at its start, {0} with every
    arc out of 0 noted and {1}, and drops them when it returns or raises:
    its probes share them, and any other probe starts afresh.  A pin or a bar is raised
    through ``net._raise``, which notes the arc for the next probe.  An
    undone pin is written straight back into ``net.cap``: pins and bars are
    disjoint and an index's pin arcs change only at its own query, so each
    gets back what the walk's last committing probe saw.  ``done(chosen)``
    is called on the walk's own list, empty first and then after each
    acceptance, so a caller can fold in just ``chosen[-1]``; it must leave
    the network alone.
    """
    chosen: list[int] = []
    if done(chosen):
        return chosen
    net._walk = net._closures(0, 1)
    try:
        for i, pin in enumerate(pins):
            old = [net.cap[a] for a in pin]
            for a in pin:
                net._raise(a, inf)
            if net.max_flow(0, 1, probe=True):
                for a, c in zip(pin, old):
                    net.cap[a] = c
                net._raise(bars[i], inf)
            else:
                chosen.append(i)
                if done(chosen):
                    return chosen
        raise RuntimeError("no feasible extension of the lex-min witness")
    finally:
        net._walk = None


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
    capacity back and then has its bar arc, built in at capacity 0 from the
    source to the sink, raised to infinity for good, so every probe runs on
    the network of the textbook greedy's query (see ``lex_min_walk``).
    The walk's probes share its closures, so a probe searches only from
    the arcs its query and the bars since the last accepted query raised.
    A probe pushes nothing, so it asks whether the pinned network's maximum
    flow exceeds the last round's value, whichever maximum flow the round
    left.  S_{R-1} holds every source chosen so far
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
    # the n source arcs, the n bar arcs (source i -> sink), then the middle
    # arcs source by source, then the m target arcs; first_mid[i] is source
    # i's first middle arc
    net = FlowNetwork(2 + n + m, [
        *((0, 2 + i, 0) for i in range(n)),
        *((2 + i, 1, 0) for i in range(n)),
        *((2 + i, 2 + n + k, 0) for i, ks in enumerate(nbr) for k in ks),
        *((2 + n + k, 1, 0) for k in range(m))])
    first_mid = [4 * n]
    for ks in nbr:
        first_mid.append(first_mid[-1] + 2 * len(ks))
    first_target = first_mid[-1]

    def reweigh(num: int, den: int, live) -> tuple[int, int]:
        # source arcs num*sw for live sources and 0 for the rest, bar arcs 0,
        # middle arcs infinite, target arcs den*dw; returns infinity and the
        # greedy flow
        inf = num * total_src + den * total_dst + 1
        cap = [inf, 0] * (len(net.head) // 2)
        cap[:4 * n] = [0] * (4 * n)
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
    num, den = lam.numerator, lam.denominator
    image: set[int] = set()
    img_w = set_w = 0

    def attains_optimum(chosen) -> bool:
        nonlocal img_w, set_w
        if not chosen:
            return False
        i = chosen[-1]
        img_w += sum(dw[k] for k in nbr[i] if k not in image)
        image.update(nbr[i])
        set_w += sw[i]
        return img_w * den == num * set_w

    chosen = lex_min_walk(net, [(2 * i,) for i in range(n)], range(2 * n, 4 * n, 2), inf,
                          attains_optimum)
    return MagnificationResult(lam, frozenset(sources[i] for i in chosen), tuple(trace))
