"""Constructive graph families: recognizers, witness validators, generators.

Four families matter here. Two characterize which graphs admit the
all-singletons coalition partition when no vertex is adjacent to everything:
one for minimum degree 1 (a degree-1 vertex x with neighbor y, a hub w
joined to the remaining vertices P and Q, P-vertices joined to everything
outside {x, y}), and a three-branch family for minimum degree 2 (a degree-2
vertex x with neighbors y, z and role sets L1/R1/R2/L2/W classifying the
rest by adjacency to y and z). The other two families contain the
singleton-coalition graphs of members of the first two.

Recognizers search role assignments deterministically (ascending vertex
order, first hit wins) and return a witness; validators re-check a witness
against the defining conditions and report violations; generators build
seeded members, with free edge choices drawn from the seed, and always
re-recognize what they built.
"""

from __future__ import annotations

import random
from functools import partial
from typing import NamedTuple

from .graphs import DegreeStats, Graph, bits, degree_stats, mask_of


class GenerationError(ValueError):
    """A generator could not realize the requested parameters."""


def _is_clique(g: Graph, mask: int) -> bool:
    rows = g.rows
    m = mask
    while m:
        low = m & -m
        if rows[low.bit_length() - 1] & mask != mask ^ low:
            return False
        m ^= low
    return True


def _is_independent(g: Graph, mask: int) -> bool:
    rows = g.rows
    m = mask
    while m:
        low = m & -m
        if rows[low.bit_length() - 1] & mask:
            return False
        m ^= low
    return True


def _covers(row: int, mask: int) -> bool:
    return row & mask == mask


# ---------------------------------------------------------------------------
# Minimum degree 1, no full vertex
# ---------------------------------------------------------------------------


class F1Witness(NamedTuple):
    x: int
    y: int
    w: int
    p_set: int
    q_set: int


def recognize_f1(g: Graph) -> F1Witness | None:
    """Role search: x of degree 1, y its neighbor, w adjacent to all of the
    rest; P collects the rest-vertices adjacent to every other rest-vertex,
    Q the remainder. First witness in (x, w) order."""
    vmask = g.vertex_mask
    for x in range(g.n):
        if g.degree(x) != 1:
            continue
        y = g.rows[x].bit_length() - 1
        for w in range(g.n):
            if w == x or w == y:
                continue
            pq = vmask ^ (1 << x) ^ (1 << y) ^ (1 << w)
            if pq == 0 or g.rows[w] != pq:
                continue
            p = mask_of(v for v in bits(pq) if _covers(g.rows[v], pq ^ (1 << v)))
            q = pq ^ p
            if q:
                if q.bit_count() < 2:
                    continue
                if not _covers(g.rows[y], q):
                    continue
                # no vertex full inside the induced subgraph on Q
                if any(g.rows[v] & q == q ^ (1 << v) for v in bits(q)):
                    continue
            return F1Witness(x, y, w, p, q)
    return None


def f1_violations(g: Graph, wit: F1Witness, stats: DegreeStats | None = None) -> list[str]:
    """Conditions of the degree-1 family that ``wit`` breaks in ``g``;
    ``stats`` is the graph's ``degree_stats``, computed when omitted."""
    out = []
    roles = (1 << wit.x) | (1 << wit.y) | (1 << wit.w)
    if (1 << wit.x) & ((1 << wit.y) | (1 << wit.w)) or wit.y == wit.w:
        out.append("x, y, w not distinct")
    if (wit.p_set | wit.q_set) & roles or wit.p_set & wit.q_set:
        out.append("role sets overlap")
    if roles | wit.p_set | wit.q_set != g.vertex_mask:
        out.append("roles do not cover the vertex set")
    if g.rows[wit.x] != 1 << wit.y:
        out.append("x is not a degree-1 vertex with neighbor y")
    pq = wit.p_set | wit.q_set
    if pq == 0:
        out.append("P and Q both empty")
    if g.rows[wit.w] != pq:
        out.append("w is not adjacent to exactly P and Q")
    for v in bits(wit.p_set):
        if not _covers(g.rows[v], pq ^ (1 << v)):
            out.append(f"P-vertex {v} misses part of P or Q")
    if wit.q_set:
        if wit.q_set.bit_count() < 2:
            out.append("Q nonempty but smaller than 2")
        if not _covers(g.rows[wit.y], wit.q_set):
            out.append("y misses part of Q")
        if any(g.rows[v] & wit.q_set == wit.q_set ^ (1 << v) for v in bits(wit.q_set)):
            out.append("induced subgraph on Q has a full vertex")
    if stats is None:
        stats = degree_stats(g)
    if stats.full_count:
        out.append("graph has a full vertex")
    return out


class H1Witness(NamedTuple):
    x1: int
    y1: int
    w1: int
    p1_set: int
    q1_set: int


def recognize_h1(g: Graph) -> H1Witness | None:
    """Bipartite role search over ordered non-adjacent pairs (x1, y1): y1
    adjacent to exactly the other side B1, B1 independent, x1 adjacent to a
    nonempty part of B1; Q1 is the rest of B1 (empty or of size >= 2)."""
    vmask = g.vertex_mask
    for x1 in range(g.n):
        for y1 in range(g.n):
            if y1 == x1 or g.has_edge(x1, y1):
                continue
            b1 = vmask ^ (1 << x1) ^ (1 << y1)
            if b1.bit_count() < 2 or g.rows[y1] != b1:
                continue
            if not _is_independent(g, b1):
                continue
            nx1 = g.rows[x1]
            if nx1 == 0:
                continue
            q1 = b1 & ~nx1
            if q1 and q1.bit_count() < 2:
                continue
            w1 = (nx1 & -nx1).bit_length() - 1
            return H1Witness(x1, y1, w1, nx1 ^ (1 << w1), q1)
    return None


def h1_violations(g: Graph, wit: H1Witness) -> list[str]:
    out = []
    b1 = wit.p1_set | (1 << wit.w1) | wit.q1_set
    if g.has_edge(wit.x1, wit.y1):
        out.append("x1 and y1 adjacent")
    if ((1 << wit.x1) | (1 << wit.y1)) | b1 != g.vertex_mask:
        out.append("roles do not cover the vertex set")
    if (1 << wit.x1) & b1 or (1 << wit.y1) & b1:
        out.append("x1 or y1 inside B1")
    if g.rows[wit.y1] != b1:
        out.append("y1 not adjacent to exactly B1")
    if g.rows[wit.x1] != wit.p1_set | (1 << wit.w1):
        out.append("x1 not adjacent to exactly P1 and w1")
    if not _is_independent(g, b1):
        out.append("B1 not independent")
    if (wit.p1_set | wit.q1_set) == 0:
        out.append("P1 and Q1 both empty")
    if wit.q1_set and wit.q1_set.bit_count() < 2:
        out.append("Q1 nonempty but smaller than 2")
    return out


# ---------------------------------------------------------------------------
# Minimum degree 2, no full vertex
# ---------------------------------------------------------------------------


class F2Witness(NamedTuple):
    subfamily: int
    x: int
    y: int
    z: int
    l1: int = 0
    r1: int = 0
    r2: int = 0
    l2: int = 0
    w_set: int = 0


def _f2_try(g: Graph, x: int, y: int, z: int, sub: int) -> F2Witness | None:
    vmask = g.vertex_mask
    vx = vmask ^ (1 << x) ^ (1 << y) ^ (1 << z)
    yz = g.has_edge(y, z)
    if sub == 1:
        if yz or vx == 0:
            return None
        if _covers(g.rows[y], vx) and _covers(g.rows[z], vx):
            return F2Witness(1, x, y, z, r1=vx)
        return None
    if sub == 2:
        if yz or not _covers(g.rows[y], vx):
            return None
        r1 = vx & g.rows[z]
        l1 = vx & ~g.rows[z]
        if l1 == 0 or r1 == 0 or not _is_clique(g, l1):
            return None
        return F2Witness(2, x, y, z, l1=l1, r1=r1)
    # subfamily 3: classify the rest by adjacency to y and z
    l1 = vx & g.rows[y] & ~g.rows[z]
    r1 = vx & g.rows[y] & g.rows[z]
    r2 = vx & g.rows[z] & ~g.rows[y]
    l2 = vx & ~g.rows[y] & ~g.rows[z]
    # the case analysis yields {x,y} and {x,z} non-dominating, i.e.
    # R2|L2 and L1|L2 nonempty; requiring L1 and R2 themselves nonempty
    # would miss members whose only off-side vertices sit in L2
    if (l1 | l2) == 0 or (r2 | l2) == 0:
        return None
    # maximal hub set: vertices seeing all of the rest; any valid W sits
    # inside it and every condition is monotone in W
    wstar = mask_of(v for v in bits(vx) if _covers(g.rows[v] | (1 << v), vx))
    if wstar == 0 or l2 & ~wstar:
        return None
    for r in bits(r1):
        if not (_covers(g.rows[r], l1) or _covers(g.rows[r], r2)):
            return None
    if not yz:
        if not (_is_clique(g, l1) and _is_clique(g, r2)):
            return None
    else:
        for v in bits(l1):
            if not (_covers(g.rows[v], l1 ^ (1 << v)) or _covers(g.rows[v], r2)):
                return None
        for v in bits(r2):
            if not (_covers(g.rows[v], r2 ^ (1 << v)) or _covers(g.rows[v], l1)):
                return None
    return F2Witness(3, x, y, z, l1=l1, r1=r1, r2=r2, l2=l2, w_set=wstar)


def recognize_f2(g: Graph, stats: DegreeStats | None = None) -> F2Witness | None:
    """Role search for the minimum-degree-2 family: x ascending over degree-2
    vertices, its neighbor pair in both orders, subfamilies tried 1, 2, 3.

    ``stats`` is the graph's ``degree_stats``, computed when omitted. The
    search gives the witness of trying ``_f2_try`` in that order, with less
    work: subfamilies 1 and 3 hold for (y, z) exactly when they hold for
    (z, y), so after the pair's first order only subfamily 2 is tried again.
    """
    if stats is None:
        stats = degree_stats(g)
    if stats.min_degree != 2 or stats.full_count:
        return None
    rows = g.rows
    vmask = g.vertex_mask
    for x, row in enumerate(rows):
        if row.bit_count() != 2:
            continue
        a = (row & -row).bit_length() - 1
        b = row.bit_length() - 1
        vx = vmask ^ (1 << x) ^ row
        ra, rb = rows[a], rows[b]
        yz = (ra >> b) & 1
        if not yz:
            if vx and ra & vx == vx and rb & vx == vx:
                return F2Witness(1, x, a, b, r1=vx)
            wit = _f2_sub2(g, x, a, b, vx)
            if wit is not None:
                return wit
        wit = _f2_sub3(g, x, a, b, vx, yz)
        if wit is not None:
            return wit
        if not yz:
            wit = _f2_sub2(g, x, b, a, vx)
            if wit is not None:
                return wit
    return None


def _f2_sub2(g: Graph, x: int, y: int, z: int, vx: int) -> F2Witness | None:
    """Subfamily 2 for non-adjacent y, z: y sees all of the rest, which z
    splits into R1 (its neighbors) and the clique L1."""
    ry, rz = g.rows[y], g.rows[z]
    r1 = vx & rz
    l1 = vx ^ r1
    if ry & vx != vx or l1 == 0 or r1 == 0 or not _is_clique(g, l1):
        return None
    return F2Witness(2, x, y, z, l1=l1, r1=r1)


def _f2_sub3(g: Graph, x: int, y: int, z: int, vx: int, yz: int) -> F2Witness | None:
    """Subfamily 3, the conditions of ``_f2_try`` on masks."""
    rows = g.rows
    ry, rz = rows[y], rows[z]
    l1 = vx & ry & ~rz
    r1 = vx & ry & rz
    r2 = vx & rz & ~ry
    l2 = vx & ~ry & ~rz
    if (l1 | l2) == 0 or (r2 | l2) == 0:
        return None
    wstar = 0
    m = vx
    while m:
        low = m & -m
        if (rows[low.bit_length() - 1] | low) & vx == vx:
            wstar |= low
        m ^= low
    if wstar == 0 or l2 & ~wstar:
        return None
    m = r1
    while m:
        low = m & -m
        row = rows[low.bit_length() - 1]
        if row & l1 != l1 and row & r2 != r2:
            return None
        m ^= low
    if not yz:
        if not (_is_clique(g, l1) and _is_clique(g, r2)):
            return None
    else:
        for side, other in ((l1, r2), (r2, l1)):
            m = side
            while m:
                low = m & -m
                row = rows[low.bit_length() - 1]
                if row & side != side ^ low and row & other != other:
                    return None
                m ^= low
    return F2Witness(3, x, y, z, l1=l1, r1=r1, r2=r2, l2=l2, w_set=wstar)


def f2_violations(g: Graph, wit: F2Witness, stats: DegreeStats | None = None) -> list[str]:
    """Conditions of the degree-2 family that ``wit`` breaks in ``g``;
    ``stats`` is the graph's ``degree_stats``, computed when omitted."""
    out = []
    if stats is None:
        stats = degree_stats(g)
    if stats.min_degree != 2:
        out.append("minimum degree is not 2")
    if stats.full_count:
        out.append("graph has a full vertex")
    if g.rows[wit.x] != (1 << wit.y) | (1 << wit.z):
        out.append("x not adjacent to exactly y and z")
    if _f2_try(g, wit.x, wit.y, wit.z, wit.subfamily) is None:
        out.append(f"subfamily-{wit.subfamily} conditions fail for the given roles")
    return out


class H2Witness(NamedTuple):
    subfamily: int
    x: int
    y: int
    z: int
    l1: int = 0
    r1: int = 0
    r2: int = 0
    w_set: int = 0


def _h2_sub1(g: Graph) -> H2Witness | None:
    rows = g.rows
    vmask = g.vertex_mask
    for x, rx in enumerate(rows):
        ys = rx
        while ys:
            ylow = ys & -ys
            ys ^= ylow
            y = ylow.bit_length() - 1
            ry = rows[y]
            # z above y, adjacent to both x and y
            zs = rx & ry & ~((ylow << 1) - 1)
            while zs:
                zlow = zs & -zs
                zs ^= zlow
                r1 = vmask ^ (1 << x) ^ ylow ^ zlow
                if r1 == 0 or r1 & ~(ry & rows[zlow.bit_length() - 1]):
                    continue
                if _is_independent(g, r1):
                    return H2Witness(1, x, y, zlow.bit_length() - 1, r1=r1)
    return None


def _h2_sub2(g: Graph) -> H2Witness | None:
    rows = g.rows
    vmask = g.vertex_mask
    for y, ry in enumerate(rows):
        # L1 is every vertex outside N[y], whatever x and z are; as L1 | R1
        # is independent, an L1 vertex has no neighbor outside {x, z}
        l1 = vmask ^ ry ^ (1 << y)
        if l1 == 0:
            continue
        xs = ry
        while xs:
            xlow = xs & -xs
            xs ^= xlow
            x = xlow.bit_length() - 1
            zs = ry & ~rows[x] & ~xlow
            while zs:
                zlow = zs & -zs
                zs ^= zlow
                r1 = ry ^ xlow ^ zlow
                if r1 == 0 or rows[zlow.bit_length() - 1] & l1 != l1:
                    continue
                if _is_independent(g, l1 | r1):
                    return H2Witness(2, x, y, zlow.bit_length() - 1, l1=l1, r1=r1)
    return None


def _h2_sub3(g: Graph) -> H2Witness | None:
    rows = g.rows
    vmask = g.vertex_mask
    for x, w in enumerate(rows):
        if w == 0:
            continue  # x' needs at least the hub neighbors
        outside = vmask ^ (1 << x) ^ w
        ys = outside
        while ys:
            ylow = ys & -ys
            ys ^= ylow
            ry = rows[ylow.bit_length() - 1]
            zs = ys  # z above y
            while zs:
                zlow = zs & -zs
                zs ^= zlow
                rz = rows[zlow.bit_length() - 1]
                rest = outside ^ ylow ^ zlow
                # every rest vertex sees y' or z'
                if rest & ~(ry | rz) or not _is_independent(g, w | rest):
                    continue
                return H2Witness(
                    3,
                    x,
                    ylow.bit_length() - 1,
                    zlow.bit_length() - 1,
                    w_set=w,
                    l1=rest & ry & ~rz,
                    r1=rest & ry & rz,
                    r2=rest & rz & ~ry,
                )
    return None


def recognize_h2(g: Graph, subfamily: int | None = None) -> H2Witness | None:
    """Role search for singleton-coalition images of the degree-2 family.

    Subfamily 1: a triangle x'y'z' with the independent rest joined to both
    y' and z' (x'-edges free). Subfamily 2: a path x'y'z' with independent
    sides split by adjacency to y'. Subfamily 3: x' adjacent to exactly an
    independent hub set, every other outside vertex adjacent to y' or z'.
    Tried in that order unless ``subfamily`` pins one.
    """
    searchers = {1: _h2_sub1, 2: _h2_sub2, 3: _h2_sub3}
    order = (subfamily,) if subfamily else (1, 2, 3)
    for sub in order:
        wit = searchers[sub](g)
        if wit is not None:
            return wit
    return None


def h2_violations(g: Graph, wit: H2Witness) -> list[str]:
    out = []
    vmask = g.vertex_mask
    roles = (1 << wit.x) | (1 << wit.y) | (1 << wit.z)
    if wit.subfamily == 1:
        if not (g.has_edge(wit.x, wit.y) and g.has_edge(wit.x, wit.z) and g.has_edge(wit.y, wit.z)):
            out.append("x'y'z' is not a triangle")
        r1 = vmask ^ roles
        if wit.r1 != r1 or r1 == 0:
            out.append("R1' must be the nonempty rest of the vertex set")
        if not _is_independent(g, r1):
            out.append("R1' not independent")
        if any(not _covers(g.rows[v], (1 << wit.y) | (1 << wit.z)) for v in bits(r1)):
            out.append("some R1' vertex misses y' or z'")
    elif wit.subfamily == 2:
        if not (g.has_edge(wit.x, wit.y) and g.has_edge(wit.y, wit.z)):
            out.append("missing x'y' or y'z' edge")
        if g.has_edge(wit.x, wit.z):
            out.append("x'z' edge present")
        if wit.l1 == 0 or wit.r1 == 0:
            out.append("L1' and R1' must both be nonempty")
        if not _is_independent(g, wit.l1 | wit.r1):
            out.append("L1' union R1' not independent")
        if not _covers(g.rows[wit.y], wit.r1) or g.rows[wit.y] & wit.l1:
            out.append("y' adjacency to the sides is wrong")
        if not _covers(g.rows[wit.z], wit.l1):
            out.append("z' misses part of L1'")
        allowed = (1 << wit.x) | (1 << wit.z)
        if any(g.rows[v] & ~allowed for v in bits(wit.l1)):
            out.append("some L1' vertex has neighbors outside {x', z'}")
    else:
        if wit.w_set == 0:
            out.append("W' empty")
        if g.rows[wit.x] != wit.w_set:
            out.append("x' not adjacent to exactly W'")
        rest = wit.l1 | wit.r1 | wit.r2
        if not _is_independent(g, wit.w_set | rest):
            out.append("outside set not independent")
        if any(g.rows[v] & ((1 << wit.y) | (1 << wit.z)) == 0 for v in bits(rest)):
            out.append("some outside vertex misses both y' and z'")
        if roles | wit.w_set | rest != vmask:
            out.append("roles do not cover the vertex set")
    return out


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


class FamilySpec(NamedTuple):
    family: str
    sizes: dict[str, int]
    seed: int

    def __str__(self) -> str:
        parts = [f"{k}={v}" for k, v in self.sizes.items()]
        parts.append(f"seed={self.seed}")
        return f"{self.family}:{','.join(parts)}"

    def __hash__(self) -> int:  # sizes dict is never mutated after parse
        return hash((self.family, tuple(sorted(self.sizes.items())), self.seed))


def parse_family_spec(text: str) -> FamilySpec:
    """Parse ``family:key=value,...`` with an optional ``seed=<int>`` entry;
    each key may appear once."""
    head, sep, body = text.partition(":")
    family = head.strip().lower()
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    sizes: dict[str, int] = {}
    if sep:
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            if not eq or not value.strip().lstrip("-").isdigit():
                raise ValueError(f"bad size entry {item!r}")
            key = key.strip()
            if key.lower() == "seed":
                key = "seed"
            elif key not in _FAMILIES[family][0]:
                raise ValueError(f"unknown key {key!r} for family {family}")
            if key in sizes:
                raise ValueError(f"repeated key {key!r} in family spec {text!r}")
            sizes[key] = int(value)
    seed = sizes.pop("seed", 0)
    return FamilySpec(family, sizes, seed)


def _rng_subset(rng: random.Random, items: list, prob: float = 0.5) -> list:
    return [it for it in items if rng.random() < prob]


def _generate_f1(p: int, q: int, seed: int) -> Graph:
    if p < 0 or q < 0 or (q != 0 and q < 2) or p + q < 1:
        raise GenerationError("need P >= 0, Q = 0 or Q >= 2, and P + Q >= 1")
    rng = random.Random(seed)
    x, y, w = 0, 1, 2
    pv = list(range(3, 3 + p))
    qv = list(range(3 + p, 3 + p + q))
    n = 3 + p + q
    edges = {(x, y)}
    for v in pv + qv:
        edges.add((w, v))
    for i, u in enumerate(pv):
        for v in pv[i + 1 :]:
            edges.add((u, v))
        for v in qv:
            edges.add((u, v))
    for v in qv:
        edges.add((y, v))
    for v in _rng_subset(rng, pv):
        edges.add((y, v))
    # free edges inside Q, repaired so the induced subgraph on Q stays
    # free of full vertices
    q_edges = {
        (u, v) for i, u in enumerate(qv) for v in qv[i + 1 :] if rng.random() < 0.5
    }
    def q_deg(v):
        return sum(1 for e in q_edges if v in e)
    for _ in range(64):
        full_q = [v for v in qv if q_deg(v) == q - 1]
        if not full_q:
            break
        v = full_q[0]
        incident = sorted(e for e in q_edges if v in e)
        q_edges.remove(incident[rng.randrange(len(incident))])
    edges |= q_edges
    return Graph.from_edges(n, sorted(edges))


def _generate_h1(p1: int, q1: int, seed: int) -> Graph:
    if p1 < 0 or q1 < 0 or (q1 != 0 and q1 < 2) or p1 + q1 < 1:
        raise GenerationError("need P1 >= 0, Q1 = 0 or Q1 >= 2, and P1 + Q1 >= 1")
    x1, y1, w1 = 0, 1, 2
    pv = list(range(3, 3 + p1))
    qv = list(range(3 + p1, 3 + p1 + q1))
    edges = [(y1, v) for v in [w1] + pv + qv]
    edges += [(x1, v) for v in [w1] + pv]
    return Graph.from_edges(3 + p1 + q1, edges)


def _generate_f2_1(r1: int, seed: int) -> Graph:
    if r1 < 1:
        raise GenerationError("need R1 >= 1")
    rng = random.Random(seed)
    x, y, z = 0, 1, 2
    rv = list(range(3, 3 + r1))
    edges = [(x, y), (x, z)] + [(y, v) for v in rv] + [(z, v) for v in rv]
    edges += [
        (u, v) for i, u in enumerate(rv) for v in rv[i + 1 :] if rng.random() < 0.5
    ]
    return Graph.from_edges(3 + r1, edges)


def _generate_f2_2(l1: int, r1: int, seed: int) -> Graph:
    if l1 < 1 or r1 < 1:
        raise GenerationError("need L1 >= 1 and R1 >= 1")
    rng = random.Random(seed)
    x, y, z = 0, 1, 2
    lv = list(range(3, 3 + l1))
    rv = list(range(3 + l1, 3 + l1 + r1))
    edges = {(x, y), (x, z)}
    edges |= {(y, v) for v in lv + rv}
    edges |= {(z, v) for v in rv}
    edges |= {(u, v) for i, u in enumerate(lv) for v in lv[i + 1 :]}
    edges |= {(u, v) for i, u in enumerate(rv) for v in rv[i + 1 :] if rng.random() < 0.5}
    edges |= {(u, v) for u in lv for v in rv if rng.random() < 0.4}
    if l1 == 1:
        # the lone L1 vertex needs a second neighbor to keep minimum degree 2
        u = lv[0]
        if not any(u in e and (e[0] in rv or e[1] in rv) for e in edges):
            edges.add((u, rv[rng.randrange(r1)]))
    return Graph.from_edges(3 + l1 + r1, sorted(edges))


def _generate_f2_3(l1: int, r1: int, r2: int, l2: int, w0: int, seed: int) -> Graph:
    if l1 < 1 or r2 < 1 or r1 < 0 or l2 < 0 or w0 < 0:
        raise GenerationError("need L1 >= 1, R2 >= 1, and nonnegative R1, L2, W")
    rng = random.Random(seed)
    x, y, z = 0, 1, 2
    cursor = 3
    lv = list(range(cursor, cursor + l1)); cursor += l1
    rv1 = list(range(cursor, cursor + r1)); cursor += r1
    rv2 = list(range(cursor, cursor + r2)); cursor += r2
    l2v = list(range(cursor, cursor + l2)); cursor += l2
    w0v = list(range(cursor, cursor + w0)); cursor += w0
    n = cursor
    vx = lv + rv1 + rv2 + l2v + w0v
    # the hub set W: all of L2, the dedicated vertices, plus a seeded
    # overlap with the classified sets; it must end up nonempty
    overlap = _rng_subset(rng, lv + rv1 + rv2, 0.3)
    wv = set(l2v) | set(w0v) | set(overlap)
    if not wv:
        wv = {(lv + rv1 + rv2)[rng.randrange(l1 + r1 + r2)]}
    yz = rng.random() < 0.5
    edges = {(x, y), (x, z)}
    if yz:
        edges.add((y, z))
    edges |= {(y, v) for v in lv + rv1}
    edges |= {(z, v) for v in rv1 + rv2}
    for u in wv:
        for v in vx:
            if u != v:
                edges.add((min(u, v), max(u, v)))
    def saturate(u, targets):
        for v in targets:
            if v != u:
                edges.add((min(u, v), max(u, v)))
    for u in rv1:
        saturate(u, lv if rng.random() < 0.5 else rv2)
    if not yz:
        for i, u in enumerate(lv):
            saturate(u, lv[i + 1 :])
        for i, u in enumerate(rv2):
            saturate(u, rv2[i + 1 :])
    else:
        for u in lv:
            saturate(u, lv if rng.random() < 0.5 else rv2)
        for u in rv2:
            saturate(u, rv2 if rng.random() < 0.5 else lv)
    # seeded extras among the classified vertices are always safe
    for i, u in enumerate(vx):
        for v in vx[i + 1 :]:
            if rng.random() < 0.15:
                edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def _generate_h2_1(r1: int, seed: int) -> Graph:
    if r1 < 1:
        raise GenerationError("need R1 >= 1")
    rng = random.Random(seed)
    edges = [(0, 1), (0, 2), (1, 2)]
    rv = list(range(3, 3 + r1))
    edges += [(1, v) for v in rv] + [(2, v) for v in rv]
    edges += [(0, v) for v in _rng_subset(rng, rv)]
    return Graph.from_edges(3 + r1, edges)


def _generate_h2_2(l1: int, r1: int, seed: int) -> Graph:
    if l1 < 1 or r1 < 1:
        raise GenerationError("need L1 >= 1 and R1 >= 1")
    rng = random.Random(seed)
    x, y, z = 0, 1, 2
    lv = list(range(3, 3 + l1))
    rv = list(range(3 + l1, 3 + l1 + r1))
    edges = [(x, y), (y, z)]
    edges += [(z, v) for v in lv]
    edges += [(y, v) for v in rv]
    edges += [(x, v) for v in _rng_subset(rng, lv)]
    edges += [(x, v) for v in _rng_subset(rng, rv)]
    edges += [(z, v) for v in _rng_subset(rng, rv)]
    return Graph.from_edges(3 + l1 + r1, edges)


def _generate_h2_3(l1: int, r1: int, r2: int, w: int, seed: int) -> Graph:
    if w < 1 or min(l1, r1, r2) < 0:
        raise GenerationError("need W >= 1 and nonnegative L1, R1, R2")
    rng = random.Random(seed)
    x, y, z = 0, 1, 2
    cursor = 3
    lv = list(range(cursor, cursor + l1)); cursor += l1
    rv1 = list(range(cursor, cursor + r1)); cursor += r1
    rv2 = list(range(cursor, cursor + r2)); cursor += r2
    wv = list(range(cursor, cursor + w)); cursor += w
    edges = [(x, v) for v in wv]
    edges += [(y, v) for v in lv + rv1]
    edges += [(z, v) for v in rv1 + rv2]
    if rng.random() < 0.5:
        edges.append((y, z))
    edges += [(y, v) for v in _rng_subset(rng, wv)]
    edges += [(z, v) for v in _rng_subset(rng, wv)]
    return Graph.from_edges(cursor, edges)


# Each family: its size keys in the order its builder takes them, its
# builder and its recognizer.
_FAMILIES = {
    "f1": (("P", "Q"), _generate_f1, recognize_f1),
    "h1": (("P1", "Q1"), _generate_h1, recognize_h1),
    "f2.1": (("R1",), _generate_f2_1, recognize_f2),
    "f2.2": (("L1", "R1"), _generate_f2_2, recognize_f2),
    "f2.3": (("L1", "R1", "R2", "L2", "W"), _generate_f2_3, recognize_f2),
    "h2.1": (("R1",), _generate_h2_1, partial(recognize_h2, subfamily=1)),
    "h2.2": (("L1", "R1"), _generate_h2_2, partial(recognize_h2, subfamily=2)),
    "h2.3": (("L1", "R1", "R2", "W"), _generate_h2_3, partial(recognize_h2, subfamily=3)),
}


def generate_family(spec: FamilySpec | str) -> Graph:
    """Build a seeded family member; the result always re-recognizes."""
    if isinstance(spec, str):
        spec = parse_family_spec(spec)
    keys, build, recognize = _FAMILIES[spec.family]
    g = build(*(spec.sizes.get(key, 0) for key in keys), spec.seed)
    if recognize(g) is None:
        raise GenerationError(f"generated graph failed recognition for {spec}")
    return g
