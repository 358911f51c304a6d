"""Deterministic (seeded) graph generators used as experiment workloads.

All generators produce :class:`repro.graphs.graph.Graph` instances and take an
explicit ``seed`` where randomness is involved, so every experiment in the
benchmark harness is reproducible bit-for-bit.

The families below cover the workloads the paper's setting cares about:

* sparse and dense Erdos-Renyi graphs (typical "no structure" inputs),
* grids / tori / rings / paths (large-diameter inputs where near-additive
  spanners shine compared to multiplicative ones),
* trees and caterpillars (already optimally sparse; sanity inputs),
* hypercubes and expanders-by-proxy (small diameter, high expansion),
* clustered "community" graphs (many popular cluster centers, exercising the
  superclustering machinery),
* barbell / lollipop graphs (dense cores attached to long paths, the classic
  bad case for multiplicative stretch on large distances).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from .graph import Edge, Graph


def empty_graph(num_vertices: int) -> Graph:
    """Graph with ``num_vertices`` vertices and no edges."""
    return Graph(num_vertices)


def complete_graph(num_vertices: int) -> Graph:
    """The complete graph K_n."""
    g = Graph(num_vertices)
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            g.add_edge(u, v)
    return g


def path_graph(num_vertices: int) -> Graph:
    """The path P_n."""
    g = Graph(num_vertices)
    for v in range(num_vertices - 1):
        g.add_edge(v, v + 1)
    return g


def cycle_graph(num_vertices: int) -> Graph:
    """The cycle C_n (requires ``n >= 3``; smaller n degrades to a path)."""
    g = path_graph(num_vertices)
    if num_vertices >= 3:
        g.add_edge(num_vertices - 1, 0)
    return g


def star_graph(num_leaves: int) -> Graph:
    """A star with center 0 and ``num_leaves`` leaves."""
    g = Graph(num_leaves + 1)
    for leaf in range(1, num_leaves + 1):
        g.add_edge(0, leaf)
    return g


def complete_bipartite_graph(left: int, right: int) -> Graph:
    """The complete bipartite graph K_{left,right}."""
    g = Graph(left + right)
    for u in range(left):
        for v in range(left, left + right):
            g.add_edge(u, v)
    return g


def grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` grid (4-neighbour lattice).

    Built as one batched :meth:`Graph.add_edges` call: the edge list is
    assembled up front so the graph pays a single snapshot invalidation
    instead of one per edge (the large-n scale-tier contract).
    """
    edges: List[Edge] = []
    push = edges.append
    for r in range(rows):
        base = r * cols
        for c in range(cols):
            v = base + c
            if c + 1 < cols:
                push((v, v + 1))
            if r + 1 < rows:
                push((v, v + cols))
    g = Graph(rows * cols)
    g.add_edges(edges)
    return g


def torus_graph(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` torus (grid with wrap-around), batched like the grid."""
    g = grid_graph(rows, cols)
    edges: List[Edge] = []
    if cols >= 3:
        for r in range(rows):
            edges.append((r * cols, r * cols + cols - 1))
    if rows >= 3:
        for c in range(cols):
            edges.append((c, (rows - 1) * cols + c))
    g.add_edges(edges)
    return g


def hypercube_graph(dimension: int) -> Graph:
    """The ``dimension``-dimensional hypercube Q_d."""
    n = 1 << dimension
    g = Graph(n)
    for v in range(n):
        for bit in range(dimension):
            u = v ^ (1 << bit)
            if u > v:
                g.add_edge(v, u)
    return g


def balanced_tree(branching: int, height: int) -> Graph:
    """A complete ``branching``-ary tree of the given height (height 0 = single root)."""
    if branching < 1:
        raise ValueError("branching factor must be >= 1")
    num_vertices = 1
    layer = 1
    for _ in range(height):
        layer *= branching
        num_vertices += layer
    g = Graph(num_vertices)
    for v in range(1, num_vertices):
        parent = (v - 1) // branching
        g.add_edge(v, parent)
    return g


def caterpillar_graph(spine_length: int, legs_per_vertex: int) -> Graph:
    """A caterpillar: a path (spine) with ``legs_per_vertex`` pendant leaves each."""
    n = spine_length + spine_length * legs_per_vertex
    g = Graph(n)
    for v in range(spine_length - 1):
        g.add_edge(v, v + 1)
    leaf = spine_length
    for v in range(spine_length):
        for _ in range(legs_per_vertex):
            g.add_edge(v, leaf)
            leaf += 1
    return g


def barbell_graph(clique_size: int, path_length: int) -> Graph:
    """Two cliques of ``clique_size`` joined by a path with ``path_length`` interior vertices."""
    n = 2 * clique_size + path_length
    g = Graph(n)
    for u in range(clique_size):
        for v in range(u + 1, clique_size):
            g.add_edge(u, v)
    offset = clique_size + path_length
    for u in range(clique_size):
        for v in range(u + 1, clique_size):
            g.add_edge(offset + u, offset + v)
    chain = [clique_size - 1] + list(range(clique_size, clique_size + path_length)) + [offset]
    for a, b in zip(chain, chain[1:]):
        g.add_edge(a, b)
    return g


def lollipop_graph(clique_size: int, path_length: int) -> Graph:
    """A clique with a pendant path of ``path_length`` vertices."""
    n = clique_size + path_length
    g = Graph(n)
    for u in range(clique_size):
        for v in range(u + 1, clique_size):
            g.add_edge(u, v)
    previous = clique_size - 1
    for v in range(clique_size, n):
        g.add_edge(previous, v)
        previous = v
    return g


def gnp_random_graph(num_vertices: int, edge_probability: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p) with a fixed seed."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")
    rng = random.Random(seed)
    g = Graph(num_vertices)
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < edge_probability:
                g.add_edge(u, v)
    return g


def gnm_random_graph(num_vertices: int, num_edges: int, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, m): exactly ``num_edges`` distinct edges chosen uniformly."""
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise ValueError(f"cannot place {num_edges} edges in a simple graph on {num_vertices} vertices")
    rng = random.Random(seed)
    g = Graph(num_vertices)
    while g.num_edges < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v:
            g.add_edge(u, v)
    return g


def random_connected_graph(num_vertices: int, extra_edges: int, seed: int = 0) -> Graph:
    """A random spanning tree plus ``extra_edges`` random chords: always connected."""
    rng = random.Random(seed)
    g = Graph(num_vertices)
    order = list(range(num_vertices))
    rng.shuffle(order)
    for i in range(1, num_vertices):
        g.add_edge(order[i], order[rng.randrange(i)])
    added = 0
    attempts = 0
    max_attempts = 50 * (extra_edges + 1) + 100
    while added < extra_edges and attempts < max_attempts:
        attempts += 1
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v and g.add_edge(u, v):
            added += 1
    return g


def random_tree(num_vertices: int, seed: int = 0) -> Graph:
    """A uniformly-seeded random spanning tree (random attachment order)."""
    return random_connected_graph(num_vertices, extra_edges=0, seed=seed)


def random_regular_like_graph(num_vertices: int, degree: int, seed: int = 0) -> Graph:
    """An approximately ``degree``-regular graph built by union of random perfect matchings.

    This serves as an expander-like workload (small diameter, no dense clusters).
    """
    rng = random.Random(seed)
    g = Graph(num_vertices)
    vertices = list(range(num_vertices))
    for _ in range(degree):
        rng.shuffle(vertices)
        for i in range(0, num_vertices - 1, 2):
            u, v = vertices[i], vertices[i + 1]
            if u != v:
                g.add_edge(u, v)
    return g


def planted_partition_graph(
    num_clusters: int,
    cluster_size: int,
    p_intra: float,
    p_inter: float,
    seed: int = 0,
) -> Graph:
    """A planted-partition ("community") graph.

    Dense intra-cluster probability ``p_intra`` and sparse inter-cluster
    probability ``p_inter``.  This workload maximizes the number of *popular*
    cluster centers in the early phases of the algorithm and therefore
    exercises the superclustering machinery (Figures 1-2 of the paper).
    """
    rng = random.Random(seed)
    n = num_clusters * cluster_size
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            same = (u // cluster_size) == (v // cluster_size)
            p = p_intra if same else p_inter
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def clustered_path_graph(
    num_clusters: int,
    cluster_size: int,
    seed: int = 0,
) -> Graph:
    """Cliques arranged along a path, adjacent cliques joined by a single edge.

    Large diameter plus dense local structure: the canonical workload where a
    near-additive spanner beats a multiplicative one on long distances.
    """
    n = num_clusters * cluster_size
    g = Graph(n)
    for c in range(num_clusters):
        base = c * cluster_size
        for u in range(cluster_size):
            for v in range(u + 1, cluster_size):
                g.add_edge(base + u, base + v)
        if c + 1 < num_clusters:
            g.add_edge(base + cluster_size - 1, base + cluster_size)
    _ = seed  # kept for interface uniformity
    return g


def preferential_attachment_graph(num_vertices: int, edges_per_vertex: int, seed: int = 0) -> Graph:
    """Barabasi-Albert-style preferential attachment (skewed degrees)."""
    if edges_per_vertex < 1:
        raise ValueError("edges_per_vertex must be >= 1")
    rng = random.Random(seed)
    g = Graph(num_vertices)
    if num_vertices == 0:
        return g
    targets: List[int] = [0]
    for v in range(1, num_vertices):
        chosen = set()
        wanted = min(edges_per_vertex, v)
        while len(chosen) < wanted:
            chosen.add(targets[rng.randrange(len(targets))] if targets else rng.randrange(v))
        for u in chosen:
            if u != v:
                g.add_edge(u, v)
                targets.append(u)
                targets.append(v)
    return g


def watts_strogatz_graph(
    num_vertices: int,
    nearest_neighbors: int = 4,
    rewire_probability: float = 0.1,
    seed: int = 0,
) -> Graph:
    """Watts-Strogatz small-world graph: a ring lattice with rewired chords.

    Starts from a ring where every vertex is joined to its ``nearest_neighbors``
    closest ring neighbours (rounded up to an even count), then rewires each
    edge with probability ``rewire_probability`` to a uniformly random
    endpoint.  Low rewiring keeps the large-diameter lattice structure; a few
    shortcuts collapse the diameter while keeping the graph locally dense --
    the regime where the additive term of a near-additive spanner dominates
    short distances but long distances are preserved almost exactly.
    """
    if not 0.0 <= rewire_probability <= 1.0:
        raise ValueError("rewire_probability must be in [0, 1]")
    rng = random.Random(seed)
    g = Graph(num_vertices)
    if num_vertices < 2:
        return g
    half = max(1, (nearest_neighbors + 1) // 2)
    for v in range(num_vertices):
        for offset in range(1, half + 1):
            u = (v + offset) % num_vertices
            if u == v:
                continue
            if rng.random() < rewire_probability:
                target = rng.randrange(num_vertices)
                attempts = 0
                while (target == v or g.has_edge(v, target)) and attempts < 10:
                    target = rng.randrange(num_vertices)
                    attempts += 1
                if target != v and not g.has_edge(v, target):
                    g.add_edge(v, target)
                    continue
            g.add_edge(v, u)
    return g


def random_geometric_graph(
    num_vertices: int,
    radius: float = 0.15,
    seed: int = 0,
) -> Graph:
    """Random geometric graph: uniform points in the unit square, edges below ``radius``.

    Produces spatially clustered graphs with large hop diameter and strongly
    non-uniform degrees -- a structured counterpoint to ``G(n, p)`` where the
    superclustering phases see genuinely local neighbourhoods.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(num_vertices)]
    g = Graph(num_vertices)
    r2 = radius * radius
    for u in range(num_vertices):
        xu, yu = points[u]
        for v in range(u + 1, num_vertices):
            xv, yv = points[v]
            dx = xu - xv
            dy = yu - yv
            if dx * dx + dy * dy <= r2:
                g.add_edge(u, v)
    return g


def multi_component_graph(
    num_components: int,
    component_size: int,
    seed: int = 0,
) -> Graph:
    """Disconnected union of structurally distinct components.

    Cycles through connected-random, grid-like (clustered path) and tree
    components so a single input exercises several regimes at once while
    staying disconnected.  Spanner constructions must preserve the component
    structure exactly and never pay rounds or edges across components.
    """
    if num_components < 1:
        raise ValueError("num_components must be >= 1")
    components: List[Graph] = []
    for index in range(num_components):
        kind = index % 3
        if kind == 0:
            components.append(
                random_connected_graph(component_size, extra_edges=component_size, seed=seed + index)
            )
        elif kind == 1:
            clusters = max(2, component_size // 4)
            members = max(2, component_size // clusters)
            components.append(clustered_path_graph(clusters, members))
        else:
            components.append(random_tree(component_size, seed=seed + index))
    return disjoint_union(components)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union of several graphs (vertex IDs are shifted)."""
    total = sum(g.num_vertices for g in graphs)
    result = Graph(total)
    offset = 0
    for g in graphs:
        for u, v in g.edges():
            result.add_edge(u + offset, v + offset)
        offset += g.num_vertices
    return result


def add_random_perturbation(graph: Graph, num_extra_edges: int, seed: int = 0) -> Graph:
    """Return a copy of ``graph`` with up to ``num_extra_edges`` random chords added."""
    rng = random.Random(seed)
    g = graph.copy()
    n = g.num_vertices
    if n < 2:
        return g
    attempts = 0
    added = 0
    while added < num_extra_edges and attempts < 50 * (num_extra_edges + 1):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and g.add_edge(u, v):
            added += 1
    return g


# ----------------------------------------------------------------------
# Scale-tier generators (PR 5): O(n + m) expected work, batched insertion
# ----------------------------------------------------------------------
def sparse_gnp_random_graph(num_vertices: int, edge_probability: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p) by geometric skip sampling: O(n + m) expected.

    :func:`gnp_random_graph` draws one uniform per vertex pair -- O(n^2) --
    which caps it at a few thousand vertices.  This variant jumps straight
    from one present edge to the next by sampling the skip length from the
    geometric distribution, so sparse 10k-vertex workloads generate in
    milliseconds.  The two functions draw *different* graphs for the same
    seed (different sampling order); large-n scenarios use this one, the
    historical workloads keep their pinned :func:`gnp_random_graph` inputs.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")
    g = Graph(num_vertices)
    if edge_probability == 0.0 or num_vertices < 2:
        return g
    if edge_probability >= 1.0:
        return complete_graph(num_vertices)
    rng = random.Random(seed)
    log_q = math.log(1.0 - edge_probability)
    edges: List[Edge] = []
    push = edges.append
    # Walk the strictly-lower-triangle pair space (v, w) with w < v, skipping
    # a geometric number of absent pairs between consecutive present edges.
    v = 1
    w = -1
    rand = rng.random
    while v < num_vertices:
        w += 1 + int(math.log(1.0 - rand()) / log_q)
        while w >= v and v < num_vertices:
            w -= v
            v += 1
        if v < num_vertices:
            push((w, v))
    g.add_edges(edges)
    return g


def powerlaw_cluster_graph(
    num_vertices: int,
    edges_per_vertex: int = 2,
    triangle_probability: float = 0.3,
    seed: int = 0,
) -> Graph:
    """Holme-Kim style power-law graph with tunable clustering.

    Grows by preferential attachment (each arrival wires ``edges_per_vertex``
    edges to endpoints sampled proportionally to degree) and, with probability
    ``triangle_probability`` per additional edge, closes a triangle with a
    neighbour of the previous target instead.  Degrees follow a power law as
    in :func:`preferential_attachment_graph` while the triangle steps give the
    local clustering real networks show.  Built through one batched
    :meth:`Graph.add_edges` call.  A preferential step is O(1); a triangle
    step scans the previous target's neighbourhood in deterministic sorted
    order (O(deg log deg), size-biased toward hubs), so generation is O(m)
    plus the triangle terms -- sub-second at scale-tier sizes for moderate
    ``triangle_probability``.
    """
    if edges_per_vertex < 1:
        raise ValueError("edges_per_vertex must be >= 1")
    if not 0.0 <= triangle_probability <= 1.0:
        raise ValueError("triangle_probability must be in [0, 1]")
    g = Graph(num_vertices)
    if num_vertices < 2:
        return g
    rng = random.Random(seed)
    rand = rng.random
    # ``repeated`` lists every edge endpoint twice: sampling an index uniformly
    # is sampling a vertex proportionally to its degree.
    repeated: List[int] = [0]
    adjacency: List[set] = [set() for _ in range(num_vertices)]
    edges: List[Edge] = []
    for v in range(1, num_vertices):
        wanted = min(edges_per_vertex, v)
        adj_v = adjacency[v]
        previous_target: Optional[int] = None
        while len(adj_v) < wanted:
            if (
                previous_target is not None
                and rand() < triangle_probability
                and adjacency[previous_target]
            ):
                # Triangle step: attach to a degree-weighted neighbour of the
                # previous target (closing v - previous_target - u).  The
                # candidate list is built in sorted order: iterating the raw
                # set would tie the generated stream to CPython's set
                # internals, breaking cross-version determinism.
                candidates = [
                    u
                    for u in sorted(adjacency[previous_target])
                    if u != v and u not in adj_v
                ]
                if candidates:
                    u = candidates[rng.randrange(len(candidates))]
                else:
                    u = repeated[rng.randrange(len(repeated))]
            else:
                u = repeated[rng.randrange(len(repeated))]
            if u == v or u in adj_v:
                continue
            adj_v.add(u)
            adjacency[u].add(v)
            edges.append((u, v))
            repeated.append(u)
            repeated.append(v)
            previous_target = u
    g.add_edges(edges)
    return g


def hyperbolic_like_graph(
    num_vertices: int,
    avg_degree: float = 6.0,
    gamma: float = 2.5,
    seed: int = 0,
) -> Graph:
    """Hyperbolic-like sparse graph: power-law hubs plus ring locality.

    Random hyperbolic graphs combine a heavy-tailed degree distribution
    (radial coordinate) with geometric locality (angular coordinate).  This
    generator reproduces both ingredients in O(n + m) expected time:

    * vertex ``v`` gets the deterministic power-law weight
      ``w_v ~ (v + 1)^{-1/(gamma - 1)}`` scaled so the expected average degree
      is ``avg_degree`` -- vertex 0 is the biggest hub;
    * long-range edges are drawn Chung-Lu style (``P[u ~ v] ~ w_u w_v``) with
      geometric skip sampling over the descending weight order;
    * a seeded random circular order contributes one ring of "angular
      neighbour" edges, giving every vertex local structure independent of
      its weight.

    The result is connected-ish, sparse, small-diameter-through-hubs yet
    locally path-like -- the regime the paper's near-additive guarantees
    target on large inputs.
    """
    if avg_degree < 0:
        raise ValueError("avg_degree must be non-negative")
    if gamma <= 2.0:
        raise ValueError("gamma must be > 2 (finite mean degree)")
    g = Graph(num_vertices)
    if num_vertices < 2:
        return g
    rng = random.Random(seed)
    rand = rng.random
    exponent = -1.0 / (gamma - 1.0)
    weights = [float(v + 1) ** exponent for v in range(num_vertices)]
    total = sum(weights)
    # Scale so sum of expected degrees = avg_degree * n: with
    # P[u ~ v] = w_u w_v / S and S = (sum w)^2 / (avg_degree * n), the
    # expected degree of v is ~ avg_degree * n * w_v / sum(w).
    ring_budget = 2.0  # the ring contributes exactly degree 2 per vertex
    chung_lu_degree = max(0.0, avg_degree - ring_budget)
    edges: List[Edge] = []
    if chung_lu_degree > 0:
        s_norm = (total * total) / (chung_lu_degree * num_vertices)
        push = edges.append
        for u in range(num_vertices - 1):
            w_u = weights[u]
            v = u + 1
            p = min(1.0, w_u * weights[v] / s_norm)
            while v < num_vertices and p > 0.0:
                if p < 1.0:
                    # 1 - rand() lies in (0, 1]: rand() itself can return
                    # exactly 0.0, whose log would blow up the skip draw.
                    v += int(math.log(1.0 - rand()) / math.log(1.0 - p))
                if v < num_vertices:
                    q = min(1.0, w_u * weights[v] / s_norm)
                    if rand() < q / p:
                        push((u, v))
                    p = q
                    v += 1
    # Angular ring: a seeded circular order independent of the weights.
    order = list(range(num_vertices))
    rng.shuffle(order)
    for i in range(num_vertices):
        a = order[i]
        b = order[(i + 1) % num_vertices]
        if a != b:
            edges.append((a, b) if a < b else (b, a))
    g.add_edges(edges)
    return g


WORKLOAD_FAMILIES: Tuple[str, ...] = (
    "gnp",
    "gnm",
    "grid",
    "torus",
    "cycle",
    "path",
    "hypercube",
    "tree",
    "caterpillar",
    "barbell",
    "lollipop",
    "planted",
    "clustered_path",
    "preferential",
    "regular",
    "random_connected",
    "small_world",
    "geometric",
    "multi_component",
    "sparse_gnp",
    "powerlaw",
    "hyperbolic",
)


def make_workload(family: str, size: int, seed: int = 0, **kwargs) -> Graph:
    """Build a named workload graph of roughly ``size`` vertices.

    This is the single entry point used by the experiment harness; see
    :data:`WORKLOAD_FAMILIES` for valid names.
    """
    if family == "gnp":
        p = kwargs.get("p", min(1.0, 4.0 / max(size - 1, 1)))
        return gnp_random_graph(size, p, seed=seed)
    if family == "gnm":
        m = kwargs.get("m", 3 * size)
        return gnm_random_graph(size, min(m, size * (size - 1) // 2), seed=seed)
    if family == "grid":
        side = max(2, int(round(size ** 0.5)))
        return grid_graph(side, side)
    if family == "torus":
        side = max(3, int(round(size ** 0.5)))
        return torus_graph(side, side)
    if family == "cycle":
        return cycle_graph(size)
    if family == "path":
        return path_graph(size)
    if family == "hypercube":
        dimension = max(1, int(round(size)).bit_length() - 1)
        return hypercube_graph(dimension)
    if family == "tree":
        return random_tree(size, seed=seed)
    if family == "caterpillar":
        spine = max(1, size // 3)
        return caterpillar_graph(spine, 2)
    if family == "barbell":
        clique = max(3, size // 3)
        return barbell_graph(clique, max(1, size - 2 * clique))
    if family == "lollipop":
        clique = max(3, size // 2)
        return lollipop_graph(clique, max(1, size - clique))
    if family == "planted":
        clusters = kwargs.get("clusters", max(2, size // 16))
        cluster_size = max(2, size // clusters)
        return planted_partition_graph(clusters, cluster_size, kwargs.get("p_intra", 0.6), kwargs.get("p_inter", 0.01), seed=seed)
    if family == "clustered_path":
        clusters = kwargs.get("clusters", max(2, size // 8))
        cluster_size = max(2, size // clusters)
        return clustered_path_graph(clusters, cluster_size, seed=seed)
    if family == "preferential":
        return preferential_attachment_graph(size, kwargs.get("m", 3), seed=seed)
    if family == "regular":
        return random_regular_like_graph(size, kwargs.get("degree", 4), seed=seed)
    if family == "random_connected":
        return random_connected_graph(size, kwargs.get("extra_edges", 2 * size), seed=seed)
    if family == "small_world":
        return watts_strogatz_graph(
            size,
            nearest_neighbors=kwargs.get("nearest_neighbors", 4),
            rewire_probability=kwargs.get("rewire_probability", 0.1),
            seed=seed,
        )
    if family == "geometric":
        # Radius ~ sqrt(6/(pi n)) keeps the expected degree near 6 at every n.
        default_radius = min(1.0, (6.0 / (3.141592653589793 * max(size, 1))) ** 0.5)
        return random_geometric_graph(size, kwargs.get("radius", default_radius), seed=seed)
    if family == "multi_component":
        components = kwargs.get("components", max(2, size // 24))
        component_size = max(3, size // components)
        return multi_component_graph(components, component_size, seed=seed)
    if family == "sparse_gnp":
        p = kwargs.get("p", min(1.0, 4.0 / max(size - 1, 1)))
        return sparse_gnp_random_graph(size, p, seed=seed)
    if family == "powerlaw":
        return powerlaw_cluster_graph(
            size,
            edges_per_vertex=kwargs.get("m", 2),
            triangle_probability=kwargs.get("triangle_probability", 0.3),
            seed=seed,
        )
    if family == "hyperbolic":
        return hyperbolic_like_graph(
            size,
            avg_degree=kwargs.get("avg_degree", 6.0),
            gamma=kwargs.get("gamma", 2.5),
            seed=seed,
        )
    raise ValueError(f"unknown workload family: {family!r}")
