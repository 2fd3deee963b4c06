"""Time-varying communication graphs and per-step edge-list mixing.

A `NominalGraph` fixes the topology; a `GraphSchedule` drops each nominal
link independently with probability q at every step, deterministically per
(seed, step). Sampling is counter-based (Philox4x64 keyed by (seed, k),
one 53-bit uniform per edge index), so step k can be sampled without
sampling any earlier step and identical inputs give identical schedules.
The generator contract is named `philox4x64-v1` and enters the schedule
digest. `GraphSchedule.masks` samples the whole horizon once, on first
use, into a read-only (horizon, m) block whose row k is `active_mask(k)`,
re-keying one generator per step instead of building one: only the key of
one state dict changes, and each chunk of steps draws into one reused
buffer of at most 2^13 uniforms before a single comparison with q;
`active_mask(k)` draws through the same code, one step long. The run loop
and the connectivity analysis read that block and never resample.

Connectivity of one union is one O(n + m) routine, `union_connected`:
forward and reverse reachability from node 0 (undirected links count
both ways) over per-node (arc, head) lists, reading the union's live
flags as a list. The lists are built once per call of `union_connected`
or `windows_connected` and kept nowhere (at n = 3000 they take about
0.7 MB per direction, which a cache would add to every run's peak):
one call builds and drops them one direction at a time, and
`windows_connected` builds both once for all its windows and takes
every union's flags with one `tolist`, so each window's own search makes
no NumPy call. The realized connectivity window B
(`minimal_connectivity_window`) comes from per-start earliest-connect
lengths L(s), all found in one integer computation: window [s, e)
connects exactly when node 0 reaches, and is reached from, every node
along arcs first live at some step in [s, e), so s + L(s) is 1 + the
largest minimax path weight from node 0 when each arc weighs its first
live step at or after s (`_earliest_connect`). Gauss-Seidel sweeps over
the arcs relax those weights for every s at once, O(m K) per sweep for
K steps, until a sweep changes nothing; each sweep reads row views of
the weights made once per search. A schedule finds the lengths
once, over its full horizon, on first use (`GraphSchedule.connect_lengths`);
every horizon prefix derives its own lengths from them in O(K), and
scanning the candidate B costs O(K log K). `check_B_connectivity` judges
each window's union on its own with `union_connected`
(`windows_connected`), a different algorithm from the lengths', so it
stays an independent check of the B they give.

Mixing is one O(F (n + m)) edge-list primitive, `mix`, over a (F, n)
stack of fields: every node keeps its own share of each field and adds
the values arriving along the step's arcs, all fields in one `bincount`
whose bins are the arc heads offset by f*n for row f (cached per graph),
added through a flat view of the stack that each ring slot binds once.
Each node sums the same terms in the same order as a per-field mix. The
edge weights depend on the schedule alone, so they are built for a
(rows, m) block of masks at once, as a weight table whose row r is what
the step needs, in the shape of the stack the step meets it in: a row of
at most STACK_ROW_MAX entries repeated over the stack's F rows, so the
step's ufunc calls do not broadcast, a longer one as one row (`stacked`):

* `metropolis_table` (undirected): w_ij = 1/max(d_i, d_j) both ways on
  active edges, nominal degrees d_i = |N_i| + 1, and self weights
  w_ii = 1 - sum_j w_ij >= 1/d_i > 0: symmetric and doubly stochastic
  with no constant to choose.
* `push_table` (directed): node j keeps z_j / D_j and pushes the same
  share along each active out-arc, D_j = |active out-arcs| + 1; the
  table holds D (for lam, then over v and y) and each arc's live flag
  over the three mixed rows (an inactive arc pushes 0).
* running sums (robust, virtual): the release fractions gamma*mask
  (built in `algorithms`). Shares are 1/(nominal out-degree), and an
  active arc releases the fraction gamma of what it holds. Over real
  plus virtual nodes (nominal arc e is node n + e, holding in-flight
  mass) this is column stochastic with every nonzero weight
  >= tau = min(gamma, 1-gamma)/n.

All three are column stochastic, so mixing keeps the totals that `run`
records as its conservation and mass residuals; those identities, taken
from the states the steps produce, are what checks the weights.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CaseParseError, InvalidGraphError

PRNG_VERSION = "philox4x64-v1"


def checked_int(value, what: str, error: type[Exception], low: int | None = None) -> int:
    """`value` as an int by `operator.index`, which refuses floats (NaN among them), and >= `low` if given.

    Otherwise raises `error` naming `what`.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise error(f"{what} must be >= {low}, got {value}")
    return value


def checked_seed(seed, what: str, error: type[Exception]) -> int:
    """`seed` as an int in [0, 2^64), the key word a Philox stream takes; else `error` naming `what`."""
    seed = checked_int(seed, what, error)
    if not 0 <= seed < 2**64:
        raise error(f"{what} must lie in [0, 2^64), got {seed}")
    return seed


@dataclass(frozen=True)
class NominalGraph:
    """Fixed communication topology: n nodes plus undirected edges or arcs.

    Undirected edges are stored as (min, max) pairs. Every edge must have
    exactly two endpoints, n and every endpoint must be integers
    (`checked_int`), and the graph must be
    connected (undirected) or strongly connected (directed); both are
    checked at construction.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    directed: bool

    def __init__(self, n: int, edges, directed: bool):
        n = checked_int(n, "node count n", InvalidGraphError, 1)
        canon = []
        seen = set()
        for e in edges:
            try:
                i, j = (checked_int(end, "edge endpoint", InvalidGraphError) for end in e)
            except (TypeError, ValueError):  # not iterable, or not two endpoints
                raise InvalidGraphError(f"edge {e!r} must have exactly two endpoints") from None
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidGraphError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise InvalidGraphError(f"self-loop at node {i}")
            key = (i, j) if directed else (min(i, j), max(i, j))
            if key in seen:
                raise InvalidGraphError(f"duplicate edge ({i}, {j})")
            seen.add(key)
            canon.append(key)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "directed", bool(directed))
        if not union_connected(self, [True] * self.m):
            raise InvalidGraphError(f"nominal graph must be {'strongly connected' if self.directed else 'connected'}")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def srcs(self) -> np.ndarray:
        return np.array([e[0] for e in self.edges], dtype=np.intp)

    @cached_property
    def dsts(self) -> np.ndarray:
        return np.array([e[1] for e in self.edges], dtype=np.intp)

    @cached_property
    def arc_bins(self) -> np.ndarray:
        """`mix` bins of the arcs in edge order, for stacks of up to three fields."""
        return offset_bins(self.dsts, 3, self.n)

    @cached_property
    def arcs_by_head(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(edge positions, tails, `mix` bins) of the arcs sorted by (head, tail).

        Summing each node's arrivals by increasing tail makes a push-sum
        mix independent of the order the edges are listed in. The bins
        serve stacks of up to three fields.
        """
        order = np.lexsort((self.srcs, self.dsts))
        return order, self.srcs[order], offset_bins(self.dsts[order], 3, self.n)

    @cached_property
    def metropolis_arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tails, `mix` bins, weights) of both directions of every edge (undirected).

        Edge e = (i, j) gives arc i -> j at position e and j -> i at e + m,
        each weighted 1/max(d_i, d_j) for when the edge is active. The bins
        serve stacks of up to two fields.
        """
        d = self.degrees
        w = 1.0 / np.maximum(d[self.srcs], d[self.dsts])
        both = np.concatenate
        return both([self.srcs, self.dsts]), offset_bins(both([self.dsts, self.srcs]), 2, self.n), both([w, w])

    @cached_property
    def degrees(self) -> np.ndarray:
        """Nominal degrees |N_i| + 1 (undirected)."""
        if self.directed:
            raise InvalidGraphError("nominal degrees are an undirected notion")
        return 1.0 + np.bincount(self.srcs, minlength=self.n) + np.bincount(self.dsts, minlength=self.n)

    @cached_property
    def out_degrees(self) -> np.ndarray:
        """Nominal out-degrees |N_i^+| + 1 (directed)."""
        if not self.directed:
            raise InvalidGraphError("out-degrees are a directed notion")
        return 1.0 + np.bincount(self.srcs, minlength=self.n)

    def relabeled(self, perm) -> "NominalGraph":
        """Graph with node i renamed perm[i]; edge order is preserved."""
        perm = np.asarray(perm, dtype=int)
        edges = [(int(perm[i]), int(perm[j])) for i, j in self.edges]
        return NominalGraph(self.n, edges, self.directed)


@dataclass(frozen=True)
class GraphSchedule:
    """Per-step active edge sets over a nominal graph.

    Every nominal link is present independently with probability 1 - q at
    each step; undirected edges fail as a unit (both directions at once),
    directed arcs fail independently. Identical (seed, nominal, q, k)
    always yield the identical active set.
    """

    nominal: NominalGraph
    q: float
    seed: int
    horizon: int

    def __post_init__(self):
        if not (0.0 <= self.q < 1.0):
            raise InvalidGraphError(f"failure probability q={self.q} outside [0, 1)")
        # seed and horizon stored as ints, so equal values give equal digests
        object.__setattr__(self, "seed", checked_seed(self.seed, "schedule seed", InvalidGraphError))
        object.__setattr__(self, "horizon", checked_int(self.horizon, "schedule horizon", InvalidGraphError, 0))

    def _sample(self, lo: int, hi: int) -> np.ndarray:
        """(hi - lo, m) masks of steps lo..hi-1: the edges whose uniform from Philox4x64 keyed by (seed, k) is >= q.

        One generator re-keyed per step (zero counter, empty buffer) gives the
        stream of a fresh `Philox(key=[seed, k])` without building one. Only
        the key of one state dict changes from step to step; the uniforms of
        a chunk of steps land in one reused buffer of at most 2^13 entries
        (at least one row) and are compared with q once per chunk.
        """
        bits = np.random.Philox(0)
        gen = np.random.Generator(bits)
        m, q, seed = self.nominal.m, self.q, self.seed
        state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
                 "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        key = state["state"]
        block = np.empty((hi - lo, m), dtype=bool)
        buf = np.empty((max(1, min(2**13 // max(m, 1), hi - lo)), m))
        for first in range(lo, hi, len(buf)):
            last = min(first + len(buf), hi)
            for k in range(first, last):
                key["key"] = (seed, k)
                bits.state = state
                gen.random(out=buf[k - first])
            np.greater_equal(buf[: last - first], q, out=block[first - lo : last - lo])
        return block

    def active_mask(self, k: int) -> np.ndarray:
        """Boolean mask over nominal edges active during step k."""
        if not (0 <= k < self.horizon):
            raise InvalidGraphError(f"step {k} outside horizon {self.horizon}")
        return self._sample(k, k + 1)[0]

    @cached_property
    def masks(self) -> np.ndarray:
        """Read-only (horizon, m) block whose row k is `active_mask(k)`.

        Sampled once, over the full horizon, on first access, re-keying one
        generator per step.
        """
        block = self._sample(0, self.horizon)
        block.flags.writeable = False
        return block

    @cached_property
    def connect_lengths(self) -> np.ndarray:
        """Read-only earliest-connect lengths L(s) over the full horizon.

        L(s) is the fewest steps from s whose active sets join into a
        connected union, horizon + 1 where none do. Every start's length
        comes from one minimax path computation (`_earliest_connect`),
        done once, on first access; `minimal_connectivity_window` derives
        the lengths of any horizon prefix from it.
        """
        lengths = _earliest_connect(self.nominal, self.masks)
        lengths.flags.writeable = False
        return lengths

    def digest(self) -> str:
        """Hash identifying (generator, nominal, q, seed, horizon)."""
        parts = [
            PRNG_VERSION,
            str(self.nominal.n),
            "directed" if self.nominal.directed else "undirected",
            ";".join(f"{i},{j}" for i, j in self.nominal.edges),
            format(self.q, ".17g"),
            str(self.seed),
            str(self.horizon),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()


def offset_bins(heads: np.ndarray, rows: int, n: int) -> np.ndarray:
    """Bins r*n + heads[e] for rows r < rows, row after row: where row r's arcs land in a (rows, n) bincount."""
    return (np.arange(rows)[:, None] * n + heads).ravel()


def mix(own: np.ndarray, bins: np.ndarray, arc_values: np.ndarray) -> np.ndarray:
    """One mixing step of a stack of F fields over an edge list, in place, in O(F (n + m)).

    `own` is the stack as one flat view, F rows of N >= n entries: field
    f of node i ends with own[f*N + i] plus the sum of every arc_values[e]
    whose bin is f*N + i, the arcs of each node summed in the order given;
    `own` is updated and returned. `arc_values` is flat, F*m values field
    after field, and `bins` are as many heads offset per field
    (`offset_bins`). The callers bind all three once per run (the flat
    view once per ring slot), so a step slices, reshapes and ravels nothing.
    """
    return np.add(own, np.bincount(bins, arc_values, own.size), out=own)


def row_bincount(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """out[r, i] sums weights[r, e] over the e with index[e] == i, in increasing e, like a per-row bincount.

    One `bincount` over the (rows, len(index)) `weights`, row r's entries binned at r*n + index (`offset_bins`).
    """
    rows = weights.shape[0]
    return np.bincount(offset_bins(index, rows, n), weights=weights.ravel(), minlength=rows * n).reshape(rows, n)


# Step rows of at most this many entries are repeated over the stack they meet (`stacked`); the
# longest row at case39 is pd1's 92 arc weights.
STACK_ROW_MAX = 128


def stacked(table: np.ndarray, fields: int) -> np.ndarray:
    """A row of length L, or each row of a (rows, L) table, as a step multiplies or divides a (fields, L) stack by it.

    Each row is repeated over the stack's rows, (fields, L) or
    (rows, fields, L), so the ufunc call meets operands of one shape and
    takes NumPy's same-shape loop, about 0.5 us faster per call at L = 49.
    A row longer than STACK_ROW_MAX stays one row, (1, L) or (rows, 1, L),
    which the call broadcasts: at n = 3000, reading it `fields` times costs
    the step more than the loop saves.
    """
    row = table[..., None, :]
    return np.repeat(row, fields, axis=-2) if table.shape[-1] <= STACK_ROW_MAX else row


def metropolis_table(nominal: NominalGraph, masks: np.ndarray, fields: int) -> tuple:
    """Metropolis weights of a (rows, m) block of steps for a stack of `fields` rows, in O(rows fields (n + m)).

    Returns the table (self weights (rows, fields, n), arc weights
    (rows, fields, 2m)) over both directions of every nominal edge
    (`metropolis_arcs`), inactive ones weighing 0, each step's weights laid
    out over the stack's rows by `stacked` (one row where a row is long).
    A self weight is 1 - b, b the sum of its node's arc weights.
    """
    tails, _, w = nominal.metropolis_arcs
    w = w * np.concatenate([masks, masks], axis=1)  # inactive edges weigh 0
    return stacked(1.0 - row_bincount(tails, w, nominal.n), fields), stacked(w, fields)


def push_table(nominal: NominalGraph, masks: np.ndarray) -> tuple:
    """Instantaneous out-degrees and live arcs of a (rows, m) block of steps, in O(rows (n + m)).

    Returns the table (D (rows, n), D (rows, 2, n), live (rows, 3, m)):
    D_j = |active out-arcs of j| + 1 as the directed step divides lam by
    it, then laid out over its v and y rows, and each arc's live flag (1.0
    or 0.0, in `arcs_by_head` order) over its three mixed rows, both by
    `stacked`.
    """
    if not nominal.directed:
        raise InvalidGraphError("push matrices require a directed graph")
    order, tails, _ = nominal.arcs_by_head
    live = masks[:, order].astype(float)
    D = 1.0 + row_bincount(tails, live, nominal.n)
    return D, stacked(D, 2), stacked(live, 3)


def _arc_lists(nominal: NominalGraph):
    """Per-node (arc, head) lists for each search, built as the caller takes them: along the arcs, then against them.

    An undirected edge goes both ways in the forward lists, and they are
    the only ones: a forward search reaches what a reverse one would.
    """
    for reverse in (False, True)[: 1 + nominal.directed]:
        out: list[list[tuple[int, int]]] = [[] for _ in range(nominal.n)]
        for a, ends in enumerate(nominal.edges):
            i, j = ends[::-1] if reverse else ends
            out[i].append((a, j))
            if not nominal.directed:
                out[j].append((a, i))
        yield out


def _reaches_all(out: list[list[tuple[int, int]]], live: list[bool]) -> bool:
    """Does node 0 reach every node along the live arcs of the per-node (arc, head) lists `out`?"""
    seen = [True] + [False] * (len(out) - 1)
    stack = [0]
    while stack:
        for a, j in out[stack.pop()]:
            if live[a] and not seen[j]:
                seen[j] = True
                stack.append(j)
    return all(seen)


def union_connected(nominal: NominalGraph, mask, arcs=None) -> bool:
    """Is the subgraph of nominal edges flagged by `mask` (strongly) connected?

    `mask` holds one live flag per edge, as a boolean array or a list of
    bools. Forward and reverse reachability from node 0 over the per-node
    arc lists of each search, `arcs` (`_arc_lists`, built here unless
    given); undirected edges are followed both ways, so the forward search
    suffices. O(n + m). Built here, the lists of one search are dropped
    before the next one's are built.
    """
    live = mask.tolist() if isinstance(mask, np.ndarray) else mask
    return all(map(_reaches_all, _arc_lists(nominal) if arcs is None else arcs, [live] * 2))  # map keeps no lists


def windows_connected(nominal: NominalGraph, masks: np.ndarray, B: int) -> np.ndarray:
    """Per-window verdicts: union of B consecutive active sets is connected.

    `masks` is a (K, m) boolean array of active sets; only complete
    windows [kB, (k+1)B - 1] within K are judged. The unions are built at
    once and read as lists of live flags with one `tolist`, and the arc
    lists are built once; each union is then judged on its own by
    `union_connected`, in O(n + m) and with no NumPy call per window.
    """
    if B < 1:
        raise InvalidGraphError("window length B must be >= 1")
    K, m = masks.shape
    unions = masks[: K // B * B].reshape(K // B, B, m).any(axis=1)
    arcs = list(_arc_lists(nominal))
    return np.array([union_connected(nominal, live, arcs) for live in unions.tolist()], dtype=bool)


def check_B_connectivity(schedule: GraphSchedule, B: int) -> np.ndarray:
    """Window verdicts for the realized schedule over its full horizon, from the window unions themselves."""
    return windows_connected(schedule.nominal, schedule.masks, B)


def _earliest_connect(nominal: NominalGraph, masks: np.ndarray) -> np.ndarray:
    """L[s]: fewest steps from s whose active sets join into a connected union.

    K + 1 marks a start whose union up to the end of `masks` never
    connects. With first[a, s] the first step >= s at which arc a is live
    (K if none is), window [s, e) holds arc a exactly when first[a, s] < e,
    so it connects exactly when every node reaches node 0, and is reached
    from it, along arcs with first[a, s] < e. The earliest end is therefore
    1 + the largest minimax path weight from node 0 under first[:, s], in
    both directions (one for undirected edges, which count both ways).
    `_minimax_from_root` finds those weights for every s at once, in exact
    integer arithmetic.
    """
    K = masks.shape[0]
    first = np.where(masks.T, np.arange(K, dtype=np.int32), np.int32(K))
    first = np.ascontiguousarray(np.minimum.accumulate(first[:, ::-1], axis=1)[:, ::-1])
    arcs = list(zip(range(nominal.m), nominal.srcs.tolist(), nominal.dsts.tolist()))
    backward = [(a, v, u) for a, u, v in arcs]
    directions = [arcs, backward] if nominal.directed else [arcs + backward]
    end = np.max([_minimax_from_root(nominal.n, first, way).max(axis=0) for way in directions], axis=0)
    return np.where(end >= K, K + 1, end + 1 - np.arange(K))


def _minimax_from_root(n: int, first: np.ndarray, arcs: list[tuple[int, int, int]]) -> np.ndarray:
    """d[v, s]: the least, over paths 0 -> v, of the largest first[a, s] on the path; d[0, s] = s.

    `arcs` are (row of `first`, tail, head) triples. Gauss-Seidel sweeps
    relax d[v] = min(d[v], max(d[u], first[a])) over the arcs, alternating
    their order, until a sweep changes nothing. The rows of d and `first`
    are listed once, so a relaxation is two ufunc calls on views it
    already holds.
    """
    K = first.shape[1]
    d = np.full((n, K), K, dtype=first.dtype)
    d[0] = np.arange(K)
    via = np.empty(K, dtype=first.dtype)
    rows, firsts = list(d), list(first)  # row views, made once
    while True:
        before = d.copy()
        for a, u, v in arcs:
            np.minimum(rows[v], np.maximum(rows[u], firsts[a], out=via), out=rows[v])
        if np.array_equal(before, d):
            return d
        arcs = arcs[::-1]


def _prefix_lengths(schedule: GraphSchedule, K: int) -> np.ndarray:
    """`_earliest_connect` of the first K steps, from the cached full-horizon lengths.

    Within the prefix, start s connects after L(s) steps when s + L(s) <= K
    and never (K + 1) otherwise.
    """
    full = schedule.connect_lengths[:K]
    return np.where(np.arange(K) + full <= K, full, K + 1)


def minimal_connectivity_window(schedule: GraphSchedule, K: int | None = None) -> int | None:
    """Smallest B with every complete window connected, or None.

    This is the realized connectivity constant of one sampled schedule; it
    is measured, not assumed. Window [jB, (j+1)B) is connected exactly when
    L[jB] <= B, so after the earliest-connect lengths L each candidate B
    costs O(K/B). B need not be monotone: a B can
    fail while a smaller one passes, because the windows realign.

    The lengths derive from the schedule's cached `connect_lengths`, so
    every K reuses one search.
    """
    K = schedule.horizon if K is None else min(K, schedule.horizon)
    if K < 1:
        return None
    lengths = _prefix_lengths(schedule, K)
    for B in range(int(lengths[0]), K + 1):
        if (lengths[: K - B + 1 : B] <= B).all():
            return B
    return None


def format_graph(graph: NominalGraph) -> str:
    mode = "directed" if graph.directed else "undirected"
    lines = [f"{graph.n} {graph.m} {mode}"]
    lines += [f"{i} {j}" for i, j in graph.edges]
    return "\n".join(lines) + "\n"


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """Non-empty, non-comment lines of `text` with their 1-based numbers."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            out.append((lineno, stripped))
    return out


def is_directed(mode: str) -> bool:
    """The graph mode word: True for 'directed', False for 'undirected', in any case; ValueError otherwise."""
    mode = mode.lower()
    if mode not in ("undirected", "directed"):
        raise ValueError(mode)
    return mode == "directed"


# What each field parser of `parse_fields` (and of the config reader) accepts, for the error that rejects a value.
KINDS = {int: "an integer", float: "a number", is_directed: "'undirected' or 'directed'"}


def parse_fields(line: tuple[int, str], names: str, kinds: tuple) -> list:
    """The values of a numbered line of exactly the fields `names`, field i parsed by kinds[i].

    Each `CaseParseError` carries the line number: a wrong field count
    quotes the line, a value its parser rejects names its field.
    """
    lineno, content = line
    words = content.split()
    if len(words) != len(kinds):
        raise CaseParseError(lineno, f"expected '{names}', got {content!r}")
    values = []
    for name, kind, word in zip(names.split(), kinds, words):
        try:
            values.append(kind(word))
        except ValueError:
            raise CaseParseError(lineno, f"{name} must be {KINDS[kind]}, got {word!r}") from None
    return values


def parse_graph_lines(lines: list[tuple[int, str]]) -> NominalGraph:
    """Parse the graph section: header ``n m mode`` then one edge per line.

    `lines` are (1-based line number, content) pairs; numbers are carried
    into parse errors.
    """
    if not lines:
        raise CaseParseError(0, "missing graph header 'n m mode'")
    n, m, directed = parse_fields(lines[0], "n m mode", (int, int, is_directed))
    if m < 0:
        raise CaseParseError(lines[0][0], f"edge count must be >= 0, got {m}")
    if len(lines) - 1 < m:
        raise CaseParseError(lines[-1][0], f"expected {m} edge lines, found {len(lines) - 1}")
    if len(lines) - 1 > m:
        raise CaseParseError(lines[1 + m][0], f"unexpected content after {m} edge lines")
    edges = [parse_fields(line, "i j", (int, int)) for line in lines[1 : 1 + m]]
    try:
        return NominalGraph(n, edges, directed)
    except InvalidGraphError as exc:
        raise CaseParseError(lines[0][0], str(exc)) from exc


def load_graph(path) -> NominalGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_lines(numbered_lines(fh.read()))
