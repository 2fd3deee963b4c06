"""Time-varying communication graphs and per-step edge-list mixing.

This module holds graphs, schedules, mixing, connectivity and the input
rules for scalars, and opens no file: the graph-file format, like every
file the package reads or writes, is `experiment`'s.

A `NominalGraph` fixes the topology; a `GraphSchedule` drops each nominal
link independently with probability q at every step, deterministically per
(seed, step). Sampling is counter-based (Philox4x64 keyed by (seed, k),
one 53-bit uniform per edge index), so step k can be sampled without
sampling any earlier step and identical inputs give identical schedules.
The generator contract is named `philox4x64-v1` and enters the schedule
digest. A `GraphSchedule` samples its whole horizon once, on first use,
into a private cache of packed bits, (horizon, ceil(m/8)) bytes whose row
k packs `active_mask(k)`, re-keying one generator per step instead of
building one: only the key of one state dict changes, and each chunk of
steps draws into one reused buffer of at most 2^13 uniforms, is compared
with q once and is packed as it goes, so sampling holds no (horizon, m)
bool block. `block(lo, hi)` unpacks rows lo..hi-1 into a fresh bool
array, and `masks` is the read-only `block(0, horizon)`, itself cached,
which only the connectivity analysis reads. `active_mask(k)` draws
through the same code, one step long, and reads no cache. What `run`
reads of a schedule, block by block, is named once, by the protocol
`Schedule`: ``nominal``, ``horizon``, ``seed``, ``digest()`` and
``block(lo, hi)``. Neither the run loop nor the analysis resamples.

The package's input rules for scalars live here, one per number kind, and
every public scalar goes through one of them at its boundary:
`checked_int` (an integer by `operator.index`, so no float passes, with
an optional floor), `checked_real` (a real number in an open or
half-open interval, which NaN fails) and `checked_bool` (a bool). Each
takes the error type its caller raises and names the parameter in it;
`checked_seed` narrows `checked_int` to the 64-bit seed range.

Connectivity is one routine, `_connected`, which judges W unions of
live flags at once: one worklist search from node 0 per direction
(undirected links count both ways, so one search) over per-node bitsets,
where bit w stands for union w. Each arc carries one Python int, the
unions it is live in, taken from 64-bit words of `np.packbits`; a node
is pushed again only when it gains bits, and union w connects when bit w
is set at every node in both searches. `union_connected` is its W = 1
case, and `windows_connected` hands it the unions of every complete
B-window, so a window costs a bit of each search, not a search of its
own. The per-node (bits, head) lists are built per call and kept
nowhere, one direction at a time. The realized connectivity window B
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
the window unions themselves by reachability (`windows_connected`), a
different algorithm from the lengths', so it stays an independent check
of the B they give.

Mixing is one O(F (n + m)) edge-list primitive, `mix`, over a (F, n)
stack of fields: every node keeps its own share of each field and adds
the values arriving along the step's arcs, all fields in one `bincount`
whose bins are the arc heads offset by f*n for row f (cached per graph),
added through a flat view of the stack that each ring slot binds once,
into that view or into one `out` (robust adds its kept shares into its
state). `mix` and `row_bincount` call bincount's C implementation,
past NumPy's array-function dispatcher (`_bincount`). Each node sums
the same terms in the same order as a per-field mix. The edge weights
depend on the schedule alone, so they are written for a (k, m) block of
masks at once, into a weight table a run binds once for blocks of up to
`rows` steps, whose row r is what step r needs, in the shape of the
stack the step meets it in: a row of at most STACK_ROW_MAX entries
repeated over the stack's F rows, so the step's ufunc calls do not
broadcast, a longer one as one row (`stacked`, `stacked_empty`). Each
binder returns the table and its ``fill(masks)``:

* `metropolis_table` (undirected): w_ij = 1/max(d_i, d_j) both ways on
  active edges, nominal degrees d_i = |N_i| + 1, and self weights
  w_ii = 1 - sum_j w_ij >= 1/d_i > 0: symmetric and doubly stochastic
  with no constant to choose.
* `push_table` (directed): node j keeps z_j / D_j and pushes the same
  share along each active out-arc, D_j = |active out-arcs| + 1; the
  table holds D (for lam, then over v and y) and each arc's live flag
  over the three mixed rows (an inactive arc pushes 0).
* running sums (robust, virtual): the release fractions gamma*mask
  (bound in `algorithms`). Shares are 1/(nominal out-degree), and an
  active arc releases the fraction gamma of what it holds. Over real
  plus virtual nodes (one per nominal arc, holding its in-flight mass;
  the analysis numbers arc e's node n + e, while the states keep the
  in-flight values as (3, m) arc rows beside the (F, n) node stack,
  which mixes over the arc heads as any other) this is column stochastic
  with every nonzero weight >= tau = min(gamma, 1-gamma)/n.

All three are column stochastic, so mixing keeps the totals that `run`
records as its conservation and mass residuals; those identities, taken
from the states the steps produce, are what checks the weights.
"""

from __future__ import annotations

import hashlib
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Protocol

import numpy as np

from .errors import InvalidGraphError

PRNG_VERSION = "philox4x64-v1"
# bincount's C implementation, which np.bincount reaches through NumPy's array-function dispatcher.
_bincount = getattr(np.bincount, "_implementation", np.bincount)


_BOOLS = (bool, np.bool_)  # what `checked_bool` takes, and no other checker


def checked_int(value, what: str, error: type[Exception], low: int | None = None) -> int:
    """`value` as an int by `operator.index`, which refuses floats (NaN among them), and >= `low` if given.

    A bool (Python's or NumPy's) is no integer here: `checked_bool` takes it.
    Otherwise raises `error` naming `what`.
    """
    try:
        value = operator.index(None if isinstance(value, _BOOLS) else value)  # index would take a bool as 0 or 1
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise error(f"{what} must be >= {low}, got {value}")
    return value


def checked_real(value, what: str, error: type[Exception], low=0, high=np.inf, closed=False):
    """`value` if it is a real number (`numbers.Real`) in (low, high), or in [low, high) when `closed`; NaN fails.

    Otherwise raises `error` naming `what` and quoting the value by `repr`:
    ``xi='1' must be positive and finite`` for the default (0, inf), else
    ``gamma=None must be a real number in (0, 1)``, the ends written by
    `str`. A str, None or bool (Python's or NumPy's, which `checked_bool`
    takes) is no real number, so it fails before any comparison.
    """
    number = isinstance(value, numbers.Real) and not isinstance(value, _BOOLS)
    if number and (low <= value if closed else low < value) and value < high:
        return value
    default = (low, high, closed) == (0, np.inf, False)
    rule = "positive and finite" if default else f"a real number in {'[' if closed else '('}{low}, {high})"
    raise error(f"{what}={value!r} must be {rule}")


def checked_bool(value, what: str, error: type[Exception]) -> bool:
    """`value` as a bool if it is one (Python's or NumPy's); otherwise raises `error` naming `what`."""
    if not isinstance(value, _BOOLS):
        raise error(f"{what} must be True or False, got {value!r}")
    return bool(value)


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
    (`checked_int`), `directed` a bool (`checked_bool`), and the graph must
    be connected (undirected) or strongly connected (directed); all are
    checked at construction.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    directed: bool

    def __init__(self, n: int, edges, directed: bool):
        n = checked_int(n, "node count n", InvalidGraphError, 1)
        directed = checked_bool(directed, "directed", InvalidGraphError)
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
        object.__setattr__(self, "directed", directed)
        if not union_connected(self, np.ones(self.m, dtype=bool)):
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

    def tail_bins(self, rows: int) -> np.ndarray:
        """`offset_bins` of the tails whose arc weights a weight table sums per node, for blocks of up to `rows` steps.

        The tails are those of `metropolis_arcs` (undirected) or of
        `arcs_by_head` (directed). The graph keeps the bins of the most rows
        asked for, which serve every block of as many rows or fewer
        (`row_bincount`). Written afresh for each run they took about 0.2
        ms of a 39-agent pd1 run's set-up, more than it spends on anything else.
        """
        tails = self.arcs_by_head[1] if self.directed else self.metropolis_arcs[0]
        bins = self.__dict__.get("_tail_bins")
        if bins is None or len(bins) < rows * len(tails):
            bins = self.__dict__["_tail_bins"] = offset_bins(tails, rows, self.n)
        return bins

    # The edge list as the schedule digest hashes it, "i,j" pairs joined by ";": formed once per graph.
    edge_text = cached_property(lambda self: ";".join(f"{i},{j}" for i, j in self.edges))

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
        """Graph with node i renamed perm[i]; edge order is preserved. `perm` must be a permutation of range(n)."""
        perm = [checked_int(node, "perm entry", InvalidGraphError) for node in perm]
        if sorted(perm) != list(range(self.n)):
            raise InvalidGraphError(f"perm must be a permutation of range({self.n})")
        edges = [(perm[i], perm[j]) for i, j in self.edges]
        return NominalGraph(self.n, edges, self.directed)


class Schedule(Protocol):
    """What `run` reads of a schedule: the active links of each step, a block of steps at a time.

    ``nominal`` is the graph whose links the masks flag, ``horizon`` the
    number of steps, ``seed`` the seed the trace records (None for a
    schedule drawn from none) and ``digest()`` the hash it records.
    ``block(lo, hi)`` is a fresh (hi - lo, m) bool array whose row r is
    the active mask of step lo + r, for 0 <= lo <= hi <= horizon.
    `GraphSchedule` is one; so is any object with these members.
    """

    nominal: NominalGraph
    horizon: int
    seed: int | None

    def digest(self) -> str: ...

    def block(self, lo: int, hi: int) -> np.ndarray: ...


@dataclass(frozen=True)
class GraphSchedule:
    """Per-step active edge sets over a nominal graph.

    Every nominal link is present independently with probability 1 - q at
    each step; undirected edges fail as a unit (both directions at once),
    directed arcs fail independently. Identical (seed, nominal, q, k)
    always yield the identical active set. q must be a real number in
    [0, 1) (`checked_real`), the seed a 64-bit seed (`checked_seed`) and
    the horizon an integer >= 0 (`checked_int`); otherwise
    `InvalidGraphError` names the parameter.

    The horizon is sampled once, on first use of `block` or `masks`, into
    a private cache of packed bits, one bit per link and step:
    (horizon, ceil(m/8)) bytes, an eighth of the bool block. `block(lo,
    hi)` unpacks rows from it, so `run`, which reads one block of steps at
    a time, holds no horizon-sized bool array; `masks` unpacks the whole
    horizon once, for the connectivity analysis.
    """

    nominal: NominalGraph
    q: float
    seed: int
    horizon: int

    def __post_init__(self):
        q = checked_real(self.q, "failure probability q", InvalidGraphError, 0, 1, closed=True)
        # q stored with -0.0 as 0.0, and seed and horizon as ints, so equal values give equal digests
        object.__setattr__(self, "q", q + 0.0)
        object.__setattr__(self, "seed", checked_seed(self.seed, "schedule seed", InvalidGraphError))
        object.__setattr__(self, "horizon", checked_int(self.horizon, "schedule horizon", InvalidGraphError, 0))

    def _sample(self, lo: int, hi: int) -> np.ndarray:
        """Packed masks of steps lo..hi-1, (hi - lo, ceil(m/8)) uint8: the edges whose Philox uniform is >= q.

        Step k's uniforms come from Philox4x64 keyed by (seed, k). One
        generator re-keyed per step (zero counter, empty buffer) gives the
        stream of a fresh `Philox(key=[seed, k])` without building one. Only
        the key of one state dict changes from step to step; the uniforms of
        a chunk of steps land in one reused buffer of at most 2^13 entries
        (at least one row), are compared with q once per chunk and packed
        (`np.packbits`, first edge in the high bit), so no (hi - lo, m) bool
        block is made.
        """
        bits = np.random.Philox(0)
        gen = np.random.Generator(bits)
        m, q, seed = self.nominal.m, self.q, self.seed
        state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
                 "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        key = state["state"]
        packed = np.empty((hi - lo, (m + 7) // 8), dtype=np.uint8)
        buf = np.empty((max(1, min(2**13 // max(m, 1), hi - lo)), m))
        for first in range(lo, hi, len(buf)):
            last = min(first + len(buf), hi)
            for k in range(first, last):
                key["key"] = (seed, k)
                bits.state = state
                gen.random(out=buf[k - first])
            packed[first - lo : last - lo] = np.packbits(buf[: last - first] >= q, axis=1)
        return packed

    def active_mask(self, k: int) -> np.ndarray:
        """Boolean mask over nominal edges active during step k, an integer in [0, horizon), sampled on its own."""
        k = checked_int(k, "step k", InvalidGraphError)
        if not (0 <= k < self.horizon):
            raise InvalidGraphError(f"step {k} outside horizon {self.horizon}")
        return np.unpackbits(self._sample(k, k + 1)[0], count=self.nominal.m).view(bool)

    @cached_property
    def _bits(self) -> np.ndarray:
        """The packed masks of the whole horizon, sampled on first access."""
        return self._sample(0, self.horizon)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """A fresh (hi - lo, m) bool array whose row r is `active_mask(lo + r)`, unpacked from the packed cache.

        lo and hi are integers (`checked_int`) with 0 <= lo <= hi <=
        horizon; otherwise `InvalidGraphError` names the bound.
        """
        lo = checked_int(lo, "block start lo", InvalidGraphError, 0)
        hi = checked_int(hi, "block end hi", InvalidGraphError, lo)
        if hi > self.horizon:
            raise InvalidGraphError(f"block end hi must be <= horizon {self.horizon}, got {hi}")
        return np.unpackbits(self._bits[lo:hi], axis=1, count=self.nominal.m).view(bool)

    @cached_property
    def masks(self) -> np.ndarray:
        """Read-only (horizon, m) block whose row k is `active_mask(k)`: `block(0, horizon)`, kept.

        The connectivity analysis reads it (`connect_lengths`,
        `check_B_connectivity`); `run` reads `block` and leaves it unmade.
        """
        block = self.block(0, self.horizon)
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
            self.nominal.edge_text,
            format(self.q, ".17g"),
            str(self.seed),
            str(self.horizon),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()


def offset_bins(heads: np.ndarray, rows: int, n: int) -> np.ndarray:
    """Bins r*n + heads[e] for rows r < rows, row after row: where row r's arcs land in a (rows, n) bincount."""
    return (np.arange(rows)[:, None] * n + heads).ravel()


def mix(own: np.ndarray, bins: np.ndarray, arc_values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One mixing step of a stack of F fields over an edge list, in O(F (n + m)), into `out` or in place.

    `own` is the stack as one flat view, F rows of n entries: field f of
    node i ends with own[f*n + i] plus the sum of every arc_values[e]
    whose bin is f*n + i, the arcs of each node summed in the order given;
    the result is written to `out`, or to `own` where `out` is None, and
    returned. `arc_values` is flat, F*m values field after field, and
    `bins` are as many heads offset per field (`offset_bins`). The callers
    bind all of them once per run (the flat views once per ring slot), so a
    step slices, reshapes and ravels nothing.
    """
    return np.add(own, _bincount(bins, arc_values, own.size), own if out is None else out)


def row_bincount(bins: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """out[r, i] sums weights[r, e] over the e whose bin is r*n + i, in increasing e, like a per-row bincount.

    `bins` are `offset_bins(index, R, n)` for some R >= the rows of the
    (rows, len(index)) `weights`, so one set serves every block of up to R
    rows; one `bincount` sums every row.
    """
    rows = len(weights)
    return _bincount(bins[: weights.size], weights.reshape(-1), rows * n).reshape(rows, n)


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


def stacked_empty(rows: int, length: int, fields: int) -> np.ndarray:
    """An unwritten table of `rows` rows of `length` entries, laid out as `stacked` lays such a table out."""
    return np.empty((rows, fields if length <= STACK_ROW_MAX else 1, length))


def metropolis_table(nominal: NominalGraph, rows: int, fields: int) -> tuple:
    """The Metropolis weight table of blocks of up to `rows` steps for a stack of `fields` rows, and its fill.

    Returns ``(table, fill)``. The table is (self weights (rows, fields,
    n), arc weights (rows, fields, 2m)) over both directions of every
    nominal edge (`metropolis_arcs`), each step's weights laid out over the
    stack's rows as `stacked` lays them (one row where a row is long).
    ``fill(masks)`` writes the first k rows from a (k, m) block of masks,
    k <= rows, in O(k fields (n + m)): inactive edges weigh 0, and a self
    weight is 1 - b, b the sum of its node's arc weights, from one
    `bincount` over the graph's `tail_bins`.
    """
    n, m, w, bins = nominal.n, nominal.m, nominal.metropolis_arcs[2], nominal.tail_bins(rows)
    self_w, arcs = stacked_empty(rows, n, fields), stacked_empty(rows, 2 * m, fields)
    flat = np.empty((rows, 2 * m)) if arcs.shape[1] > 1 else arcs[:, 0]  # each step's arc weights as one row

    def fill(masks: np.ndarray) -> None:
        k = len(masks)
        np.multiply(w.reshape(2, m), masks[:, None, :], flat[:k].reshape(k, 2, m))
        np.subtract(1.0, row_bincount(bins, flat[:k], n)[:, None], self_w[:k])
        if flat.base is None:  # the rows repeated over the stack
            arcs[:k] = flat[:k, None]

    return (self_w, arcs), fill


def push_table(nominal: NominalGraph, rows: int) -> tuple:
    """The push-sum weight table of blocks of up to `rows` steps, and its fill.

    Returns ``(table, fill)``. The table is (D (rows, n), D (rows, 2, n),
    live (rows, 3, m)): D_j = |active out-arcs of j| + 1 as the directed
    step divides lam by it, then laid out over its v and y rows, and each
    arc's live flag (1.0 or 0.0, in `arcs_by_head` order) over its three
    mixed rows, both as `stacked` lays them; D's rows are the first row of
    each step's D over v and y. ``fill(masks)`` writes the first k rows
    from a (k, m) block of masks, k <= rows, in O(k (n + m)), with one
    `bincount` over the graph's `tail_bins`.
    """
    if not nominal.directed:
        raise InvalidGraphError("push matrices require a directed graph")
    order, n, bins = nominal.arcs_by_head[0], nominal.n, nominal.tail_bins(rows)
    D, live = stacked_empty(rows, n, 2), stacked_empty(rows, nominal.m, 3)

    def fill(masks: np.ndarray) -> None:
        flags = masks.take(order, 1)  # C order: masks[:, order] comes out column-major
        np.copyto(live[: len(flags)], flags[:, None])
        np.add(1.0, row_bincount(bins, flags, n)[:, None], D[: len(flags)])

    return (D[:, 0], D, live), fill


def _connected(nominal: NominalGraph, unions: np.ndarray) -> np.ndarray:
    """Which of the W unions, a (W, m) bool array of live flags, are (strongly) connected: a (W,) bool array.

    One worklist search per direction, along the arcs and against them (one
    for undirected edges, which go both ways), over per-node bitsets: bit w
    of node i's int is set once node 0 is found to reach i (or, against the
    arcs, to be reached from it) in union w. Each arc carries one int, the
    unions it is live in, gathered from 64-bit words of `np.packbits`. Node
    0 starts with every bit set; a popped node passes along each arc the
    bits it holds, the arc carries and the head lacks, and a head is pushed
    again whenever it gains some. Union w connects when bit w is set at
    every node after every search. A pop costs the node's degree in
    operations on W-bit ints, and a node is popped once per gain: once in
    all for one union, so O(n + m) at W = 1.
    """
    W = len(unions)
    words = np.zeros((nominal.m, W // 64 * 64 + 64), dtype=bool)  # arc a's row: its unions, then zeros to a word's end
    words[:, :W] = unions.T
    live, *more = np.packbits(words, axis=1, bitorder="little").view("<u8").T.tolist()  # bit w of arc a: union w
    for k, column in enumerate(more, 1):
        live = [bits | word << 64 * k for bits, word in zip(live, column)]
    everywhere = verdict = (1 << W) - 1
    for reverse in (False, True)[: 1 + nominal.directed]:
        out: list[list[tuple[int, int]]] = [[] for _ in range(nominal.n)]  # per node, (arc's unions, head)
        for bits, (i, j) in zip(live, nominal.edges):
            out[j if reverse else i].append((bits, i if reverse else j))
            if not nominal.directed:
                out[j].append((bits, i))
        reach, stack = [everywhere] + [0] * (nominal.n - 1), [0]
        while stack:
            have = reach[u := stack.pop()]
            for bits, v in out[u]:
                gain = have & bits & ~reach[v]
                if gain:
                    reach[v] |= gain
                    stack.append(v)
        verdict = reduce(operator.and_, reach, verdict)
    return np.unpackbits(bytearray(verdict.to_bytes(W // 8 + 1, "little")), count=W, bitorder="little").view(bool)


def union_connected(nominal: NominalGraph, mask) -> bool:
    """Is the subgraph of nominal edges flagged by `mask` (strongly) connected?

    `mask` holds one live flag per edge, as a boolean array or a list of
    bools. This is `_connected` of one union: forward and reverse
    reachability from node 0, undirected edges followed both ways, in
    O(n + m).
    """
    return bool(_connected(nominal, np.asarray(mask, dtype=bool)[None])[0])


def windows_connected(nominal: NominalGraph, masks: np.ndarray, B: int) -> np.ndarray:
    """Per-window verdicts: union of B consecutive active sets is connected.

    `masks` is a (K, m) boolean array of active sets; only complete
    windows [kB, (k+1)B - 1] within K are judged. The unions are built at
    once and judged together by `_connected`, whose searches carry one bit
    per window, so the cost of a window is a bit, not a search. B must be
    an integer >= 1 (`checked_int`).
    """
    B = checked_int(B, "window length B", InvalidGraphError, 1)
    return _connected(nominal, masks[: len(masks) // B * B].reshape(len(masks) // B, B, masks.shape[1]).any(axis=1))


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
    every K reuses one search. K, if given, must be an integer >= 0.
    """
    K = schedule.horizon if K is None else min(checked_int(K, "prefix length K", InvalidGraphError, 0), schedule.horizon)
    if K < 1:
        return None
    lengths = _prefix_lengths(schedule, K)
    for B in range(int(lengths[0]), K + 1):
        if (lengths[: K - B + 1 : B] <= B).all():
            return B
    return None

