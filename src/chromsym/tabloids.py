"""Special rim hook tabloids and their vertex-filled refinements.

A rim hook is a connected strip of boundary cells, read from its southwest
end to its northeast end in N-steps (row decreases) and E-steps (column
increases); it is special when it reaches column 1. A tabloid tiles a shape
with special rim hooks so that they can be peeled off bottom hook first,
leaving a partition shape at every stage. The sign is (-1) to the number of
N-steps, and the content lists hook lengths from the bottom hook up.

Filled tabloids additionally place every vertex of a graph in a cell so that
each hook holds a stable set that increases southwest to northeast in a
chosen vertex order.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType

from ._util import iter_bits
from .errors import CapExceededError, NoAscentError, OrderIncompatibleError, SizeMismatchError
from .partitions import Composition, Diagram, Partition, aspartition
from .posets import Graph, Poset


class RimHook:
    """An ordered strip of cells from southwest to northeast."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        cells = tuple((int(r), int(c)) for r, c in cells)
        if not cells:
            raise ValueError("a rim hook has at least one cell")
        if cells[0][1] != 1:
            raise ValueError(f"special rim hooks start in column 1, got {cells[0]}")
        for (r1, c1), (r2, c2) in zip(cells, cells[1:]):
            if (r2 - r1, c2 - c1) not in ((-1, 0), (0, 1)):
                raise ValueError(f"cells {(r1, c1)} and {(r2, c2)} are not an N- or E-step")
        # monotone N/E walks can never close a 2x2 block
        self.cells = cells

    @property
    def length(self) -> int:
        return len(self.cells)

    @property
    def steps(self) -> str:
        """Step word, e.g. 'EN' for an E-step followed by an N-step."""
        return "".join(
            "N" if r2 < r1 else "E"
            for (r1, _), (r2, _) in zip(self.cells, self.cells[1:])
        )

    @property
    def n_steps(self) -> int:
        return sum(1 for (r1, _), (r2, _) in zip(self.cells, self.cells[1:]) if r2 < r1)

    def __eq__(self, other) -> bool:
        if isinstance(other, RimHook):
            return self.cells == other.cells
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"RimHook({list(self.cells)})"


class SRHTabloid:
    """A tiling of a partition shape by special rim hooks, bottom hook first."""

    __slots__ = ("shape", "hooks")

    def __init__(self, shape, hooks):
        self.shape = aspartition(shape)
        self.hooks = tuple(hooks)

    @property
    def sign(self) -> int:
        return -1 if sum(h.n_steps for h in self.hooks) % 2 else 1

    @property
    def content(self) -> Composition:
        return Composition(h.length for h in self.hooks)

    def validate(self):
        """Re-check the tiling from scratch; raises ValueError on any defect."""
        remaining = set(Diagram(self.shape).cells)
        covered = set()
        for hook in self.hooks:
            cells = set(hook.cells)
            if cells & covered:
                raise ValueError("hooks overlap")
            if not cells <= remaining:
                raise ValueError("hook not contained in the current shape")
            for r, c in cells:
                if (r + 1, c + 1) in remaining:
                    raise ValueError(f"cell {(r, c)} is not on the southeast boundary")
            remaining -= cells
            for r, c in remaining:
                if c > 1 and (r, c - 1) not in remaining:
                    raise ValueError("removal does not leave a partition shape")
                if r > 1 and (r - 1, c) not in remaining:
                    raise ValueError("removal does not leave a partition shape")
            covered |= cells
        if remaining:
            raise ValueError("hooks do not tile the shape")

    def to_json(self) -> dict:
        return {
            "shape": self.shape.to_json(),
            "hooks": [[list(cell) for cell in h.cells] for h in self.hooks],
            "sign": self.sign,
            "content": list(self.content),
        }

    def __eq__(self, other) -> bool:
        if isinstance(other, SRHTabloid):
            return self.shape == other.shape and frozenset(
                h.cells for h in self.hooks
            ) == frozenset(h.cells for h in other.hooks)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.shape, frozenset(h.cells for h in self.hooks)))

    def __repr__(self) -> str:
        return f"SRHTabloid(shape={self.shape!r}, content={list(self.content)})"


class SRHGTabloid:
    """A special rim hook tabloid filled bijectively with graph vertices."""

    __slots__ = ("tabloid", "filling")

    def __init__(self, tabloid: SRHTabloid, filling: dict):
        self.tabloid = tabloid
        self.filling = dict(filling)

    @property
    def shape(self) -> Partition:
        return self.tabloid.shape

    @property
    def sign(self) -> int:
        return self.tabloid.sign

    def tail_sequence(self) -> tuple:
        """Vertices of the length-1 rows, read from the bottom row up."""
        shape = self.tabloid.shape
        rows = [r for r in range(len(shape), 0, -1) if shape[r - 1] == 1]
        return tuple(self.filling[(r, 1)] for r in rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, SRHGTabloid):
            return self.tabloid == other.tabloid and self.filling == other.filling
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            (
                self.tabloid.shape,
                frozenset(h.cells for h in self.tabloid.hooks),
                tuple(sorted(self.filling.items())),
            )
        )

    def __repr__(self) -> str:
        return f"SRHGTabloid({self.tabloid!r}, filling={self.filling})"


@cache
def _tilings(shape: tuple[int, ...]) -> tuple:
    """All special rim hook tilings of `shape`, each as hook cell paths.

    The hook through the bottom-left cell of a shape with ell rows is forced
    once its top row t is chosen: it sweeps the bottom row, then hugs the rim
    up through rows ell-1..t. Peeling it leaves the shape with row r replaced
    by row r+1 shortened by one for t <= r < ell, so recursing enumerates
    every tiling exactly once, bottom hook first and in original coordinates.
    """
    if not shape:
        return ((),)
    ell = len(shape)
    out = []
    for top in range(ell, 0, -1):
        cells = [(ell, c) for c in range(1, shape[ell - 1] + 1)]
        for r in range(ell - 1, top - 1, -1):
            cells.extend((r, c) for c in range(shape[r], shape[r - 1] + 1))
        rest = shape[: top - 1] + tuple(shape[r] - 1 for r in range(top, ell))
        while rest and rest[-1] == 0:
            rest = rest[:-1]
        hook = tuple(cells)
        for tail in _tilings(rest):
            out.append((hook,) + tail)
    return tuple(out)


# A content is coded as one integer: the multiplicity of part k sits in bits
# _SLOT*(k-1) .. _SLOT*k - 1, so adding a hook of k cells adds 1 << _SLOT*(k-1).
_SLOT = 8
_SLOT_MASK = (1 << _SLOT) - 1


def _content_code(parts) -> int:
    """The integer code of a content, in any order of its parts."""
    code = 0
    for k in parts:
        code += 1 << (_SLOT * (k - 1))
    return code


def _content_parts(code: int) -> tuple[int, ...]:
    """The content, sorted decreasingly, that :func:`_content_code` coded."""
    parts = []
    k = 1
    while code:
        parts.extend((k,) * (code & _SLOT_MASK))
        code >>= _SLOT
        k += 1
    parts.reverse()
    return tuple(parts)


@cache
def _peel(shape: tuple[int, ...], cap: int) -> dict:
    """{content code: sum of signs} over the tilings of `shape` whose hooks
    all have at most `cap` cells; contents whose signs cancel are left out.

    Peels the bottom hook exactly as :func:`_tilings` does, but keeps only
    the census of what is left: the hook of top row t adds its length to
    every content and flips the sign once per row it climbs. The hook only
    grows as t climbs, so the peeling stops at the first one over `cap`.
    Contents are keyed by :func:`_content_code`; a shape of more cells than
    a slot can count is refused.
    """
    if not shape:
        return {0: 1}
    if sum(shape) > _SLOT_MASK:
        raise CapExceededError(f"the census codes at most {_SLOT_MASK} cells, got {sum(shape)}")
    ell = len(shape)
    out = {}
    length = shape[-1]
    for top in range(ell, 0, -1):
        if top < ell:
            length += shape[top - 1] - shape[top] + 1
        if length > cap:
            break
        rest = shape[: top - 1] + tuple(shape[r] - 1 for r in range(top, ell))
        while rest and rest[-1] == 0:
            rest = rest[:-1]
        step = 1 << (_SLOT * (length - 1))
        flip = (ell - top) % 2
        for code, sign in _peel(rest, cap).items():
            key = code + step
            out[key] = out.get(key, 0) + (-sign if flip else sign)
    return {code: sign for code, sign in out.items() if sign}


def signed_content_census(lam) -> MappingProxyType:
    """{type: sum of signs} over the special rim hook tabloids of shape `lam`,
    grouped by sorted content; types whose signs cancel are left out.

    By Egecioglu-Remmel this is the column `lam` of the inverse Kostka
    matrix. Decoded from the memoized peeling of the bottom hook
    (:func:`_peel` with no hook bound); its types are plain part tuples.
    """
    lam = aspartition(lam)
    return MappingProxyType(
        {_content_parts(code): sign for code, sign in _peel(lam, lam.n).items()}
    )


def count_srh_tabloids(lam) -> int:
    """Number of special rim hook tabloids of the given shape."""
    return len(_tilings(aspartition(lam)))


def enumerate_srh_tabloids(lam) -> list[SRHTabloid]:
    """All special rim hook tabloids of shape `lam`, each exactly once."""
    lam = aspartition(lam)
    return [
        SRHTabloid(lam, tuple(RimHook(cells) for cells in tiling))
        for tiling in _tilings(lam)
    ]


def _resolve_order(order, n: int) -> Poset:
    if order is None:
        return Poset.chain(n)
    if not isinstance(order, Poset):
        raise TypeError("order must be a Poset or None for the index total order")
    if order.size != n:
        raise SizeMismatchError(f"order has {order.size} elements, graph has {n}")
    return order


def check_order_compatible(graph: Graph, order: Poset):
    """Every non-adjacent pair must be comparable in the order."""
    for u in range(graph.size):
        for v in range(u + 1, graph.size):
            if not graph.adjacent(u, v) and not order.comparable(u, v):
                raise OrderIncompatibleError(
                    f"vertices {u} and {v} are non-adjacent but incomparable"
                )


def _fillings(graph: Graph, order: Poset, shape: tuple[int, ...], tiling, tail_filter: bool):
    """Yield vertex assignments for the concatenated cells of `tiling`.

    Cells are visited bottom hook first, southwest to northeast within a
    hook, so tail cells appear in bottom-to-top order and the non-increasing
    tail restriction can prune as soon as a tail cell is placed.
    """
    n = graph.size
    full = (1 << n) - 1
    adj = graph._adj
    strict_above = tuple(order.strictly_above_mask(v) for v in range(n))
    entries = []
    for cells in tiling:
        for i, (r, c) in enumerate(cells):
            entries.append((i == 0, c == 1 and shape[r - 1] == 1))
    total = len(entries)
    acc = [0] * total

    def rec(idx, used, banned, prev, last_tail):
        if idx == total:
            yield tuple(acc)
            return
        hook_start, is_tail = entries[idx]
        if hook_start:
            banned = 0
            cand = full & ~used
        else:
            cand = strict_above[prev] & ~used & ~banned
        for v in iter_bits(cand):
            if tail_filter and is_tail and last_tail >= 0 and order.leq(last_tail, v):
                continue
            acc[idx] = v
            yield from rec(
                idx + 1,
                used | (1 << v),
                banned | adj[v],
                v,
                v if is_tail else last_tail,
            )

    yield from rec(0, 0, 0, -1, -1)


def _shape_and_order(graph: Graph, order, lam) -> tuple[Partition, Poset]:
    """The shape, which must have one cell per vertex, and the resolved
    vertex order, which must be compatible with the graph."""
    lam = aspartition(lam)
    if lam.n != graph.size:
        raise SizeMismatchError(
            f"shape has {lam.n} cells but the graph has {graph.size} vertices"
        )
    order = _resolve_order(order, graph.size)
    check_order_compatible(graph, order)
    return lam, order


def enumerate_srh_g_tabloids(
    graph: Graph, order, lam, tail_filter: bool = False
) -> list[SRHGTabloid]:
    """All filled tabloids of shape `lam` for the graph under the given order.

    `order` is a Poset on the vertices, or None for the index total order.
    With tail_filter=True only tabloids whose tail sequence is non-increasing
    are produced.
    """
    lam, order = _shape_and_order(graph, order, lam)
    out = []
    for tiling in _tilings(lam):
        flat = [cell for cells in tiling for cell in cells]
        tabloid = SRHTabloid(lam, tuple(RimHook(cells) for cells in tiling))
        for assignment in _fillings(graph, order, lam, tiling, tail_filter):
            out.append(SRHGTabloid(tabloid, dict(zip(flat, assignment))))
    return out


def signed_g_tabloid_counts(
    graph: Graph, order, lam, tail_filter: bool = False
) -> tuple[int, int]:
    """(positive, negative) tabloid counts without materializing fillings."""
    lam, order = _shape_and_order(graph, order, lam)
    pos = neg = 0
    for tiling in _tilings(lam):
        n_steps = sum(
            1
            for cells in tiling
            for (r1, _), (r2, _) in zip(cells, cells[1:])
            if r2 < r1
        )
        count = sum(1 for _ in _fillings(graph, order, lam, tiling, tail_filter))
        if n_steps % 2:
            neg += count
        else:
            pos += count
    return pos, neg


def check_srh_g_tabloid(tabloid: SRHGTabloid, graph: Graph, order) -> None:
    """Independent validity check for a filled tabloid; raises on any defect."""
    order = _resolve_order(order, graph.size)
    tabloid.tabloid.validate()
    values = list(tabloid.filling.values())
    cells = {cell for h in tabloid.tabloid.hooks for cell in h.cells}
    if set(tabloid.filling) != cells or sorted(values) != list(range(graph.size)):
        raise ValueError("filling is not a bijection between cells and vertices")
    for hook in tabloid.tabloid.hooks:
        vs = [tabloid.filling[cell] for cell in hook.cells]
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if graph.adjacent(u, v):
                    raise ValueError(f"hook vertices {u} and {v} are adjacent")
        for u, v in zip(vs, vs[1:]):
            if not (order.leq(u, v) and u != v):
                raise ValueError(f"hook vertices {u}, {v} do not increase in the order")


def tail_head_split(tabloid: SRHGTabloid) -> tuple[dict, tuple]:
    """Split a filled tabloid into its head cells and its tail sequence.

    The tail collects the length-1 rows bottom to top; the head is the
    cell-to-vertex map of all longer rows.
    """
    shape = tabloid.tabloid.shape
    head = {
        (r, c): v for (r, c), v in tabloid.filling.items() if shape[r - 1] > 1
    }
    return head, tabloid.tail_sequence()


def _hook_with_cell(tabloid: SRHTabloid, cell):
    for i, hook in enumerate(tabloid.hooks):
        if cell in hook.cells:
            return i, hook
    raise ValueError(f"no hook contains {cell}")


def psi_involution(tabloid: SRHGTabloid, poset: Poset) -> SRHGTabloid:
    """Toggle the N-step at the first ascent of the tail sequence.

    For the minimal j with v_j <= v_{j+1} in the tail, the step between their
    cells is removed if the two vertices share a hook and inserted otherwise.
    The result has the same shape, filling, and tail sequence, and opposite
    sign; applying the map twice returns the input. Undefined (NoAscentError)
    when the tail sequence is non-increasing.
    """
    ts = tabloid.tail_sequence()
    j = next(
        (i for i, (u, v) in enumerate(zip(ts, ts[1:])) if poset.leq(u, v)), None
    )
    if j is None:
        raise NoAscentError("tail sequence has no ascent")
    ell = len(tabloid.tabloid.shape)
    lower_cell = (ell - j, 1)
    upper_cell = (ell - j - 1, 1)
    i_low, hook_low = _hook_with_cell(tabloid.tabloid, lower_cell)
    i_up, hook_up = _hook_with_cell(tabloid.tabloid, upper_cell)
    hooks = list(tabloid.tabloid.hooks)
    if i_low == i_up:
        pos = hook_low.cells.index(lower_cell)
        hooks[i_low : i_low + 1] = [
            RimHook(hook_low.cells[: pos + 1]),
            RimHook(hook_low.cells[pos + 1 :]),
        ]
    else:
        if hook_low.cells[-1] != lower_cell or hook_up.cells[0] != upper_cell:
            raise ValueError("hooks at the ascent cannot be joined by an N-step")
        merged = RimHook(hook_low.cells + hook_up.cells)
        hooks = [h for k, h in enumerate(hooks) if k not in (i_low, i_up)]
        hooks.append(merged)
    hooks.sort(key=lambda h: -h.cells[0][0])
    return SRHGTabloid(SRHTabloid(tabloid.tabloid.shape, hooks), tabloid.filling)


def render_ascii(tabloid: SRHTabloid) -> str:
    """One character per cell, hooks labeled a, b, c, ... in content order."""
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if len(tabloid.hooks) > len(alphabet):
        raise ValueError("too many hooks to label")
    label = {}
    for i, hook in enumerate(tabloid.hooks):
        for cell in hook.cells:
            label[cell] = alphabet[i]
    shape = tabloid.shape
    lines = [
        "".join(label[(r, c)] for c in range(1, shape[r - 1] + 1))
        for r in range(1, len(shape) + 1)
    ]
    return "\n".join(lines)
