"""Special rim hook tabloids and their vertex-filled refinements.

A rim hook is a connected strip of boundary cells, read from its southwest
end to its northeast end in N-steps (row decreases) and E-steps (column
increases); it is special when it reaches column 1. A tabloid tiles a shape
with special rim hooks so that they can be peeled off bottom hook first,
leaving a partition shape at every stage. The sign is (-1) to the number of
N-steps, and the content lists hook lengths from the bottom hook up.

Filled tabloids additionally place every vertex of a graph in a cell so that
each hook holds a stable set that increases southwest to northeast in the
graph's index order.
"""

from __future__ import annotations

from functools import cache

from ._util import iter_bits
from .errors import CapExceededError, OrderIncompatibleError, SizeMismatchError
from .partitions import Partition, aspartition
from .posets import Graph, _index_masks, _index_order


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
    def content(self) -> tuple[int, ...]:
        """The hook lengths, bottom hook first."""
        return tuple(h.length for h in self.hooks)

    def validate(self):
        """Re-check the tiling from scratch; raises ValueError on any defect.

        Cells are (row, column) pairs, 1-indexed from the top left.
        """
        remaining = {(r, c) for r, row in enumerate(self.shape, 1) for c in range(1, row + 1)}
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


@cache
def _tilings(shape: tuple[int, ...]) -> tuple:
    """All special rim hook tilings of `shape`, each as (sign, hook cell paths).

    The hook through the bottom-left cell of a shape with ell rows is forced
    once its top row t is chosen: it sweeps the bottom row, then hugs the rim
    up through rows ell-1..t, ell - t N-steps that flip the sign as in
    :func:`_peel`. Peeling it leaves the shape with row r replaced by row r+1
    shortened by one for t <= r < ell, so recursing enumerates every tiling
    exactly once, bottom hook first and in original coordinates.
    """
    if not shape:
        return ((1, ()),)
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
        flip = (ell - top) % 2
        for sign, tail in _tilings(rest):
            out.append((-sign if flip else sign, (hook,) + tail))
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


def _weighed_census(table: dict, cap: int):
    """shape -> the sum of sign * `table`'s count of the content over the
    shape's census at hook bound `cap` (:func:`_peel`); codes `table` once."""
    weights = {_content_code(mu): count for mu, count in table.items()}
    return lambda shape: sum(
        sign * weights.get(code, 0) for code, sign in _peel(shape, cap).items()
    )


def enumerate_srh_tabloids(lam) -> list[SRHTabloid]:
    """All special rim hook tabloids of shape `lam`, each exactly once."""
    lam = aspartition(lam)
    return [
        SRHTabloid(lam, tuple(RimHook(cells) for cells in tiling))
        for _, tiling in _tilings(lam)
    ]


def _resolve_order(graph: Graph, lam, tail: bool) -> tuple[Partition, tuple[int, ...]]:
    """The shape, which must have one cell per vertex, and each vertex's
    strict up-mask in the graph's index order, its non-edges oriented by
    index, which on a hook (its vertices pairwise non-adjacent) is the index
    chain. The tail filter needs that order transitive, so that it presents
    the graph as inc(P) (:func:`_index_order`), as it does on every
    :func:`incomparability_graph`."""
    lam = aspartition(lam)
    if lam.n != graph.size:
        raise SizeMismatchError(f"shape has {lam.n} cells but the graph has {graph.size} vertices")
    up = _index_order(graph) if tail else _index_masks(graph)
    if up is None:
        raise OrderIncompatibleError(
            "the tail route needs the graph presented as inc(P), numbered by a linear"
            " extension of P"
        )
    return lam, up


def _fillings(graph: Graph, above, shape: tuple[int, ...], tiling, tail_filter: bool):
    """Yield vertex assignments for the cells of `tiling`, each hook rising in `above`.

    Cells are visited bottom hook first, southwest to northeast within a
    hook, so tail cells appear in bottom-to-top order and the non-increasing
    tail restriction can prune as soon as a tail cell is placed.
    """
    full = (1 << graph.size) - 1
    adj = graph._adj
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
            cand = above[prev] & ~used & ~banned
        if tail_filter and is_tail and last_tail >= 0:
            cand &= ~above[last_tail]
        for v in iter_bits(cand):
            acc[idx] = v
            yield from rec(
                idx + 1,
                used | (1 << v),
                banned | adj[v],
                v,
                v if is_tail else last_tail,
            )

    yield from rec(0, 0, 0, -1, -1)


def signed_g_tabloid_counts(graph: Graph, lam, tail_filter: bool = False) -> tuple[int, int]:
    """(positive, negative) tabloid counts without materializing fillings,
    under the graph's index order (:func:`_resolve_order`); a tiling's
    fillings count under the sign :func:`_tilings` pairs it with."""
    lam, above = _resolve_order(graph, lam, tail_filter)
    counts = {1: 0, -1: 0}
    for sign, tiling in _tilings(lam):
        counts[sign] += sum(1 for _ in _fillings(graph, above, lam, tiling, tail_filter))
    return counts[1], counts[-1]


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
