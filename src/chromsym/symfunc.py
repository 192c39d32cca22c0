"""Sparse homogeneous symmetric functions with exact integer coefficients."""

from __future__ import annotations

from ._util import _shown, json_array, json_fields, json_int, json_ints
from .partitions import Partition, aspartition

BASES = ("monomial", "schur")


class SymFunc:
    """A degree-n symmetric function in a named basis.

    Coefficients are a sparse map from partitions of n to arbitrary-precision
    integers; zero coefficients are never stored.
    """

    __slots__ = ("basis", "degree", "coeffs")

    def __init__(self, basis: str, degree: int, coeffs=None):
        if basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        table = {}
        for lam, value in dict(coeffs or {}).items():
            lam = aspartition(lam)
            if type(value) is not int:
                raise TypeError(f"coefficient of {tuple(lam)} must be an int, got {value!r}")
            if lam.n != degree:
                raise ValueError(f"{lam!r} is not a partition of {degree}")
            if value:
                table[lam] = value
        self.basis = basis
        self.degree = degree
        self.coeffs = table

    def __getitem__(self, lam) -> int:
        return self.coeffs.get(aspartition(lam), 0)

    def __iter__(self):
        return iter(self.items())

    def __len__(self) -> int:
        return len(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def items(self) -> list[tuple[Partition, int]]:
        """(partition, coefficient) pairs in reverse-lexicographic order."""
        return sorted(self.coeffs.items(), reverse=True)

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "n": self.degree,
            "coeffs": [
                {"partition": lam.to_json(), "value": str(value)}
                for lam, value in self.items()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SymFunc":
        """Read what :meth:`to_json` writes; unknown keys, non-integer numbers,
        values that are not strings and a partition given twice raise."""
        json_fields(data, ("basis", "n"), ("coeffs",))
        coeffs = {}
        for entry in json_array(data.get("coeffs", []), "coeffs"):
            json_fields(entry, ("partition", "value"))
            lam, value = tuple(json_ints(entry["partition"], "a partition")), entry["value"]
            if type(value) is not str or lam in coeffs:
                raise ValueError(f"need a string value and a new partition, got {_shown(entry)}")
            coeffs[lam] = int(value)
        return cls(data["basis"], json_int(data["n"], "n"), coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, SymFunc):
            return (
                self.basis == other.basis
                and self.degree == other.degree
                and self.coeffs == other.coeffs
            )
        return NotImplemented

    def __repr__(self) -> str:
        terms = ", ".join(f"{tuple(lam)}: {v}" for lam, v in self.items())
        return f"SymFunc({self.basis!r}, {self.degree}, {{{terms}}})"
