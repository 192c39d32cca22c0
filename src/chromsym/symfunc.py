"""Sparse homogeneous symmetric functions with exact integer coefficients."""

from __future__ import annotations

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
            value = int(value)
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
        coeffs = {
            tuple(entry["partition"]): int(entry["value"])
            for entry in data.get("coeffs", [])
        }
        return cls(data["basis"], data["n"], coeffs)

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
