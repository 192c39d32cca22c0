"""Small shared helpers."""

import json


def iter_bits(mask: int):
    """Yield the positions of set bits in a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def json_fields(data: dict, required: tuple, optional: tuple = ()) -> None:
    """Raise ValueError unless `data` has every required key and no other
    key than the optional ones."""
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise ValueError(
            f"unknown key {json.dumps(unknown[0])}; "
            f"expected {', '.join(required + optional)}"
        )
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"missing key {json.dumps(missing[0])}")


def _shown(value) -> str:
    return json.dumps(value, default=repr)


def json_int(value, what: str) -> int:
    """`value` if it is an integer; TypeError otherwise. JSON true, false and
    2.5 are not integers here, although Python's int() accepts them."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {_shown(value)}")
    return value


def json_array(value, what: str, length: int | None = None) -> list:
    """`value` as a list if it is an array, of `length` items when given."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = f" of {length} items" if length is not None else ""
        raise TypeError(f"{what} must be an array{size}, got {_shown(value)}")
    return list(value)


def json_ints(value, what: str, length: int | None = None) -> list[int]:
    """`value` as a list if it is an array of integers."""
    return [json_int(x, f"{what} entry") for x in json_array(value, what, length)]
