"""JSON encoding and parsing for spinor data.

Wire format conventions:

* complex number   -> two-element list [re, im]
* spinor           -> list of 4 complex pairs
* vector in R^5    -> list of 5 floats
* two-form         -> list of 10 floats, coefficients of e_i ^ e_j in
                      lexicographic index order (12, 13, 14, 15, 23, 24,
                      25, 34, 35, 45)
* real matrix      -> nested lists, row major

Parsers validate shape and element types and raise InputError with a
message naming the offending field, so CLI callers can map bad payloads
to a uniform exit code.
"""

from __future__ import annotations

import json
import sys
from typing import Any

import numpy as np

from .errors import InputError


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def encode_spinor(phi: np.ndarray) -> list[list[float]]:
    phi = np.asarray(phi, dtype=complex).reshape(4)
    return [encode_complex(z) for z in phi]


def encode_vector(v: np.ndarray) -> list[float]:
    v = np.asarray(v, dtype=float).reshape(5)
    return [float(x) for x in v]


def encode_two_form(w: np.ndarray) -> list[float]:
    w = np.asarray(w, dtype=float).reshape(10)
    return [float(x) for x in w]


def encode_real_matrix(m: np.ndarray) -> list[list[float]]:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2d array")
    return [[float(x) for x in row] for row in m]


def _require(condition: bool, field: str, expected: str) -> None:
    if not condition:
        raise InputError(f"field '{field}': expected {expected}")


def _as_float(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"field '{field}': expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:   # NaN, infinities, huge integers
        raise InputError(f"field '{field}': expected a finite number, got {value!r}")
    return float(value)


def parse_complex(data: Any, field: str = "complex") -> complex:
    _require(isinstance(data, (list, tuple)) and len(data) == 2, field, "a [re, im] pair")
    return complex(_as_float(data[0], field), _as_float(data[1], field))


def parse_spinor(data: Any, field: str = "spinor") -> np.ndarray:
    _require(isinstance(data, (list, tuple)) and len(data) == 4, field, "a list of 4 [re, im] pairs")
    return np.array([parse_complex(z, field) for z in data], dtype=complex)


def parse_vector(data: Any, field: str = "vector") -> np.ndarray:
    _require(isinstance(data, (list, tuple)) and len(data) == 5, field, "a list of 5 numbers")
    return np.array([_as_float(x, field) for x in data], dtype=float)


def parse_two_form(data: Any, field: str = "two_form") -> np.ndarray:
    _require(isinstance(data, (list, tuple)) and len(data) == 10, field,
             "a list of 10 coefficients in lexicographic index order")
    return np.array([_as_float(x, field) for x in data], dtype=float)


def parse_spinor_list(data: Any, count: int | None, field: str) -> np.ndarray:
    _require(isinstance(data, (list, tuple)), field, "a list of spinors")
    if count is not None:
        _require(len(data) == count, field, f"exactly {count} spinors")
    return np.array([parse_spinor(s, f"{field}[{k}]") for k, s in enumerate(data)], dtype=complex)


def load_payload(text: str) -> dict:
    """Parse a JSON object from text, mapping any failure to InputError."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:   # also over-long integers, deep nesting
        raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InputError("expected a JSON object at the top level")
    return payload


def get_field(payload: dict, field: str) -> Any:
    if field not in payload:
        raise InputError(f"missing required field '{field}'")
    return payload[field]


def dumps(obj: Any) -> str:
    """Serialize with sorted keys so equal payloads give equal bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
