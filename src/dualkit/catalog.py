"""Built-in dualizing algebras.

``bool2`` and ``dl2`` are the two-element Boolean algebra and bounded
distributive lattice; ``luk(n)`` is the Lukasiewicz chain on
``{0, 1/n, ..., 1}`` with truncated arithmetic, and ``posluk(n)`` its
negation-free reduct.  Labels are exact rationals; no floating point is
used anywhere.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebras import DEFAULT_BUDGET, BudgetExceeded, FiniteAlgebra, InvalidInput, Signature

BOOL_SIGNATURE = Signature((("meet", 2), ("join", 2), ("neg", 1), ("zero", 0), ("one", 0)))
DL_SIGNATURE = Signature((("meet", 2), ("join", 2), ("zero", 0), ("one", 0)))
MV_SIGNATURE = Signature((("oplus", 2), ("odot", 2), ("neg", 1),
                          ("join", 2), ("meet", 2), ("zero", 0), ("one", 0)))
POSMV_SIGNATURE = Signature((("oplus", 2), ("odot", 2),
                             ("join", 2), ("meet", 2), ("zero", 0), ("one", 0)))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: tuple
    labels: tuple[str, ...]
    algebra: FiniteAlgebra

    def __post_init__(self):
        if len(self.labels) != self.algebra.size:
            raise InvalidInput("labels must be bijective with the carrier")


def _luk_tables(n, signature):
    """The tables of the symbols in ``signature`` on the Lukasiewicz chain
    0..n, element i standing for the rational i/n.  At n = 1 the lattice
    operations, negation and bounds are those of the Boolean algebra 2."""
    a = np.arange(n + 1)
    total = np.add.outer(a, a)
    arrays = {
        "oplus": np.minimum(total, n),
        "odot": np.maximum(total - n, 0),
        "neg": n - a,
        "join": np.maximum.outer(a, a),
        "meet": np.minimum.outer(a, a),
        "zero": np.array([0]),
        "one": np.array([n]),
    }
    return {name: arrays[name].ravel() for name in signature.names}


def bool2() -> CatalogEntry:
    algebra = FiniteAlgebra(BOOL_SIGNATURE, 2, _luk_tables(1, BOOL_SIGNATURE))
    return CatalogEntry("bool2", (), ("0", "1"), algebra)


def dl2() -> CatalogEntry:
    algebra = FiniteAlgebra(DL_SIGNATURE, 2, _luk_tables(1, DL_SIGNATURE))
    return CatalogEntry("dl2", (), ("0", "1"), algebra)


def _chain_labels(n):
    return tuple(str(Fraction(i, n)) for i in range(n + 1))


def luk(n: int) -> CatalogEntry:
    if n < 1:
        raise InvalidInput("luk(n) requires n >= 1")
    algebra = FiniteAlgebra(MV_SIGNATURE, n + 1, _luk_tables(n, MV_SIGNATURE))
    return CatalogEntry("luk", (n,), _chain_labels(n), algebra)


def posluk(n: int) -> CatalogEntry:
    if n < 1:
        raise InvalidInput("posluk(n) requires n >= 1")
    algebra = FiniteAlgebra(POSMV_SIGNATURE, n + 1, _luk_tables(n, POSMV_SIGNATURE))
    return CatalogEntry("posluk", (n,), _chain_labels(n), algebra)


_NAME_RE = re.compile(r"^(bool2|dl2)$|^(luk|posluk)\((\d+)\)$")


def build(name: str) -> CatalogEntry:
    """Resolve a catalog name such as ``dl2`` or ``luk(2)``.

    Entries are immutable, so a process builds each one once (``_entry``)
    and every resolution of its name shares it, table views included.
    """
    m = _NAME_RE.match(name.strip())
    if not m:
        raise InvalidInput("unknown catalog name %r" % name)
    if m.group(1):
        return _entry(m.group(1), None)
    n = int(m.group(3))
    if (n + 1) ** 2 > DEFAULT_BUDGET:
        raise BudgetExceeded("%s(%d) has too many table entries" % (m.group(2), n))
    return _entry(m.group(2), n)


@functools.lru_cache(maxsize=16)
def _entry(family: str, n: int | None) -> CatalogEntry:
    """The entry of a normalized catalog name: a family and its parameter."""
    if n is None:
        return bool2() if family == "bool2" else dl2()
    return (luk if family == "luk" else posluk)(n)


def reduct(A: FiniteAlgebra, op_subset) -> FiniteAlgebra:
    """Same carrier, tables restricted to the named symbols."""
    signature = A.signature.restrict(op_subset)
    tables = {name: A._flat[name] for name in signature.names}
    return FiniteAlgebra(signature, A.size, tables)


@dataclass(frozen=True)
class HyperarchimedeanReport:
    odot_form: bool | None
    oplus_form: bool | None

    def __bool__(self):
        primary = self.odot_form if self.odot_form is not None else self.oplus_form
        return bool(primary)


def _eventually_idempotent(A, op, a):
    # powers a, a*a, a*a*a, ... must hit an idempotent within |A| steps
    power = a
    for _ in range(A.size):
        if A.apply(op, power, power) == power:
            return True
        power = A.apply(op, power, a)
    return False


def check_hyperarchimedean(A: FiniteAlgebra) -> HyperarchimedeanReport:
    """Every element has an idempotent power (odot form; oplus form dual)."""
    names = set(A.signature.names)
    if "odot" not in names and "oplus" not in names:
        raise InvalidInput("requires odot or oplus in the signature")
    odot = None
    if "odot" in names:
        odot = all(_eventually_idempotent(A, "odot", a) for a in A.elements)
    oplus = None
    if "oplus" in names:
        oplus = all(_eventually_idempotent(A, "oplus", a) for a in A.elements)
    return HyperarchimedeanReport(odot, oplus)
