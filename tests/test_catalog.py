import pytest

from dualkit.algebras import BudgetExceeded, InvalidInput
from dualkit.catalog import (
    bool2,
    build,
    check_hyperarchimedean,
    dl2,
    luk,
    posluk,
    reduct,
)


def test_luk1_is_two_element():
    entry = luk(1)
    assert entry.algebra.size == 2
    assert entry.labels == ("0", "1")


def test_luk2_truncated_arithmetic():
    L = luk(2).algebra
    assert L.apply("odot", 1, 1) == 0    # 1/2 (.) 1/2 = 0
    assert L.apply("oplus", 1, 1) == 2   # 1/2 (+) 1/2 = 1
    assert L.apply("neg", 1) == 1
    assert L.apply("neg", 0) == 2


def test_posluk_drops_negation():
    entry = posluk(2)
    assert "neg" not in entry.algebra.signature.names
    assert set(entry.algebra.signature.names) == {"oplus", "odot", "join", "meet", "zero", "one"}


def test_chain_labels_are_exact_rationals():
    assert luk(4).labels == ("0", "1/4", "1/2", "3/4", "1")
    assert luk(3).labels == ("0", "1/3", "2/3", "1")


def test_build_resolves_names():
    assert build("dl2").algebra == dl2().algebra
    assert build("bool2").algebra == bool2().algebra
    assert build("luk(2)").algebra == luk(2).algebra
    assert build(" posluk(3) ").algebra == posluk(3).algebra
    with pytest.raises(InvalidInput):
        build("post(3)")
    with pytest.raises(InvalidInput):
        build("luk(0)")


def test_build_shares_one_entry_per_name():
    for name, spelling in (("dl2", " dl2 "), ("bool2", "bool2"), ("luk(2)", "luk(02)"),
                           ("posluk(3)", " posluk(3)")):
        entry = build(name)
        assert build(spelling) is entry
        assert build(name) is entry
    assert build("luk(2)") is not build("posluk(2)")
    assert build("luk(2)") is not build("luk(3)")


def test_build_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(InvalidInput, match=r"unknown catalog name 'post\(3\)'"):
            build("post(3)")
        with pytest.raises(InvalidInput, match=r"luk\(n\) requires n >= 1"):
            build("luk(0)")
        with pytest.raises(BudgetExceeded, match=r"luk\(1000\) has too many table entries"):
            build("luk(1000)")
        with pytest.raises(BudgetExceeded, match=r"posluk\(1000\) has too many table entries"):
            build("posluk(1000)")


def test_reduct_keeps_tables():
    L = luk(2).algebra
    R = reduct(L, ("oplus", "meet", "join", "zero", "one"))
    assert R.size == L.size
    assert set(R.signature.names) == {"oplus", "meet", "join", "zero", "one"}
    assert R.tables["oplus"] == L.tables["oplus"]


def test_reduct_of_full_signature_is_identity():
    L = luk(2).algebra
    assert reduct(L, L.signature.names) == L


def test_reduct_to_empty_signature():
    R = reduct(luk(2).algebra, ())
    assert R.size == 3
    assert R.signature.names == ()


def test_reduct_rejects_unknown_symbol():
    with pytest.raises(InvalidInput):
        reduct(dl2().algebra, ("neg",))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_luk_chains_hyperarchimedean(n):
    report = check_hyperarchimedean(luk(n).algebra)
    assert report.odot_form and report.oplus_form
    assert bool(report)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_posluk_chains_hyperarchimedean(n):
    report = check_hyperarchimedean(posluk(n).algebra)
    assert report.odot_form and report.oplus_form


def test_hyperarchimedean_needs_mv_operation():
    with pytest.raises(InvalidInput):
        check_hyperarchimedean(dl2().algebra)


def test_zero_is_idempotent_immediately():
    L = luk(3).algebra
    assert L.apply("odot", 0, 0) == 0


# --- the ufunc tables against the per-entry tables they replaced ------------------

def _binary_table(n, fn):
    return tuple(fn(a, b) for a in range(n) for b in range(n))


def old_luk_tables(n):
    # element i stands for the rational i/n
    size = n + 1
    return {
        "oplus": _binary_table(size, lambda a, b: min(a + b, n)),
        "odot": _binary_table(size, lambda a, b: max(a + b - n, 0)),
        "neg": tuple(n - a for a in range(size)),
        "join": _binary_table(size, max),
        "meet": _binary_table(size, min),
        "zero": (0,),
        "one": (n,),
    }


def _assert_tables(algebra, expected):
    assert set(algebra.tables) == set(algebra.signature.names)
    for name, table in algebra.tables.items():
        assert type(table) is tuple and table == expected[name]
        assert all(type(v) is int for v in table)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 30, 99])
def test_luk_tables_match_the_per_entry_tables(n):
    _assert_tables(luk(n).algebra, old_luk_tables(n))
    _assert_tables(posluk(n).algebra, old_luk_tables(n))


def test_two_element_tables_match_the_per_entry_tables():
    # bool2 and dl2 as they were written out before they shared luk(1)'s tables
    meet, join = _binary_table(2, min), _binary_table(2, max)
    _assert_tables(bool2().algebra,
                   {"meet": meet, "join": join, "neg": (1, 0), "zero": (0,), "one": (1,)})
    _assert_tables(dl2().algebra, {"meet": meet, "join": join, "zero": (0,), "one": (1,)})
