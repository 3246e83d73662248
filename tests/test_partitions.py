import gc

from hypothesis import given
from hypothesis import strategies as st

from superdual.partitions import Partition, partitions_bounded


def test_basic():
    p = Partition((3, 1, 0, 0))
    assert p.parts == (3, 1)
    assert p.height == 2
    assert p.size == 4
    assert p.part(1) == 3 and p.part(2) == 1 and p.part(5) == 0
    assert p.padded(4) == (3, 1, 0, 0)


def test_rejects_non_monotone():
    import pytest

    with pytest.raises(ValueError):
        Partition((1, 2))


def test_conjugate():
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert Partition(()).conjugate() == Partition(())


parts = st.lists(st.integers(min_value=0, max_value=6), max_size=5).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


@given(parts)
def test_conjugate_involution(p):
    assert p.conjugate().conjugate() == p
    assert p.conjugate().size == p.size


def test_bounded_enumeration():
    ps = partitions_bounded(2, 2)
    assert Partition(()) in ps and Partition((2, 2)) in ps
    assert len(ps) == 6  # (), (1), (2), (1,1), (2,1), (2,2)


def _recursive_partitions_bounded(max_height, max_entry):
    """The recursive enumeration that fixes the order callers index into."""
    out = []

    def rec(prefix, bound):
        out.append(Partition(prefix))
        if len(prefix) == max_height:
            return
        for v in range(1, bound + 1):
            rec(prefix + [v], v)

    rec([], max_entry)
    return out


def test_bounded_enumeration_keeps_the_recursive_order():
    for height in range(7):
        for entry in range(5):
            got = partitions_bounded(height, entry)
            assert [p.parts for p in got] == [
                p.parts for p in _recursive_partitions_bounded(height, entry)
            ]


def test_bounded_enumeration_leaves_no_cyclic_garbage():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        partitions_bounded(6, 4)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
