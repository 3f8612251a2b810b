"""Core data model tests: partitions, kernels, verification, normalization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grinblat.core import (
    Instance,
    KernelInfo,
    Matching,
    Partition,
    kernel,
    min_kernel,
    normalize,
    verify_matching,
)


class TestPartition:
    def test_canonical_ordering(self):
        p1 = Partition([(3, 1), (5, 2)])
        p2 = Partition([(2, 5), (1, 3)])
        assert p1 == p2
        assert p1.classes == ((1, 3), (2, 5))

    def test_class_of_singleton(self):
        p = Partition([(0, 1)])
        assert p.class_of(7) == (7,)
        assert p.class_of(0) == (0, 1)

    def test_equivalent(self):
        p = Partition([(0, 1, 4)])
        assert p.equivalent(0, 4)
        assert p.equivalent(3, 3)
        assert not p.equivalent(0, 3)

    def test_validate_rejects_small_class(self):
        with pytest.raises(ValueError):
            Partition([(0,)]).validate(5)

    def test_validate_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition([(0, 1), (1, 2)]).validate(5)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Partition([(0, 9)]).validate(5)

    @pytest.mark.parametrize("classes, ground, message", [
        ([(0,)], 5, "class (0,) has size < 2"),
        ([(3, 2, 2)], 5, "class (2, 2, 3) repeats an element"),
        ([(0, 9)], 5, "element 9 outside ground set of size 5"),
        ([(-1, 3)], 5, "element -1 outside ground set of size 5"),
        ([(1, 2), (0, 1)], 5, "element 1 appears in two classes"),
        # the first violation in canonical class order is the one reported
        ([(3, 9), (1, 4), (0, 1)], 5, "element 1 appears in two classes"),
        ([(1, 9), (0,)], 5, "class (0,) has size < 2"),
        ([(4, 7), (0, 1, 1)], 5, "class (0, 1, 1) repeats an element"),
    ])
    @pytest.mark.parametrize("before", ["nothing", "kernel", "validate"])
    def test_validate_messages(self, classes, ground, message, before):
        p = Partition(classes)
        if before == "kernel":
            kernel(p)
        elif before == "validate":
            # a larger ground set that still fails, or passes for range defects
            try:
                p.validate(100)
            except ValueError:
                pass
        with pytest.raises(ValueError) as exc:
            p.validate(ground)
        assert str(exc.value) == message
        # a second call reports the same
        with pytest.raises(ValueError) as exc:
            p.validate(ground)
        assert str(exc.value) == message

    def test_validate_after_success_on_larger_ground(self):
        p = Partition([(0, 1), (2, 7)])
        p.validate(8)
        p.validate(8)
        with pytest.raises(ValueError) as exc:
            p.validate(7)
        assert str(exc.value) == "element 7 outside ground set of size 7"
        Partition([]).validate(0)


def _reference_validate(classes, ground_size):
    # the per-element check, as written before the kernel facts existed
    seen = set()
    for cl in classes:
        if len(cl) < 2:
            raise ValueError(f"class {cl} has size < 2")
        if len(set(cl)) != len(cl):
            raise ValueError(f"class {cl} repeats an element")
        for x in cl:
            if not (0 <= x < ground_size):
                raise ValueError(f"element {x} outside ground set of size {ground_size}")
            if x in seen:
                raise ValueError(f"element {x} appears in two classes")
            seen.add(x)


def _outcome(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.integers(-2, 9), max_size=4), max_size=5),
    st.lists(st.integers(0, 11), min_size=1, max_size=3),
    st.booleans(),
)
def test_validate_matches_reference(classes, grounds, kernel_first):
    p = Partition(classes)
    if kernel_first:
        kernel(p)
    for ground in grounds:
        assert _outcome(p.validate, ground) == _outcome(_reference_validate, p.classes, ground)


class TestKernel:
    def test_kernel_collects_nontrivial_members(self):
        p = Partition([(0, 1), (3, 4, 5)])
        assert kernel(p) == {0, 1, 3, 4, 5}

    def test_kernel_info_sizes(self):
        inst = Instance(6, [Partition([(0, 1)]), Partition([(0, 1, 2), (3, 4)])])
        assert KernelInfo.of(inst).sizes == (2, 5)

    def test_min_kernel(self):
        inst = Instance(6, [Partition([(0, 1)]), Partition([(0, 1, 2), (3, 4)])])
        assert min_kernel(inst) == 2

    def test_min_kernel_empty_instance(self):
        with pytest.raises(ValueError):
            min_kernel(Instance(3, []))


class TestVerifyMatching:
    def _inst(self):
        return Instance(
            6, [Partition([(0, 1), (2, 3)]), Partition([(0, 2), (4, 5)])]
        )

    def test_valid(self):
        rep = verify_matching(self._inst(), Matching([(0, 1), (4, 5)]))
        assert rep.valid and rep.violation is None

    def test_reuse_reported_before_equivalence(self):
        # pair 1 both reuses element 0 and is non-equivalent; the reuse
        # (a distinctness violation) must be the one reported
        rep = verify_matching(self._inst(), Matching([(0, 1), (0, 3)]))
        assert not rep.valid
        assert rep.index == 1
        assert "reused" in rep.violation

    def test_non_equivalent(self):
        rep = verify_matching(self._inst(), Matching([(0, 1), (2, 4)]))
        assert not rep.valid
        assert rep.index == 1
        assert "not equivalent" in rep.violation

    def test_degenerate_pair(self):
        rep = verify_matching(self._inst(), Matching([(0, 0), (4, 5)]))
        assert not rep.valid and rep.index == 0

    def test_wrong_length(self):
        rep = verify_matching(self._inst(), Matching([(0, 1)]))
        assert not rep.valid and rep.index is None

    def test_out_of_range(self):
        rep = verify_matching(self._inst(), Matching([(0, 1), (4, 9)]))
        assert not rep.valid and "outside" in rep.violation


class TestNormalize:
    def test_blocks_of_two_or_three(self):
        inst = Instance(11, [Partition([tuple(range(11))])])
        out = normalize(inst)
        sizes = sorted(len(c) for c in out.relations[0].classes)
        assert all(s in (2, 3) for s in sizes)

    def test_kernel_preserved(self):
        inst = Instance(9, [Partition([(0, 1, 2, 3), (4, 5, 6, 7, 8)])])
        out = normalize(inst)
        assert kernel(out.relations[0]) == kernel(inst.relations[0])

    def test_four_splits_two_two(self):
        inst = Instance(4, [Partition([(0, 1, 2, 3)])])
        out = normalize(inst)
        assert out.relations[0].classes == ((0, 1), (2, 3))

    def test_classes_are_subsets(self):
        inst = Instance(10, [Partition([(0, 1, 2, 3, 4, 5, 6)])])
        out = normalize(inst)
        for cl in out.relations[0].classes:
            assert set(cl) <= set(range(7))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_normalize_single_class_properties(k):
    inst = Instance(k, [Partition([tuple(range(k))])])
    out = normalize(inst)
    classes = out.relations[0].classes
    assert sum(len(c) for c in classes) == k
    assert all(2 <= len(c) <= 3 for c in classes)
    assert kernel(out.relations[0]) == frozenset(range(k))
