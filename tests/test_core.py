"""Core data model tests: partitions, kernels, verification, normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grinblat.core import (
    CsrPartition,
    Instance,
    KernelInfo,
    Matching,
    Partition,
    _same_class,
    kernel,
    kernel_size,
    min_kernel,
    normalize,
    verify_matching,
)
from grinblat.construct import solve
from grinblat.construct.charging import direct_pair
from grinblat.formats import parse_instance, write_instance
from grinblat.gen import gen_random_hypothesis


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


# ------------------------------------------------ the tuple and CSR views


def _from_arrays(classes) -> CsrPartition:
    # the array-born partition of classes, as the generator builds one
    canon = Partition(classes).classes
    sizes = [len(cl) for cl in canon]
    elems = np.array([x for cl in canon for x in cl], np.int64)
    starts = np.cumsum([0, *sizes[:-1]]) if sizes else np.zeros(0, np.int64)
    return CsrPartition(elems, starts.astype(np.int64))


def _reference_write(inst: Instance) -> bytes:
    # write_instance with one join per class, as it was before the CSR view
    out = [f"grinblat 1 {inst.n} {inst.ground_size}"]
    for i, rel in enumerate(inst.relations):
        out.append(f"rel {i} {len(rel.classes)}")
        out.extend(" ".join(map(str, cl)) for cl in rel.classes)
    return ("\n".join(out) + "\n").encode()


# the generator's partitions hold non-negative elements and no empty class
_class_lists = st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=4), max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.lists(_class_lists, max_size=3), _class_lists, st.integers(0, 14))
def test_array_and_tuple_views_agree(relations, other, ground):
    # classes may be invalid (small, overlapping, out of range) and
    # relations may be empty; an instance may have none
    tuple_born = [Partition(cls) for cls in relations]
    inst = Instance(ground, [_from_arrays(cls) for cls in relations])
    assert write_instance(inst) == _reference_write(Instance(ground, tuple_born))
    assert write_instance(Instance(ground, tuple_born)) == write_instance(inst)
    # writing built no tuple
    assert all("classes" not in p.__dict__ for p in inst.relations)
    assert inst == Instance(ground, tuple_born)
    for a, cls in zip(tuple_born, relations):
        b = _from_arrays(cls)
        assert (a == b, b == a) == (True, True)
        assert b.classes == a.classes and hash(b) == hash(a)
        assert kernel(_from_arrays(cls)) == kernel(a)
        assert _outcome(_from_arrays(cls).validate, ground) == _outcome(a.validate, ground)
        for x in range(-2, 13):
            assert b.class_of(x) == a.class_of(x)
        same = Partition(cls).classes == Partition(other).classes
        for p, q in ((a, _from_arrays(other)), (_from_arrays(other), a)):
            assert (p == q, p != q) == (same, not same)


def test_tuple_born_partition_builds_no_array():
    p = Partition([(4, 1), (0, 3, 2)])
    p.validate(5)
    assert (p.classes, kernel(p), p.class_of(3)) == (((0, 2, 3), (1, 4)), {0, 1, 2, 3, 4}, (0, 2, 3))
    assert p == Partition([(1, 4), (2, 3, 0)])
    assert write_instance(Instance(5, [p])) == b"grinblat 1 1 5\nrel 0 2\n0 2 3\n1 4\n"
    assert not any(isinstance(v, np.ndarray) for v in vars(p).values())


def test_generated_partitions_build_tuples_only_when_read():
    inst = gen_random_hypothesis(6, 20, seed=5)
    data = write_instance(inst)
    assert all("classes" not in p.__dict__ for p in inst.relations)
    parsed = parse_instance(data)
    assert parsed == inst
    # both sides hold arrays, and == compared those
    assert all("classes" not in p.__dict__ for p in inst.relations + parsed.relations)
    assert inst.relations[0].classes == parsed.relations[0].classes
    assert "classes" in inst.relations[0].__dict__


@st.composite
def _valid_classes(draw):
    # disjoint classes of size 2 to 4 over a ground set with room for
    # singletons, and that ground size
    ground = draw(st.integers(2, 24))
    elems = draw(st.permutations(range(ground)))
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=ground // 2))
    classes, at = [], 0
    for k in sizes:
        if at + k > len(elems):
            break
        classes.append(elems[at : at + k])
        at += k
    return classes or [elems[:2]], ground


@settings(max_examples=300, deadline=None)
@given(_valid_classes(), st.lists(st.integers(-1, 25), max_size=12))
def test_parsed_and_tuple_born_partitions_agree(drawn, used):
    classes, ground = drawn
    a = Partition(classes)
    inst = parse_instance(write_instance(Instance(ground, [a])))
    b = inst.relations[0]
    assert isinstance(b, CsrPartition) and "_flat" in b.__dict__
    assert write_instance(inst) == write_instance(Instance(ground, [a]))
    # the flat view's readers, before any tuple is built
    same = {(x, y) for cl in classes for x in cl for y in cl if x != y}
    for p in (a, b):
        for x in range(-1, ground + 2):
            for y in range(-1, ground + 2):
                if x != y:
                    assert _same_class(p, x, y) == ((x, y) in same), (x, y)
    for k in range(len(used) + 1):
        assert direct_pair(b, set(used[:k])) == direct_pair(a, set(used[:k]))
    assert kernel_size(b) == kernel_size(a) == len(kernel(a))
    assert "classes" not in b.__dict__ and "_kernel_cache" not in b.__dict__
    for g in (ground, ground - 1, max(kernel(a)), 0):
        assert _outcome(b.validate, g) == _outcome(a.validate, g)
    assert (a == b, b == a, a != b, b != a) == (True, True, False, False)
    assert hash(b) == hash(a)
    assert b.classes == a.classes and kernel(b) == kernel(a)
    other = Partition(classes[1:] or [(ground, ground + 1)])
    assert (b == other, other == b) == (False, False)


def test_array_born_partitions_compare_classes_not_elements():
    def parsed(lines):
        text = "\n".join(lines)
        return parse_instance(f"grinblat 1 1 4\nrel 0 {len(lines)}\n{text}\n").relations[0]

    # the same elements in the same order, cut into different classes
    split, whole = parsed(["0 1", "2 3"]), parsed(["0 1 2 3"])
    assert (split == whole, whole == split, split != whole) == (False, False, True)
    assert split == parsed(["0 1", "2 3"]) == _from_arrays([(2, 3), (1, 0)])
    assert whole == _from_arrays([(0, 1, 2, 3)]) != _from_arrays([(0, 1, 2)])
    # arrays of the same lengths with different elements
    assert split != parsed(["0 2", "1 3"]) and split != _from_arrays([(0, 1), (2, 4)])


def test_parsed_pipeline_builds_no_class_tuple_or_kernel():
    generated = gen_random_hypothesis(30, 8, seed=2)
    inst = parse_instance(write_instance(generated))
    assert inst == generated
    inst.validate()
    res = solve(inst, c=8)
    assert verify_matching(inst, res.matching).valid
    for p in inst.relations + generated.relations:
        assert "classes" not in p.__dict__ and "_kernel_cache" not in p.__dict__


@pytest.mark.parametrize("classes", [
    [(2**63, 1)],  # beyond int64
    [(0, 2**63 - 1), (5, 10**19, 3)],
    [(-1, 3), (7, 8, 100)],
    [(-(2**63) - 5, 0)],
    [(0.5, 1)],  # no int at all: written as before, not truncated
])
def test_tuple_born_partitions_keep_the_class_join(classes):
    # next to an array-born relation whose elements span 1 to 19 digits
    wide = [(0, 9, 10, 99, 100, 10**18)]
    inst = Instance(4, [Partition(classes), _from_arrays(wide)])
    assert write_instance(inst) == _reference_write(Instance(4, [Partition(classes), Partition(wide)]))
