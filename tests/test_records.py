"""Record semantics of the plain value classes: construction, defaults,
derived fields, validation and field-wise equality."""

import copy
import pickle
from fractions import Fraction

import pytest

from godeaux import __version__
from godeaux.action import CyclicAction
from godeaux.graded import HilbertTable, Membership
from godeaux.poly import RingDescriptor
from godeaux.report import Check, VerificationReport
from godeaux.scalars import zeta
from godeaux.subring import (
    CongruenceImageCondition,
    GeneratorListReport,
    SubringPresentation,
    SubstitutionParityCondition,
    WeightCondition,
)

ABC = RingDescriptor(("a", "b", "c"), (1, 1, 1), (0, 0, 0))
Z5 = RingDescriptor(("x", "y"), (1, 1), (1, 2), torsion_order=5, scalar_order=5)


def assert_equal_not_same(a, b):
    assert a == b and not a != b and a is not b


def assert_unequal(a, b):
    assert a != b and not a == b


class TestCheck:
    def test_keywords_and_status(self):
        ok = Check(id="a", description="d", paper_ref="p", expected=[1, 2], actual=[1, 2])
        bad = Check("a", "d", "p", expected=1, actual=2)
        assert (ok.id, ok.description, ok.paper_ref) == ("a", "d", "p")
        assert ok.status == "pass" and bad.status == "fail"
        assert Check("a", "", "", "0", 0).status == "fail"

    def test_status_is_not_an_argument(self):
        with pytest.raises(TypeError):
            Check("a", "d", "p", 1, 1, "fail")
        with pytest.raises(TypeError):
            Check("a", "d", "p", 1, 1, status="fail")

    def test_equality(self):
        assert_equal_not_same(Check("a", "d", "p", 1, 1), Check("a", "d", "p", 1, 1))
        assert_unequal(Check("a", "d", "p", 1, 1), Check("a", "d", "p", 1, 2))
        assert_unequal(Check("a", "d", "p", 1, 1), Check("b", "d", "p", 1, 1))
        assert Check("a", "d", "p", 1, 1) != ("a", "d", "p", 1, 1)

    def test_repr_names_every_field(self):
        text = repr(Check("a", "d", "p", 1, 2))
        assert text == (
            "Check(id='a', description='d', paper_ref='p', expected=1, actual=2, "
            "status='fail')"
        )


class TestVerificationReport:
    def test_defaults_and_keywords(self):
        rep = VerificationReport("z5", {"k": 1}, [])
        assert rep.timing_ms == 0 and rep.version == __version__
        rep = VerificationReport(
            scenario="z5", config={}, checks=[], timing_ms=7, version="x"
        )
        assert (rep.scenario, rep.timing_ms, rep.version) == ("z5", 7, "x")
        rep.timing_ms = 12
        assert rep.to_dict()["timing_ms"] == 12

    def test_duplicate_ids_raise(self):
        a = Check("a", "", "", 1, 1)
        with pytest.raises(ValueError, match=r"duplicate check ids: \['a'\]"):
            VerificationReport("z5", {}, [a, Check("b", "", "", 1, 1), a])

    def test_equality(self):
        checks = [Check("a", "", "", 1, 1)]
        assert_equal_not_same(
            VerificationReport("z5", {}, checks), VerificationReport("z5", {}, list(checks))
        )
        assert_unequal(
            VerificationReport("z5", {}, checks),
            VerificationReport("z5", {}, checks, timing_ms=1),
        )
        assert_unequal(
            VerificationReport("z5", {}, checks), VerificationReport("z4", {}, checks)
        )


class TestGradedRecords:
    def test_hilbert_table(self):
        entries = {(0, 0): 1, (0, 1): 0, (1, 0): 2, (1, 1): 3}
        table = HilbertTable(max_degree=1, torsion_order=2, entries=entries)
        assert table.dim(1, 3) == 3 and table.total(1) == 5 and table.row(1) == (2, 3)
        assert_equal_not_same(table, HilbertTable(1, 2, dict(entries)))
        assert_unequal(table, HilbertTable(1, 2, {**entries, (1, 1): 4}))
        assert_unequal(table, HilbertTable(2, 2, entries))

    def test_membership(self):
        cert = [(0, (1, 0), Fraction(2))]
        assert Membership(contained=True, certificate=cert).certificate == cert
        assert_equal_not_same(Membership(True, cert), Membership(True, list(cert)))
        assert_equal_not_same(Membership(False, None), Membership(False, None))
        assert_unequal(Membership(True, []), Membership(True, None))
        assert_unequal(Membership(True, cert), Membership(True, [(0, (1, 0), Fraction(3))]))
        assert Membership(False, None) != (False, None)


class TestRingDescriptor:
    def test_defaults_and_keywords(self):
        desc = RingDescriptor(variables=("a",), degrees=(1,), weights=(0,))
        assert (desc.torsion_order, desc.scalar_order) == (1, 1)
        assert desc.nvars == 1

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((("a", "a"), (1, 1), (0, 0)), {}, "variable names must be unique"),
            ((("a", "b"), (1,), (0, 0)), {}, "variables, degrees and weights must align"),
            ((("a",), (1,), (0, 0)), {}, "variables, degrees and weights must align"),
            ((("a",), (-1,), (0,)), {}, r"degree weights must be >= 0"),
            ((("a",), (1,), (0,)), {"torsion_order": 0}, r"torsion order must be >= 1"),
            ((("a",), (1,), (0,)), {"scalar_order": 2}, "unsupported scalar order 2"),
        ],
    )
    def test_validation(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RingDescriptor(*args, **kwargs)

    def test_lists_become_tuples_and_weights_reduce(self):
        desc = RingDescriptor(["a", "b", "c"], [1, 2, 0], [4, -1, 2], torsion_order=3)
        assert desc.variables == ("a", "b", "c")
        assert desc.degrees == (1, 2, 0)
        assert desc.weights == (1, 2, 2)
        assert all(isinstance(f, tuple) for f in (desc.variables, desc.degrees, desc.weights))

    def test_equal_descriptors_hash_equal(self):
        a = RingDescriptor(["x", "y"], [1, 1], [1, 2], torsion_order=5, scalar_order=5)
        b = RingDescriptor(("x", "y"), (1, 1), (6, -3), torsion_order=5, scalar_order=5)
        assert_equal_not_same(a, Z5)
        assert_equal_not_same(b, Z5)
        assert hash(a) == hash(b) == hash(Z5)
        assert {a: 1}[b] == 1 and len({a, b, Z5}) == 1

    def test_every_field_counts(self):
        base = (("x", "y"), (1, 1), (1, 2))
        others = [
            RingDescriptor(("x", "z"), (1, 1), (1, 2), torsion_order=5, scalar_order=5),
            RingDescriptor(("x", "y"), (1, 2), (1, 2), torsion_order=5, scalar_order=5),
            RingDescriptor(("x", "y"), (1, 1), (1, 3), torsion_order=5, scalar_order=5),
            RingDescriptor(*base, torsion_order=6, scalar_order=5),
            RingDescriptor(*base, torsion_order=5, scalar_order=1),
        ]
        for other in others:
            assert_unequal(Z5, other)
        assert Z5 != base

    @pytest.mark.parametrize(
        "field", ["variables", "degrees", "weights", "torsion_order", "scalar_order"]
    )
    def test_fields_cannot_be_assigned(self, field):
        desc = RingDescriptor(("a",), (1,), (0,))
        with pytest.raises(AttributeError):
            setattr(desc, field, getattr(desc, field))
        assert desc == RingDescriptor(("a",), (1,), (0,))

    def test_copies_and_pickles_are_equal(self):
        for clone in (copy.copy(Z5), copy.deepcopy(Z5), pickle.loads(pickle.dumps(Z5))):
            assert clone == Z5 and hash(clone) == hash(Z5)

    def test_repr(self):
        assert repr(ABC) == (
            "RingDescriptor(variables=('a', 'b', 'c'), degrees=(1, 1, 1), "
            "weights=(0, 0, 0), torsion_order=1, scalar_order=1)"
        )


class TestCyclicAction:
    def test_default_root(self):
        assert CyclicAction(Z5, 5).root == zeta(5)
        assert CyclicAction(descriptor=ABC, order=1).root == Fraction(1)
        assert CyclicAction.for_descriptor(Z5) == CyclicAction(Z5, 5, root=zeta(5))

    def test_explicit_root(self):
        root = zeta(5) ** 2
        action = CyclicAction(Z5, 5, root=root)
        assert action.root == root
        assert_unequal(action, CyclicAction(Z5, 5))
        assert_equal_not_same(action, CyclicAction(Z5, 5, root))

    def test_validation(self):
        with pytest.raises(ValueError, match="must match the descriptor torsion order"):
            CyclicAction(Z5, 3)
        with pytest.raises(ValueError, match="not an order-th root of unity"):
            CyclicAction(Z5, 5, root=Fraction(2))
        with pytest.raises(ValueError, match="not primitive"):
            CyclicAction(Z5, 5, root=Fraction(1))
        z4 = RingDescriptor(("x",), (1,), (1,), torsion_order=4, scalar_order=4)
        with pytest.raises(ValueError, match="not primitive"):
            CyclicAction(z4, 4, root=Fraction(-1))


class TestConditions:
    def test_weight_condition(self):
        assert WeightCondition(weight=2).weight == 2
        assert_equal_not_same(WeightCondition(2), WeightCondition(2))
        assert_unequal(WeightCondition(2), WeightCondition(1))
        assert_unequal(WeightCondition(2), Membership(True, None))
        assert WeightCondition(2) != 2

    def test_congruence_image_condition(self):
        f = ABC.variable("a") * ABC.variable("b")
        cond = CongruenceImageCondition(even_variables=("c",), modulus=(f,))
        assert cond.even_variables == ("c",) and cond.modulus == (f,)
        assert_equal_not_same(cond, CongruenceImageCondition(("c",), (f,)))
        assert_unequal(cond, CongruenceImageCondition(("b",), (f,)))
        assert_unequal(cond, CongruenceImageCondition(("c",), (f + f,)))

    def test_substitution_parity_condition(self):
        ident = {v: ABC.variable(v) for v in ABC.variables}
        swap = {"a": ABC.variable("b"), "b": ABC.variable("a"), "c": ABC.variable("c")}
        cond = SubstitutionParityCondition(ident, swap)
        assert cond.sign_base == -1
        assert [cond.sign(m) for m in range(4)] == [1, -1, 1, -1]
        plus = SubstitutionParityCondition(sigma1=ident, sigma2=swap, sign_base=1)
        assert [plus.sign(m) for m in range(3)] == [1, 1, 1]
        assert_equal_not_same(cond, SubstitutionParityCondition(dict(ident), dict(swap), -1))
        assert_unequal(cond, plus)
        assert_unequal(cond, SubstitutionParityCondition(swap, ident))


class TestSubringRecords:
    def test_presentation_defaults_and_equality(self):
        fields = dict(
            generators=[(ABC.variable("a"), 1)],
            generator_census={1: 1},
            relation_census={},
            relations=[],
            free_ring=ABC,
            hilbert={0: 1, 1: 3},
            max_degree=1,
        )
        pres = SubringPresentation(**fields)
        assert pres.warning is None
        assert pres.free_ring is ABC and pres.hilbert == {0: 1, 1: 3}
        warned = SubringPresentation(*fields.values(), "census may be truncated")
        assert warned.warning == "census may be truncated"
        assert_equal_not_same(pres, SubringPresentation(**fields))
        assert_unequal(pres, warned)
        assert_unequal(pres, SubringPresentation(**{**fields, "max_degree": 2}))

    def test_generator_list_report_ok(self):
        good = GeneratorListReport([(0, 2, True)], {2: (3, 3, True)})
        assert good.ok is True
        assert GeneratorListReport([(0, 2, False)], {2: (3, 3, True)}).ok is False
        assert GeneratorListReport([(0, 2, True)], {2: (3, 2, False)}).ok is False
        assert GeneratorListReport([], {}).ok is True
        with pytest.raises(TypeError):
            GeneratorListReport([], {}, ok=False)

    def test_generator_list_report_equality(self):
        report = GeneratorListReport(memberships=[(0, 2, True)], generation={2: (3, 3, True)})
        assert_equal_not_same(report, GeneratorListReport([(0, 2, True)], {2: (3, 3, True)}))
        assert_unequal(report, GeneratorListReport([(0, 2, False)], {2: (3, 3, True)}))
        assert_unequal(report, GeneratorListReport([(0, 2, True)], {2: (3, 2, True)}))
