"""CLI and serialization tests."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from qfock.laurent import LaurentPoly, VarTable
from qfock.ratfunc import RatFunc
from qfock.series import HalfSeries
from qfock import cli, verify
from qfock.cli import main, series_from_json, series_to_json
from qfock.correlation import d_sum_function, fock_trace_closed
from qfock.fock import FockSpace, oracle_trace
from qfock.qdim import QDimForm, q_minus, q_plus, qdim_irreducible
from qfock.weylb import BLabel


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def rand_series(rng, trunc2=6):
    table = VarTable.make(2, 1)
    terms = {}
    for e2 in range(-2, trunc2 + 1):
        if rng.random() < 0.5:
            num = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(-3, 3) for _ in range(3))
                num[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            np = LaurentPoly(table, num)
            if np.is_zero():
                continue
            den = LaurentPoly.monomial(table, {0: 2}) + LaurentPoly.const(
                table, rng.randint(1, 3))
            terms[e2] = RatFunc(np, den if rng.random() < 0.5 else
                                LaurentPoly.one(table))
    return HalfSeries(table, trunc2, terms)


class TestSerialization:
    def test_round_trip_random(self):
        rng = random.Random(31)
        for _ in range(25):
            s = rand_series(rng)
            data = json.loads(json.dumps(series_to_json(s)))
            back = series_from_json(data)
            assert back == s

    def test_schema_fields(self):
        s = HalfSeries(VarTable.make(1), 3, {3: Fraction(1, 2)})
        data = series_to_json(s)
        assert data["variables"] == ["t1"]
        assert data["order_x2"] == 3
        assert data["terms"][0]["q_x2"] == 3
        assert data["terms"][0]["coeff"]["num"] == [
            {"exps_x2": [0], "val": "1/2"}]
        assert data["terms"][0]["coeff"]["den"] == [
            {"exps_x2": [0], "val": "1"}]


class TestCompute:
    def test_theta_order_zero(self):
        code, out, _ = run_cli("compute", "--family", "theta", "--order", "0")
        assert code == 0
        data = json.loads(out)
        assert data["order_x2"] == 0
        assert data["terms"] == [{"q_x2": 0, "coeff": {
            "num": [{"exps_x2": [-1], "val": "-1"},
                    {"exps_x2": [1], "val": "1"}],
            "den": [{"exps_x2": [0], "val": "1"}]}}]

    def test_det_sector_counting_series(self):
        code, out, _ = run_cli("compute", "--family", "d-irreducible",
                               "--l", "0", "--lambda", "", "--det",
                               "--n", "0", "--order", "9/2")
        assert code == 0
        data = json.loads(out)
        got = {t["q_x2"]: t["coeff"]["num"][0]["val"] for t in data["terms"]}
        assert got == {1: "1", 3: "1", 5: "1", 7: "1", 9: "2"}

    def test_gl_simplest_case(self):
        code, out, _ = run_cli("compute", "--family", "gl", "--l", "1",
                               "--lambda", "1", "--n", "1", "--order", "2")
        assert code == 0
        data = json.loads(out)
        back = series_from_json(data)
        from qfock.special import f_bo
        tab = back.table
        fb = f_bo(1, 4, tab, (0,))
        want = fb.scale(LaurentPoly.monomial(tab, {0: 2})) * \
            HalfSeries.q_power(tab, 4, 1)
        assert back.eq_upto(want)

    @pytest.mark.parametrize("family, n", [("gl", 2), ("fbo", 2),
                                           ("theta", 1)])
    def test_eval_mode_evaluates_the_symbolic_series(self, family, n):
        common = ("compute", "--family", family, "--l", "1", "--lambda", "1",
                  "--n", str(n), "--order", "2")
        code, sym, _ = run_cli(*common)
        assert code == 0
        code, out, _ = run_cli(*common, "--mode", "eval", "--seed", "7")
        assert code == 0
        pt = verify.random_point(tuple(range(n)), 7)
        want = series_to_json(series_from_json(json.loads(sym)).evaluate(pt))
        want["evaluation"] = {f"t{i + 1}": str(v)
                              for i, v in sorted(pt.items())}
        assert out == json.dumps(want, sort_keys=True) + "\n"

    def test_deterministic_output(self):
        args = ("compute", "--family", "d-twisted", "--l", "1", "--lambda",
                "1", "--n", "1", "--order", "2", "--mode", "eval",
                "--seed", "5")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2 and out1

    def test_text_format(self):
        code, out, _ = run_cli("compute", "--family", "fbo", "--n", "1",
                               "--order", "1", "--format", "text")
        assert code == 0
        assert "q^" in out


class TestExitCodes:
    def test_bad_order(self):
        code, _, err = run_cli("compute", "--family", "theta", "--order", "1/3")
        assert code == 2 and "half-integer" in err

    def test_bad_family(self):
        code, _, _ = run_cli("compute", "--family", "nope")
        assert code == 2

    def test_bad_lambda_arity(self):
        code, _, err = run_cli("compute", "--family", "d-sum", "--l", "1",
                               "--lambda", "2,1", "--n", "1", "--order", "1")
        assert code == 2

    def test_malformed_order_text(self):
        code, _, err = run_cli("compute", "--family", "theta", "--n", "1",
                               "--order", "abc")
        assert code == 2 and "order" in err

    @pytest.mark.parametrize("argv", [
        ("oracle", "--n", "-2"),
        ("oracle", "--l", "-1"),
        ("verify", "--suite", "vacuum-recursion", "--n", "-1"),
        ("compute", "--family", "d-sum", "--n", "-1"),
        ("compute", "--family", "d-sum", "--l", "-1"),
        ("qdim", "--l", "-1"),
    ], ids=["oracle-n", "oracle-l", "verify-n", "compute-n", "compute-l",
            "qdim-l"])
    def test_negative_counts_are_bad_input(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2 and not out
        assert "must be nonnegative" in err

    def test_malformed_lambda_text(self):
        code, _, err = run_cli("compute", "--family", "d-sum", "--l", "2",
                               "--lambda", "2,a", "--n", "1", "--order", "1")
        assert code == 2 and "lambda" in err

    def test_vanishing_eval_point_suggests_another_seed(self, monkeypatch):
        # u1 = 1 is a genuine pole: the kernel's denominator factor u1 - 1
        # vanishes there
        monkeypatch.setattr(verify, "random_point", lambda ti, seed: {
            i: Fraction(1) if i == 0 else Fraction(3) for i in ti})
        code, _, err = run_cli("compute", "--family", "d-sum", "--l", "0",
                               "--n", "2", "--order", "1", "--mode", "eval",
                               "--seed", "20")
        assert code == 2
        assert "--seed" in err and len(err.strip().splitlines()) == 1

    def test_removable_singularity_evaluates(self):
        # at seed 20, u1 = u2 = -3: Theta(u1/u2) vanishes, but the reduced
        # function has no pole there
        code, out, _ = run_cli("compute", "--family", "d-sum", "--l", "0",
                               "--n", "2", "--order", "1", "--mode", "eval",
                               "--seed", "20")
        assert code == 0
        pt = verify.random_point((0, 1), 20)
        assert pt == {0: -3, 1: -3}
        want = series_to_json(d_sum_function((), 0, 2, 2).evaluate(pt))
        want["evaluation"] = {"t1": "-3", "t2": "-3"}
        assert out == json.dumps(want, sort_keys=True) + "\n"

    @pytest.mark.parametrize("exc", [ValueError("boom"),
                                     ZeroDivisionError("boom")])
    def test_internal_arithmetic_error_exits_3(self, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "theta", broken)
        code, _, err = run_cli("compute", "--family", "theta", "--n", "1",
                               "--order", "1")
        assert code == 3 and "boom" in err

    @pytest.mark.parametrize("exc", [KeyError("boom"), TypeError("boom")])
    def test_any_internal_exception_exits_3(self, monkeypatch, exc):
        # exit 1 is a failed verify; a fault of the program is exit 3
        def broken(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "d_sum_function", broken)
        code, _, err = run_cli("compute", "--family", "d-sum", "--n", "1",
                               "--order", "1")
        assert code == 3
        assert err.splitlines()[-1] == \
            f"internal error: {type(exc).__name__}: {exc}"

    def test_verify_pass(self):
        code, out, _ = run_cli("verify", "--suite", "weyl-denominator")
        assert code == 0
        assert "PASS" in out

    def test_verify_reports_first_mismatch_shape(self):
        # the onepoint suite passes; exercise its reporting path
        code, out, _ = run_cli("verify", "--suite", "onepoint", "--order", "2")
        assert code == 0
        assert "selected" in out


class TestOracleCommand:
    def test_neutral_base(self):
        code, out, _ = run_cli("oracle", "--l", "0", "--n", "0",
                               "--parity-sign", "--order", "3")
        assert code == 0
        data = json.loads(out)
        got = {t["q_x2"]: t["coeff"]["num"][0]["val"] for t in data["terms"]}
        assert got == {0: "1", 1: "-1", 3: "-1", 4: "1", 5: "-1", 6: "1"}

    def test_eval_mode_matches_evaluated_symbolic_trace(self):
        """At a point the oracle applies each insertion there; its JSON must
        equal the symbolic trace evaluated at the same point."""
        code, out, _ = run_cli("oracle", "--l", "1", "--n", "2",
                               "--z-grading", "--projector", "odd",
                               "--order", "2", "--mode", "eval",
                               "--seed", "3")
        assert code == 0
        pt = verify.random_point((0, 1), 3)
        _, sym = oracle_trace(FockSpace(1), 4, VarTable.make(2, 1), (0, 1),
                              z_indices=(2,))
        want = series_to_json(sym.evaluate(pt))
        assert want["terms"]
        data = json.loads(out)
        assert data.pop("evaluation") == {f"t{i + 1}": str(v)
                                          for i, v in sorted(pt.items())}
        assert data == want
        # byte for byte, as the CLI writes it
        want["evaluation"] = {f"t{i + 1}": str(v)
                              for i, v in sorted(pt.items())}
        assert out == json.dumps(want, sort_keys=True) + "\n"

    def test_qdim_command(self):
        code, out, _ = run_cli("qdim", "--l", "1", "--lambda", "1",
                               "--sector", "plus", "--order", "3")
        assert code == 0
        data = json.loads(out)
        assert data["terms"][0]["q_x2"] == 1


def _two_series():
    tab = VarTable.make(1)
    t = LaurentPoly.monomial(tab, {0: 2})
    a = HalfSeries(tab, 4, {0: 1, 1: RatFunc(t, t - LaurentPoly.one(tab))})
    b = HalfSeries(tab, 4, {0: 1, 1: Fraction(-1, 2)})
    return a, b


class TestFailureReporting:
    def test_failed_comparison_line(self):
        a, b = _two_series()
        assert verify._cmp("a == b", a, a).line() == "PASS  a == b"
        assert verify._cmp("a == b", a, b).line() == \
            "FAIL  a == b  [q^1/2: (t1)/(t1 - 1) vs -1/2]"
        # agreeing terms, but a claims one half-step more of them
        assert verify._cmp("a == b", a, a.truncate(3)).line() == \
            "FAIL  a == b  [order 2 vs 3/2]"

    def test_reading_lines(self):
        a, b = _two_series()
        assert verify._reading("the reading", a, a).line() == \
            "PASS  the reading agrees"
        assert verify._reading("the reading", a, a,
                               agrees="matches oracle").line() == \
            "PASS  the reading matches oracle"
        check = verify._reading("the reading", a, b)
        assert check.informational
        assert check.line() == "PASS  the reading rejected  " \
            "[first fails at q^1/2: (t1)/(t1 - 1) vs -1/2]"

    @pytest.mark.parametrize("suite", ["broken", "all"])
    def test_failing_suite_exits_1(self, monkeypatch, suite):
        a, b = _two_series()
        checks = [verify.Check("fine", True), verify._cmp("a == b", a, b),
                  verify._cmp("later", b, a)]
        monkeypatch.setattr(verify, "SUITES", {"broken": lambda: checks})
        code, out, err = run_cli("verify", "--suite", suite)
        assert code == 1
        assert out == "".join(c.line() + "\n" for c in checks)
        assert err == \
            "FIRST MISMATCH: a == b: q^1/2: (t1)/(t1 - 1) vs -1/2\n"


def _json_line(s, point=None):
    data = series_to_json(s)
    if point:
        data["evaluation"] = {f"t{i + 1}": str(v)
                              for i, v in sorted(point.items())}
    return json.dumps(data, sort_keys=True) + "\n"


class TestCommandsAgainstTheLibrary:
    def test_fock_trace(self):
        code, out, _ = run_cli("compute", "--family", "fock-trace", "--n",
                               "2", "--order", "3/2")
        assert code == 0
        want = fock_trace_closed(2, 3, VarTable.make(2, 1), (0, 1), 2)
        assert out == _json_line(want)

    def test_fock_trace_at_a_point(self):
        code, out, _ = run_cli("compute", "--family", "fock-trace", "--n",
                               "2", "--order", "3/2", "--mode", "eval",
                               "--seed", "4")
        assert code == 0
        pt = verify.random_point((0, 1), 4)
        want = fock_trace_closed(2, 3, VarTable.make(2, 1).bind(pt), (0, 1),
                                 2)
        assert out == _json_line(want, pt)

    @pytest.mark.parametrize("family, fn", [("q-plus", q_plus),
                                            ("q-minus", q_minus)])
    def test_q_sectors_carry_no_evaluation(self, family, fn):
        # the q-dimensions have no variables, so eval mode binds no point
        code, out, _ = run_cli("compute", "--family", family, "--l", "1",
                               "--mode", "eval")
        assert code == 0
        assert out == _json_line(fn((), 1, 6, QDimForm()))

    @pytest.mark.parametrize("family, fn", [("q-plus", q_plus),
                                            ("q-minus", q_minus)])
    def test_q_sectors(self, family, fn):
        code, out, _ = run_cli("compute", "--family", family, "--l", "2",
                               "--lambda", "1", "--order", "3", "--form",
                               "product", "--reading", "as-printed")
        assert code == 0
        assert out == _json_line(
            fn((1,), 2, 6, QDimForm("product", "as-printed")))

    @pytest.mark.parametrize("flag, det", [("--det", True),
                                           ("--irreducible", False)])
    def test_qdim_irreducible(self, flag, det):
        code, out, _ = run_cli("qdim", "--l", "2", "--lambda", "2,1",
                               "--order", "3", flag)
        assert code == 0
        assert out == _json_line(qdim_irreducible(BLabel((2, 1), det), 2, 6))

    @pytest.mark.parametrize("flags", [
        ("--det", "--irreducible"),
        ("--det", "--sector", "minus"),
        ("--det", "--form", "product"),
        ("--det", "--reading", "as-printed"),
        ("--irreducible", "--sector", "plus"),
        ("--irreducible", "--form", "weyl-sum"),
        ("--irreducible", "--reading", "corrected"),
    ], ids=" ".join)
    def test_qdim_irreducible_refuses_sector_options(self, flags):
        # an irreducible has no sector, form or reading to choose; the
        # option is refused, not ignored
        code, out, err = run_cli("qdim", "--l", "1", "--order", "2", *flags)
        assert code == 2 and not out and err

    @pytest.mark.parametrize("argv, suite, kwargs", [
        (("--suite", "vacuum-recursion", "--n", "1", "--order", "1",
          "--mode", "eval", "--seed", "4"), "vacuum-recursion",
         {"n_max": 1, "trunc2": 2, "mode": "eval", "seed": 4}),
        (("--suite", "twisted", "--order", "1", "--mode", "eval",
          "--seed", "5"), "main-theorem",
         {"trunc2": 2, "mode": "eval", "seed": 5}),
        (("--suite", "needed", "--order", "3/2"), "needed", {"trunc2": 3}),
        (("--suite", "qdim", "--order", "1/2"), "qdim", {"trunc2": 2}),
        (("--suite", "onepoint", "--order", "1/2"), "onepoint", {"trunc2": 2}),
    ], ids=["vacuum-recursion", "main-theorem", "needed", "qdim", "onepoint"])
    def test_verify_arguments(self, monkeypatch, argv, suite, kwargs):
        fn = verify.SUITES[suite]
        calls = []

        def recording(**kw):
            calls.append(kw)
            return fn(**kw)

        monkeypatch.setitem(verify.SUITES, suite, recording)
        code, out, _ = run_cli("verify", *argv)
        assert code == 0
        assert calls == [kwargs]
        assert out == "".join(c.line() + "\n" for c in fn(**kwargs))
