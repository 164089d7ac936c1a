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
from qfock.correlation import d_sum_function
from qfock.fock import FockSpace, oracle_trace


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
        sym = oracle_trace(FockSpace(1), 4, VarTable.make(2, 1), (0, 1),
                           z_indices=(2,), parity_projector="odd")
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
