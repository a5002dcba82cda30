import json

import pytest

from grassvar.cli import (
    CliInputError,
    parse_polynomial,
    render_ideal,
    run_command,
)
from grassvar.fp import PrimeField
from grassvar.modules import module_to_dict, quotient_by_linear_forms
from grassvar.poly import PolyRing, buchberger_reduced, ideal

F2 = PrimeField(2)
F5 = PrimeField(5)


@pytest.fixture
def module_files(tmp_path):
    paths = {}
    specs = {
        "rx3": (F2, 3, [(1, 0, 0)]),
        "ry3": (F2, 3, [(0, 1, 0)]),
        "k2": (F2, 2, [(1, 0), (0, 1)]),
        "rx2": (F2, 2, [(1, 0)]),
    }
    for name, (field, c, forms) in specs.items():
        M = quotient_by_linear_forms(field, c, forms)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(module_to_dict(M)))
        paths[name] = str(path)
    return paths


def _run(capsys, *argv):
    status = run_command(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


class TestParsePolynomial:
    def setup_method(self):
        self.ring = PolyRing(F5, ["a1", "a2", "a3"])

    def test_round_trip(self):
        for text in ["a1 + 2*a2", "a1*a2^2 + 4", "a3^3"]:
            poly = parse_polynomial(self.ring, text)
            assert str(poly) == text

    def test_precedence_and_parens(self):
        a1, a2, a3 = (self.ring.var(i) for i in range(3))
        assert parse_polynomial(self.ring, "a1 + a2*a3^2") == a1 + a2 * a3 * a3
        assert parse_polynomial(self.ring, "(a1 + a2)*a3") == (a1 + a2) * a3
        # chained exponents associate to the left: (a1^2)^3
        assert parse_polynomial(self.ring, "a1^2^3") == a1**6

    def test_unary_minus_and_constants(self):
        assert parse_polynomial(self.ring, "-a1 + 7") == (
            self.ring.const(4) * self.ring.var(0) + self.ring.const(2)
        )
        assert parse_polynomial(self.ring, "0").is_zero()

    def test_errors(self):
        with pytest.raises(CliInputError, match="unknown variable 'b1'"):
            parse_polynomial(self.ring, "b1 + 1")
        with pytest.raises(CliInputError, match="position"):
            parse_polynomial(self.ring, "a1 +")
        with pytest.raises(CliInputError, match="unexpected character"):
            parse_polynomial(self.ring, "a1 & a2")
        with pytest.raises(CliInputError, match="exponent"):
            parse_polynomial(self.ring, "a1^99999")
        # an exponent as long as the cap is echoed, a longer one is counted
        with pytest.raises(
            CliInputError, match="^exponent 2000 at position 3 exceeds the cap 1024$"
        ):
            parse_polynomial(self.ring, "a1^2000")
        with pytest.raises(
            CliInputError,
            match="^exponent of 3000 digits at position 3 exceeds the cap 1024$",
        ) as err:
            parse_polynomial(self.ring, "a1^" + "9" * 3000)
        assert len(str(err.value)) < 100
        # leading zeros do not count towards the length
        assert parse_polynomial(self.ring, "a1^00002") == parse_polynomial(self.ring, "a1^2")
        # only ASCII digits make an integer: a superscript is not an exponent
        with pytest.raises(CliInputError, match="unexpected character '²' at position 3"):
            parse_polynomial(self.ring, "a1^²")
        # a literal too long for int() is bad input, not a crash
        huge = "1" * 5000
        with pytest.raises(CliInputError, match="5000 digits at position 0"):
            parse_polynomial(self.ring, f"{huge}*a1")
        with pytest.raises(CliInputError, match="5000 digits at position 3"):
            parse_polynomial(self.ring, f"a1^{huge}")


def test_render_ideal_marks_empty_variety():
    ring = PolyRing(F2, ["a1"])
    unit = buchberger_reduced(ideal(ring, [ring.one]))
    assert render_ideal(unit) == "ideal(1)  [empty variety]"
    assert render_ideal(ideal(ring, [])) == "ideal(0)"


def test_validate_ok(capsys, module_files):
    status, out, _ = _run(capsys, "validate", module_files["rx3"])
    assert status == 0
    assert out == "ok: p=2 c=3 dim=4\n"


def test_validate_reads_entries_beyond_int64_mod_p(capsys, tmp_path):
    # 10^26 is even, so over F_2 this is the zero action on k
    path = tmp_path / "big.json"
    path.write_text('{"p": 2, "c": 1, "dim": 1, "actions": [[[100000000000000000000000000]]]}')
    assert _run(capsys, "validate", str(path)) == (0, "ok: p=2 c=1 dim=1\n", "")


@pytest.mark.parametrize("doc", [
    '{"p": 2, "c": true, "dim": 1, "actions": [[[0]]]}',
    '{"p": 2, "c": 1, "dim": true, "actions": [[[0]]]}',
    '{"p": 2, "c": 1, "dim": 1, "actions": [[[false]]]}',
], ids=["c", "dim", "entry"])
def test_validate_rejects_booleans(capsys, tmp_path, doc):
    path = tmp_path / "bool.json"
    path.write_text(doc)
    status, out, err = _run(capsys, "validate", str(path))
    assert (status, out) == (1, "")
    assert err.startswith("error:") and "integer" in err and len(err.splitlines()) == 1


def test_validate_reports_problems(capsys, tmp_path, module_files):
    data = json.loads(open(module_files["rx3"]).read())
    data["actions"][0][0][0] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    status, out, _ = _run(capsys, "validate", str(bad))
    assert status == 1
    assert "problem: X1^2 != 0" in out
    assert "problem: X1 and X2 do not commute" in out


def test_validate_json_uses_the_shared_printer(capsys, tmp_path, module_files):
    assert _run(capsys, "validate", "--json", module_files["rx3"]) == (
        0, json.dumps({"c": 3, "dim": 4, "ok": True, "p": 2, "problems": []}, indent=2) + "\n", "")
    data = json.loads(open(module_files["rx3"]).read())
    data["actions"][0][0][0] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    status, out, err = _run(capsys, "validate", "--json", str(bad))
    assert (status, err) == (1, "")
    payload = json.loads(out)
    assert (payload["ok"], payload["p"], payload["c"], payload["dim"]) == (False, 2, 3, 4)
    assert "X1^2 != 0" in payload["problems"] and "X1 and X2 do not commute" in payload["problems"]
    # the text form prints one line per problem
    status, text, _ = _run(capsys, "validate", str(bad))
    assert text == "".join(f"problem: {line}\n" for line in payload["problems"])


def test_rank_ideal_text_and_json(capsys, module_files):
    status, out, _ = _run(capsys, "rank-ideal", module_files["rx3"])
    assert status == 0
    assert out == "ideal(a2^2, a2*a3, a3^2)\n"
    status, out, _ = _run(capsys, "rank-ideal", "--json", module_files["rx3"])
    assert status == 0
    payload = json.loads(out)
    assert payload == {
        "empty": False,
        "projectively_empty": False,
        "generators": ["a2^2", "a2*a3", "a3^2"],
        "variables": ["a1", "a2", "a3"],
    }


def test_rank_ideal_free_module_reports_emptiness(capsys, tmp_path):
    from grassvar.modules import regular_module

    path = tmp_path / "ke2.json"
    path.write_text(json.dumps(module_to_dict(regular_module(F2, 2))))
    status, out, _ = _run(capsys, "rank-ideal", str(path))
    assert status == 0
    assert out == "ideal(a1^2, a1*a2, a2^2)\nprojectively empty\n"


def test_pair_ideal(capsys, module_files):
    status, out, _ = _run(
        capsys, "pair-ideal", module_files["rx3"], module_files["ry3"]
    )
    assert status == 0
    # the two lines only meet at the origin
    assert out == "ideal(a1^2, a2^2, a1*a3, a2*a3, a3^2)\nprojectively empty\n"


def test_higher_ideal(capsys, module_files):
    status, out, _ = _run(
        capsys, "higher-ideal", "-d", "2", module_files["rx3"], module_files["rx3"]
    )
    assert status == 0
    assert out == "ideal(p_23^2)\ndim = 1\n"


def test_project_gamma(capsys):
    status, out, _ = _run(
        capsys, "project-gamma", "-p", "2", "-c", "3", "-d", "2",
        "-z", "a2", "-z", "a3",
    )
    assert status == 0
    assert out == "ideal(p_23)\ndim = 1\n"
    # semicolons inside one -z argument mean the same thing
    status, out2, _ = _run(
        capsys, "project-gamma", "-p", "2", "-c", "3", "-d", "2",
        "-z", "a2; a3",
    )
    assert status == 0
    assert out2 == out


def test_project_gamma_dimension_of_non_monomial_bases(capsys):
    # the Pluecker quadric cut by a linear form: a 3-dimensional cone
    status, out, _ = _run(
        capsys, "project-gamma", "-p", "2", "-c", "4", "-d", "2",
        "-z", "a1+a3; a2+a4",
    )
    assert status == 0
    assert out.splitlines()[-1] == "dim = 3"
    # a conic in a plane of P^3: a projective curve
    status, out, _ = _run(
        capsys, "project-gamma", "-p", "2", "-c", "4", "-d", "1",
        "-z", "a1*a2+a3*a4; a1+a2+a3",
    )
    assert status == 0
    assert out.splitlines()[-1] == "dim = 1"


def test_project_gamma_unit_input(capsys):
    status, out, _ = _run(
        capsys, "project-gamma", "-p", "2", "-c", "3", "-d", "1", "-z", "1"
    )
    assert status == 0
    assert out == "ideal(1)  [empty variety]\ndim = -1\n"


def test_project_gamma_rejects_non_cones(capsys):
    status, out, err = _run(
        capsys, "project-gamma", "-p", "2", "-c", "3", "-d", "2",
        "-z", "a1*a2+a3; a1+a2+1",
    )
    assert (status, out) == (1, "")
    assert err == "error: Z must define a cone, but its basis element a2^2 + a2 + a3 is not homogeneous\n"


def test_betti_and_ext(capsys, module_files):
    status, out, _ = _run(capsys, "betti", "-n", "4", module_files["k2"])
    assert status == 0
    assert out == "1 2 3 4 5\n"
    status, out, _ = _run(
        capsys, "ext", "-n", "4", module_files["rx2"], module_files["k2"]
    )
    assert status == 0
    assert out == "1 1 1 1 1\n"


def test_oracle_single_subspace(capsys, module_files):
    status, out, _ = _run(
        capsys, "oracle", "-d", "1", "-q", "1,0,0",
        module_files["rx3"], module_files["rx3"],
    )
    assert status == 0
    assert out == (
        "(1 : 0 : 0)  geometric=yes homological=yes ideal=yes\n"
        "agree: yes\n"
    )
    status, out, _ = _run(
        capsys, "oracle", "-d", "1", "-q", "0,1,0",
        module_files["rx3"], module_files["rx3"],
    )
    assert status == 0
    assert out == (
        "(0 : 1 : 0)  geometric=no homological=no ideal=no\n"
        "agree: yes\n"
    )


def test_oracle_sweep(capsys, module_files):
    status, out, _ = _run(
        capsys, "oracle", "-d", "1", module_files["rx3"], module_files["rx3"]
    )
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[-1] == "agree: yes"
    assert sum("geometric=yes" in line for line in lines) == 1


def test_oracle_json(capsys, module_files):
    status, out, _ = _run(
        capsys, "oracle", "--json", "-d", "1", "-q", "1,0,0",
        module_files["rx3"], module_files["rx3"],
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["rows"] == [
        {
            "subspace": [[1, 0, 0]],
            "pluecker": [1, 0, 0],
            "geometric": True,
            "homological": True,
            "ideal": True,
        }
    ]


def test_embed(capsys):
    status, out, _ = _run(
        capsys, "embed", "-p", "2", "-c", "4", "-d", "2",
        "1,0,0,1;0,1,0,1",
    )
    assert status == 0
    assert out == "(1 : 0 : 1 : 0 : 1 : 0)\n"


def test_embed_reads_entries_mod_p(capsys):
    # 10^23 is even and 3 is 0 over F_3, so each row spans the line (0 : 1);
    # an entry beyond int64 raised OverflowError with a traceback
    for argv in (["-c", "2", "-d", "1", "100000000000000000000000,1"],
                 ["-p", "3", "-c", "2", "-d", "1", "3,1"]):
        assert _run(capsys, "embed", *argv) == (0, "(0 : 1)\n", "")


def test_embed_rejects_more_than_nine_coordinates(capsys):
    status, out, err = _run(
        capsys, "embed", "-c", "12", "-d", "1", "1,0,0,0,0,0,0,0,0,0,0,0"
    )
    assert (status, out) == (1, "")
    assert err == "error: coordinate names use single digits; c must be at most 9\n"


def test_oracle_rejects_subspace_dimension_out_of_range(capsys, module_files):
    for d in ("5", "0"):
        status, out, err = _run(
            capsys, "oracle", "-d", d, module_files["rx2"], module_files["rx2"]
        )
        assert (status, out) == (1, "")
        assert err == f"error: need 1 <= d <= c, got d={d}, c=2\n"


def test_missing_file_is_input_error(capsys, tmp_path):
    status, out, err = _run(capsys, "rank-ideal", str(tmp_path / "nope.json"))
    assert status == 1
    assert err.startswith("error: cannot read")


@pytest.mark.parametrize(
    "command",
    [["pair-ideal"], ["higher-ideal", "-d", "1"], ["ext", "-n", "2"], ["oracle", "-d", "1"]],
    ids=lambda command: command[0],
)
def test_mismatched_pair_is_input_error(capsys, module_files, command):
    status, out, err = _run(capsys, *command, module_files["rx3"], module_files["rx2"])
    assert (status, out) == (1, "")
    assert err == "error: modules must share the same p and c\n"


def test_degree_bound_while_parsing_is_input_error(capsys):
    # the parser's own ValueError, raised by a power past the degree bound
    status, out, err = _run(
        capsys, "project-gamma", "-c", "2", "-d", "1", "-z", "(a1^1024)^1024"
    )
    assert (status, out) == (1, "")
    assert err.startswith("error:") and "524288" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_bad_subspace_shape(capsys):
    status, _, err = _run(
        capsys, "embed", "-p", "2", "-c", "3", "-d", "2", "1,0,0"
    )
    assert status == 1
    assert "subspace must have 2 rows" in err


def test_bad_polynomial_reports_position(capsys):
    status, _, err = _run(
        capsys, "project-gamma", "-p", "2", "-c", "3", "-d", "2", "-z", "a2 +"
    )
    assert status == 1
    assert "position 4" in err
    status, _, err = _run(
        capsys, "project-gamma", "-p", "2", "-c", "3", "-d", "2", "-z", "a9"
    )
    assert status == 1
    assert "expected one of a1, a2, a3" in err


def test_budget_exhaustion_is_resource_error(capsys, cold_memos):
    # the memos are emptied first: a stored projection would spend no budget
    status, _, err = _run(
        capsys, "project-gamma", "-p", "2", "-c", "4", "-d", "2",
        "-z", "a1*a2; a3", "--budget", "5",
    )
    assert status == 2
    assert err.startswith("resource limit:")


def test_budget_bounds_the_whole_command(capsys, cold_memos):
    # the command spends 10 reductions over several Groebner calls, at most
    # 8 in any one of them
    argv = ("project-gamma", "-p", "2", "-c", "4", "-d", "2", "-z", "a1*a2; a3", "--budget")
    status, out, err = _run(capsys, *argv, "9")
    assert (status, out) == (2, "")
    assert err == "resource limit: Groebner pair budget exceeded (9 reductions)\n"
    status, out, err = _run(capsys, *argv, "10")
    assert (status, err) == (0, "")
    assert out == (
        "ideal(p_13^2*p_24 + p_12*p_13*p_34, p_13*p_23, p_14*p_23 + p_13*p_24 + p_12*p_34)\n"
        "dim = 3\n"
    )


def test_planes_meeting_a_hyperplane_spend_no_budget(capsys, cold_memos):
    # dim Z + d > c: every plane of k^4 meets the hyperplane a2 = 0, so the
    # answer is the Pluecker quadric, with no elimination
    status, out, err = _run(
        capsys, "project-gamma", "-p", "2", "-c", "4", "-d", "2", "-z", "a2", "--budget", "0"
    )
    assert (status, err) == (0, "")
    assert out == "ideal(p_14*p_23 + p_13*p_24 + p_12*p_34)\ndim = 4\n"


def test_negative_budget_is_input_error(capsys):
    status, out, err = _run(
        capsys, "project-gamma", "-c", "4", "-d", "2", "-z", "a2", "--budget", "-3"
    )
    assert (status, out) == (1, "")
    assert err == "error: need --budget >= 0, got -3\n"


def test_project_gamma_rejects_nonpositive_c(capsys):
    status, out, err = _run(
        capsys, "project-gamma", "-p", "2", "-c", "0", "-d", "1", "-z", "a1"
    )
    assert (status, out) == (1, "")
    assert err == "error: need c >= 1, got c=0\n"


def test_embed_rejects_nonpositive_d(capsys):
    status, out, err = _run(capsys, "embed", "-c", "3", "-d", "0", "1,0,0")
    assert (status, out) == (1, "")
    assert err == "error: need 1 <= d <= c, got d=0, c=3\n"


def test_negative_bound_rejected(capsys, module_files):
    status, _, err = _run(capsys, "betti", "-n", "-1", module_files["k2"])
    assert status == 1
    assert "nonnegative" in err


def test_invalid_json_module(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    status, _, err = _run(capsys, "rank-ideal", str(path))
    assert status == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["rank-ideal"],
        ["pair-ideal", "other"],
        ["higher-ideal", "-d", "1", "other"],
        ["betti", "-n", "2"],
        ["ext", "-n", "2", "other"],
        ["oracle", "-d", "1", "other"],
    ],
    ids=lambda argv: argv[0],
)
def test_module_commands_reject_non_modules(capsys, tmp_path, argv):
    # X1 = [[1, 0], [1, 0]] is idempotent, so X1^2 != 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"p": 2, "c": 2, "dim": 2, "actions": [[[1, 0], [1, 0]], [[0, 0], [0, 0]]]}
    ))
    args = [str(bad) if a == "other" else a for a in argv] + [str(bad)]
    status, out, err = _run(capsys, *args)
    assert status == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "not a kE-module" in lines[0]


def test_rendered_generators_reparse_to_themselves(module_files):
    # every ideal the tools print can be read back in verbatim
    from grassvar.modules import module_from_dict
    from grassvar.rankvariety import (
        coordinate_ring,
        pair_variety_ideal,
        rank_variety_ideal,
    )

    M = module_from_dict(json.loads(open(module_files["rx3"]).read()))
    N = module_from_dict(json.loads(open(module_files["ry3"]).read()))
    for I in (rank_variety_ideal(M).gb, pair_variety_ideal(M, N).gb):
        ring = I.ring
        for g in I.gens:
            assert str(parse_polynomial(ring, str(g))) == str(g)


def test_module_file_round_trip_is_byte_identical(module_files):
    from grassvar.modules import module_from_dict

    for path in module_files.values():
        canonical = json.dumps(
            module_to_dict(module_from_dict(json.loads(open(path).read()))),
            sort_keys=True,
        )
        again = json.dumps(
            module_to_dict(module_from_dict(json.loads(canonical))),
            sort_keys=True,
        )
        assert again == canonical
