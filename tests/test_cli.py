"""Command-line driver: exit codes, report formats, determinism."""

import json
from pathlib import Path

import pytest

from flowent.cli import main
from flowent.model import make_bernoulli, save_flow, random_stencil_flow


@pytest.fixture
def bernoulli_spec(tmp_path, gf4):
    path = tmp_path / "bernoulli.json"
    save_flow(make_bernoulli(gf4, 1), path)
    return str(path)


@pytest.fixture
def gf2_bernoulli_spec(tmp_path, gf2):
    path = tmp_path / "b2.json"
    save_flow(make_bernoulli(gf2, 1), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCompute:
    def test_bernoulli_resolves_to_one(self, capsys, bernoulli_spec):
        code, out = run(capsys, "compute", bernoulli_spec, "--max-n", "24")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 1
        assert payload["resolved"] is True
        assert payload["h_top"]["field_order"] == 4
        assert payload["h_top"]["log_value"] == f"{1 * __import__('math').log(4):.12f}"

    def test_identity_resolves_to_zero(self, capsys, tmp_path, gf2):
        from flowent.model import SpaceShape, make_identity

        path = tmp_path / "id.json"
        save_flow(make_identity(SpaceShape(gf2, 1)), path)
        code, out = run(capsys, "compute", str(path), "--max-n", "24")
        assert code == 0
        assert json.loads(out)["value"] == 0

    def test_invalid_json_exits_one(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"field": {"p": 2')
        code, _ = run(capsys, "compute", str(path))
        assert code == 1

    def test_unresolved_exits_two(self, capsys, tmp_path, gf2):
        path = tmp_path / "wide.json"
        save_flow(make_bernoulli(gf2, 6), path)
        code, out = run(capsys, "compute", str(path), "--max-n", "24", "--max-m", "4")
        assert code == 2
        assert json.loads(out)["value"] is None

    def test_csv_format(self, capsys, bernoulli_spec):
        code, out = run(
            capsys, "compute", bernoulli_spec, "--max-n", "8", "--max-m", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "flow,field,m,n,codim,window"
        assert len(lines) == 1 + 3 * 8
        assert lines[1].startswith("bernoulli[1],GF(4),0,1,0,")

    def test_deterministic_bytes(self, capsys, bernoulli_spec):
        _, first = run(capsys, "compute", bernoulli_spec, "--max-n", "12")
        _, second = run(capsys, "compute", bernoulli_spec, "--max-n", "12")
        assert first == second

    def test_out_file(self, tmp_path, capsys, bernoulli_spec):
        target = tmp_path / "report.json"
        code, out = run(capsys, "compute", bernoulli_spec, "--max-n", "12", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["value"] == 1

    def test_inconsistent_config_exits_one(self, capsys, bernoulli_spec):
        # trace too short for the required stabilization streak
        code, _ = run(capsys, "compute", bernoulli_spec, "--max-n", "3", "--streak", "5")
        assert code == 1

    def test_zero_streak_exits_one(self, capsys, bernoulli_spec):
        code = main(["compute", bernoulli_spec, "--streak", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "streak must be at least 1, got 0" in captured.err

    def test_reducible_field_descriptor_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "field": {"p": 2, "tower": [[1, 0, 1]]},  # x^2 + 1 factors
                    "discrete_dim": 0,
                    "stencil": {"1": [1, 0]},
                }
            )
        )
        code, _ = run(capsys, "compute", str(path))
        assert code == 1


class TestMalformedSpecs:
    """Non-integer elements and malformed descriptors exit 1 with a message;
    none is truncated to an integer or escapes as a TypeError."""

    SPECS = {
        "float-coordinate": {"field": {"p": 3}, "stencil": {"1": [1.7]}},
        "float-element": {"field": {"p": 3}, "stencil": {"1": 1.5}},
        "float-prefix-entry": {"field": {"p": 3}, "stencil": {"1": 1}, "prefix": [[0.5]]},
        "tower-not-a-list": {"field": {"p": 3, "tower": 5}, "stencil": {"1": 1}},
        "float-characteristic": {"field": {"p": 2.5}, "stencil": {"1": 1}},
        "list-characteristic": {"field": {"p": [2]}, "stencil": {"1": 1}},
        "float-discrete-dim": {"field": {"p": 2}, "discrete_dim": 1.5, "stencil": {"1": 1}},
    }

    @pytest.mark.parametrize("case", list(SPECS))
    def test_compute_exits_one(self, capsys, tmp_path, case):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPECS[case]))
        code = main(["compute", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["compute", "verify"])
    def test_boolean_discrete_dim_exits_one(self, capsys, tmp_path, command):
        # JSON true is a Python bool, which passes an int check
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"field": {"p": 2}, "discrete_dim": True, "stencil": {"1": 1}}))
        code = main([command, str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "discrete_dim" in err

    def test_ext_modulus_not_a_list_exits_one(self, capsys, gf2_bernoulli_spec):
        code = main(["verify", gf2_bernoulli_spec, "--ext-modulus", "5"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ")


class TestVerify:
    def test_bernoulli_tower_passes(self, capsys, bernoulli_spec):
        code, out = run(capsys, "verify", bernoulli_spec, "--max-n", "24", "--max-m", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "PASS"
        assert payload["ent_F"]["value"] == 2
        assert payload["ent_K"]["value"] == 1
        assert payload["ent_L"]["value"] == 1
        assert payload["degree_FK"] == 2
        assert all(payload["identities"].values())

    def test_explicit_extension_modulus(self, capsys, bernoulli_spec, gf4):
        g = [int(v) for v in gf4.coords(gf4.generator)]
        modulus = json.dumps([g, [1, 0], [1, 0]])
        code, out = run(
            capsys,
            "verify",
            bernoulli_spec,
            "--max-n",
            "24",
            "--max-m",
            "4",
            "--ext-modulus",
            modulus,
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "PASS"

    def test_bad_tower_depth(self, capsys, bernoulli_spec):
        code, _ = run(capsys, "verify", bernoulli_spec, "--base-depth", "5")
        assert code == 1

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_identity_depth_below_one_exits_one(self, capsys, bernoulli_spec, depth):
        # such a depth checks no identity, so it must not pass on the formulas alone
        code = main(["verify", bernoulli_spec, "--max-n", "24", "--max-m", "4", "--identity-n", depth])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert f"identity depth {depth}" in err

    def test_reducible_extension_rejected(self, capsys, gf2_bernoulli_spec):
        code, _ = run(
            capsys, "verify", gf2_bernoulli_spec, "--ext-modulus", "[1, 0, 1]"
        )
        assert code == 1


class TestExample:
    def test_bernoulli_roundtrip(self, capsys, tmp_path):
        target = tmp_path / "flow.json"
        code, _ = run(capsys, "example", "bernoulli", "--field", "2", "--dim", "1", "--out", str(target))
        assert code == 0
        code, out = run(capsys, "compute", str(target), "--max-n", "24")
        assert code == 0
        assert json.loads(out)["value"] == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_entropy_n(self, capsys, tmp_path, n):
        target = tmp_path / f"ent{n}.json"
        code, _ = run(
            capsys, "example", "entropy-n", "--field", "2", "--n", str(n), "--out", str(target)
        )
        assert code == 0
        code, out = run(capsys, "compute", str(target), "--max-n", "24")
        assert code == 0
        assert json.loads(out)["value"] == n

    def test_direct_sum(self, capsys, tmp_path):
        target = tmp_path / "sum.json"
        code, _ = run(capsys, "example", "direct-sum", "--field", "2", "--dims", "1,1", "--out", str(target))
        assert code == 0
        code, out = run(capsys, "compute", str(target), "--max-n", "24")
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_gf4_shorthand(self, capsys, tmp_path):
        target = tmp_path / "b4.json"
        code, _ = run(capsys, "example", "bernoulli", "--field", "4", "--out", str(target))
        assert code == 0
        spec = json.loads(target.read_text())
        assert spec["field"]["p"] == 2
        assert len(spec["field"]["tower"]) == 1

    def test_unknown_name_exits_one(self, capsys):
        code, _ = run(capsys, "example", "nonsense")
        assert code == 1

    def test_bad_field(self, capsys):
        code, _ = run(capsys, "example", "bernoulli", "--field", "6")
        assert code == 1


class TestOracle:
    def test_bernoulli_all_equal(self, capsys, gf2_bernoulli_spec):
        code, out = run(capsys, "oracle", gf2_bernoulli_spec, "--max-n", "6", "--max-m", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_equal"] is True
        assert payload["comparisons"] == 4 * 6

    def test_identity_zeros(self, capsys, tmp_path, gf2):
        from flowent.model import SpaceShape, make_identity

        path = tmp_path / "id.json"
        save_flow(make_identity(SpaceShape(gf2, 0)), path)
        code, out = run(capsys, "oracle", str(path), "--max-n", "4", "--max-m", "2")
        assert code == 0
        assert all(cell["structured"] == 0 for cell in json.loads(out)["cells"])

    def test_oversized_window_exits_one(self, capsys, gf2_bernoulli_spec):
        code, _ = run(capsys, "oracle", gf2_bernoulli_spec, "--window", "13")
        assert code == 1

    @pytest.mark.parametrize("flags", [["--max-n", "0"], ["--max-n", "-3"], ["--max-m", "-1"]])
    def test_empty_comparison_exits_one(self, capsys, gf2_bernoulli_spec, flags):
        # a run that compares nothing must not report all_equal
        code = main(["oracle", gf2_bernoulli_spec, *flags])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    def test_non_gf2_rejected(self, capsys, bernoulli_spec):
        code, _ = run(capsys, "oracle", bernoulli_spec)
        assert code == 1

    def test_csv_format(self, capsys, gf2_bernoulli_spec):
        code, out = run(
            capsys, "oracle", gf2_bernoulli_spec, "--max-n", "3", "--max-m", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "flow,field,m,n,structured,enumerated,window"
        assert len(lines) == 1 + 2 * 3


class TestSeededRandomFlows:
    def test_verify_random_flow(self, capsys, tmp_path, gf4):
        path = tmp_path / "rand.json"
        save_flow(random_stencil_flow(gf4, 1), path)
        code, out = run(capsys, "verify", str(path), "--max-n", "32", "--max-m", "6")
        assert code in (0, 2)
        assert json.loads(out)["verdict"] in ("PASS", "INCONCLUSIVE")
        assert all(json.loads(out)["identities"].values())


class TestOversizedFields:
    """Fields of order above 2^16 exit 1 at once.  Each case runs in a
    fresh process under a timeout, since an unchecked one runs for minutes:
    a linear factoring scan, an irreducible scan over 2^40 polynomials, or
    trial division of a 61-bit prime."""

    CASES = {
        "order-2^32": ["example", "bernoulli", "--field", "4294967296"],
        "prime-2^61-1": ["example", "bernoulli", "--field", "2305843009213693951"],
        "prime-descriptor": ["example", "bernoulli", "--field", '{"p": 2305843009213693951}'],
        "entropy-n-40": ["example", "entropy-n", "--n", "40"],
        "tower-degree-40": ["compute", "<tower40>"],
        "ext-degree-40": ["verify", "<gf2>", "--ext-degree", "40"],
    }

    SCRIPT = "import sys; from flowent.cli import main; sys.exit(main(sys.argv[1:]))"

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_one(self, case, tmp_path, gf2_bernoulli_spec, run_python):
        spec = json.loads(Path(gf2_bernoulli_spec).read_text())
        # x^40 + x^5 + x^4 + x^3 + 1 over GF(2)
        spec["field"]["tower"] = [[1, 0, 0, 1, 1, 1] + [0] * 34 + [1]]
        tower40 = tmp_path / "tower40.json"
        tower40.write_text(json.dumps(spec))
        paths = {"<tower40>": str(tower40), "<gf2>": gf2_bernoulli_spec}
        argv = [paths.get(a, a) for a in self.CASES[case]]
        out = run_python("-c", self.SCRIPT, *argv, timeout=20)
        assert out.returncode == 1, out.stderr
        assert out.stderr.startswith("error: ")

    def test_largest_order_runs(self, run_python):
        out = run_python("-c", self.SCRIPT, "example", "bernoulli", "--field", "65536", timeout=20)
        assert out.returncode == 0, out.stderr
        assert len(json.loads(out.stdout)["field"]["tower"][0]) == 17


class TestOversizedSpecs:
    """A spec whose arrays would exceed the entry cap exits 1 before they are
    allocated.  Each case runs in a fresh process whose address space is
    capped at 2 GiB, so an array of the sizes below would fail to allocate
    and escape as a MemoryError traceback: a stencil offset of 10^8 gives a
    window of 6.4 * 10^9 coordinates (47.7 GiB of row indices), and a
    discrete dimension of 10^7 a dense block of 10^14 entries (728 TiB).
    A stencil offset of 6 * 10^4 gives a window of 3.84 * 10^6 coordinates,
    whose nonzeros are under the cap, but whose constraint blocks are not:
    8 rows over GF(2), and 8 * 2 restricted rows of twice the width on the
    GF(4) side of ``verify``, which ran for minutes and then died of a
    MemoryError before the chain checked its blocks."""

    SPECS = {
        "stencil-offset-1e8": {"field": {"p": 2}, "stencil": {"100000000": 1}},
        "stencil-offset-6e4": {"field": {"p": 2}, "stencil": {"60000": 1}},
        "discrete-dim-1e7": {"field": {"p": 2}, "discrete_dim": 10_000_000, "stencil": {"1": 1}},
    }

    SCRIPT = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "from flowent.cli import main; sys.exit(main(sys.argv[1:]))"
    )

    @pytest.mark.parametrize("command", ["compute", "verify"])
    @pytest.mark.parametrize("case", list(SPECS))
    def test_exits_one(self, case, command, tmp_path, run_python):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPECS[case]))
        out = run_python("-c", self.SCRIPT, command, str(path), timeout=20)
        assert out.returncode == 1, out.stderr
        assert len(out.stderr.splitlines()) == 1, out.stderr
        assert out.stderr.startswith("error: ") and "cap" in out.stderr, out.stderr
        assert out.stdout == ""


class TestUnwritableOut:
    """A report that cannot be written is an input error: each subcommand
    exits 1 with one ``error:`` line, and no traceback escapes."""

    ARGS = {
        "compute": ["--max-n", "8", "--max-m", "1"],
        "verify": ["--max-n", "8", "--max-m", "1", "--identity-n", "1"],
        "example": [],
        "oracle": ["--max-n", "2", "--max-m", "1"],
    }

    @pytest.mark.parametrize("command", list(ARGS))
    def test_missing_directory_exits_one(self, command, tmp_path, gf2_bernoulli_spec, run_python):
        target = str(tmp_path / "missing" / "report.json")
        subject = ["bernoulli"] if command == "example" else [gf2_bernoulli_spec]
        argv = [command, *subject, *self.ARGS[command], "--out", target]
        out = run_python("-c", TestOversizedFields.SCRIPT, *argv, timeout=30)
        assert out.returncode == 1, out.stderr
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: "), out.stderr
        assert target in out.stderr
