"""Command-line driver: exit codes, report formats, determinism."""

import json
from pathlib import Path

import pytest

from flowent.cli import main
from flowent.fields import least_irreducible, make_extension
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
        "negative-discrete-dim": {"field": {"p": 2}, "discrete_dim": -1, "stencil": {"1": 1}},
        "ragged-prefix": {"field": {"p": 2}, "stencil": {"1": 1}, "prefix": [[1], [1, 0]]},
        "ragged-cd": {
            "field": {"p": 2, "tower": [[1, 1, 1]]},
            "discrete_dim": 2,
            "stencil": {"1": [1]},
            "cd": [[[1, 0]], [[0, 1], [1, 1]]],
        },
    }

    @pytest.mark.parametrize("case", list(SPECS))
    def test_compute_exits_one(self, capsys, tmp_path, case):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPECS[case]))
        code = main(["compute", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ")
        if "discrete-dim" in case:
            assert "discrete_dim" in err
        if case.startswith("ragged-"):
            # the block is named, not numpy's message on an inhomogeneous shape
            assert err.startswith(f"error: {case.split('-')[1]} has rows of lengths"), err

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

    @pytest.mark.parametrize("seed", range(6))
    def test_non_prime_base(self, capsys, tmp_path, gf4, seed):
        # F = GF(4) inside the tower GF(2) <= GF(4) <= GF(16)
        gf16, _ = make_extension(gf4, least_irreducible(gf4, 2))
        path = tmp_path / "gf16.json"
        save_flow(random_stencil_flow(gf16, seed), path)
        code, out = run(capsys, "verify", str(path), "--base-depth", "1", "--identity-n", "8")
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "PASS"
        assert payload["degree_FK"] == 2
        assert payload["ent_F"]["value"] == 2 * payload["ent_K"]["value"]


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

    def test_identity_discrete_cap_exits_one(self, capsys, tmp_path):
        # a 2049 x 2049 discrete block is above the cap that compute applies
        # to a spec, so the spec is not written
        target = tmp_path / "identity.json"
        code = main(["example", "identity", "--discrete", "2049", "--out", str(target)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "cap" in err
        assert not target.exists()

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

    def test_one_block_stream(self, tmp_path, monkeypatch, gf2):
        # the structured codimensions of members 0..3 come from one chain
        # run, the one compute reports, not from one run per member, and
        # the report keeps its golden bytes
        import flowent.entropy as entropy

        original, streams = entropy._constraint_blocks, []

        def spy(flow, dead, n_max, window):
            streams.append((len(dead), n_max))
            return original(flow, dead, n_max, window)

        monkeypatch.setattr(entropy, "_constraint_blocks", spy)
        flow, spec, out = random_stencil_flow(gf2, 1), tmp_path / "spec.json", tmp_path / "report.json"
        save_flow(flow, spec)
        assert main(["oracle", str(spec), "--max-n", "4", "--max-m", "3", "--out", str(out)]) == 0
        assert streams == [(flow.discrete_dim + 3, 4)]
        golden = Path(__file__).resolve().parent / "golden" / "oracle-gf2-s1-m3.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_long_chain_enumerates_nothing(self, capsys, monkeypatch, gf2_bernoulli_spec):
        # --max-m 10^8: the chain's cap is checked before any member is
        # enumerated, where the first enumeration once hit its own cap
        import flowent.cli as cli

        def refuse(*args):
            raise AssertionError("enumerated before checking the chain's cap")

        monkeypatch.setattr(cli, "brute_force_codim", refuse)
        assert main(["oracle", gf2_bernoulli_spec, "--max-m", "100000000"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("error: 100000000 constraint rows") and "cap" in err, err

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

    def test_negative_window_exits_one(self, capsys, gf2_bernoulli_spec):
        # a window below 0 lower-bounds nothing; it was taken silently
        code = main(["oracle", gf2_bernoulli_spec, "--window", "-4"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "--window" in err, err

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
    MemoryError before the chain checked its blocks.  A hundred stencil
    terms over GF(2^8) give 629,850 window entries, under the cap, whose
    restriction to GF(2) could hold 64 times as many, over it."""

    SPECS = {
        "stencil-offset-1e8": {"field": {"p": 2}, "stencil": {"100000000": 1}},
        "stencil-offset-6e4": {"field": {"p": 2}, "stencil": {"60000": 1}},
        "discrete-dim-1e7": {"field": {"p": 2}, "discrete_dim": 10_000_000, "stencil": {"1": 1}},
        "restricted-window-gf256": {
            "field": {"p": 2, "tower": [[1, 0, 0, 0, 1, 1, 0, 1, 1]]},
            "stencil": {str(k): [1] for k in range(100)},
        },
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

    @pytest.mark.parametrize("command", ["compute", "verify"])
    def test_long_chain_builds_nothing(self, command, capsys, monkeypatch, bernoulli_spec):
        # --max-m 10^8 asks for constraint blocks of 10^8 rows: the cap is
        # checked from m_max and the window, before any zero set or block is
        # built, where the chain's 10^8-coordinate zero set once ran out of
        # memory
        import flowent.entropy as entropy
        from flowent.model import GoodSubspace

        built = []

        def refuse(*args):
            built.append(args[1:2])
            raise AssertionError("built a zero set or block before checking the cap")

        monkeypatch.setattr(GoodSubspace, "principal", classmethod(refuse))
        monkeypatch.setattr(entropy, "_constraint_blocks", refuse)
        assert main([command, bernoulli_spec, "--max-m", "100000000"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("error: ") and "cap" in err, err
        assert built == []


class TestDeepIdentityChecks:
    """The rank trackers of the identity checks are capped like every
    other dense array: at ``--identity-n 400`` the interleaved tracker of
    ``random_stencil_flow(GF(4), 3)`` on the GF(2) side takes 8 rows a step
    over 4,016 coordinates and could hold 3,200 rows of 4,016 entries,
    1.29 * 10^7 entries, over the cap, so verify exits 1 before any block
    is built, where holding every depth's constraint forms once ran for
    minutes into gigabytes.  Runs in a fresh process whose address space
    is capped at 2 GiB."""

    def test_over_the_cap_exits_one(self, tmp_path, gf4, run_python):
        path = tmp_path / "deep.json"
        save_flow(random_stencil_flow(gf4, 3), path)
        argv = ["verify", str(path), "--identity-n", "400"]
        out = run_python("-c", TestOversizedSpecs.SCRIPT, *argv, timeout=30)
        assert out.returncode == 1, out.stderr
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1, out.stderr
        assert out.stderr.startswith("error: ") and "cap" in out.stderr, out.stderr

    def test_odd_tower_over_the_cap_builds_no_block(self, tmp_path, capsys, monkeypatch):
        # over GF(3) <= GF(9) <= GF(81) the GF(3) side's trackers could hold
        # 3,200 rows of 4,016 entries at depth 400: exit 1, no block built
        import flowent.entropy as entropy
        from flowent.fields import make_prime_field

        gf3 = make_prime_field(3)
        gf9, _ = make_extension(gf3, least_irreducible(gf3, 2))
        path = tmp_path / "deep9.json"
        save_flow(random_stencil_flow(gf9, 3), path)
        built, original = [], entropy._constraint_blocks

        def spy(flow, *args):
            built.append(flow.label)
            return original(flow, *args)

        monkeypatch.setattr(entropy, "_constraint_blocks", spy)
        assert main(["verify", str(path), "--identity-n", "400"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("error: ") and "cap" in err, err
        assert built == []


class TestUsageErrors:
    """Command-line usage errors exit 1, the input-error code, not argparse's
    2, which is the code of an INCONCLUSIVE verdict; ``--help`` exits 0."""

    CASES = {
        "unknown-flag": ["compute", "<spec>", "--bogus"],
        "bad-int": ["compute", "<spec>", "--max-n", "x"],
        "no-subcommand": [],
        # verify writes one JSON report and takes no seed
        "verify-format": ["verify", "<spec>", "--format", "csv"],
        "verify-seed": ["verify", "<spec>", "--seed", "7"],
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_one(self, capsys, bernoulli_spec, case):
        argv = [bernoulli_spec if a == "<spec>" else a for a in self.CASES[case]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ") and "error: " in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["top", "verify"])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ")


class TestParserReuse:
    """``main`` builds its parser once per process; calls made back to back
    on it behave like calls on a fresh one."""

    def test_back_to_back_calls_match_fresh_ones(self, capsys, bernoulli_spec):
        from flowent.cli import build_parser

        calls = [
            ["compute", bernoulli_spec, "--max-n", "12"],
            ["compute", bernoulli_spec, "--bogus"],
            ["verify", bernoulli_spec, "--max-n", "24", "--max-m", "4"],
            ["compute", bernoulli_spec, "--max-n", "12"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        shared = [outcome(argv) for argv in calls]
        assert build_parser() is build_parser()
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        assert [code for code, *_ in shared] == [0, 1, 0, 0]
        assert shared[0] == shared[3] and shared[0][1]


class TestEngineDefaults:
    """The engine flags read their defaults from ``EngineConfig``."""

    @pytest.mark.parametrize("command", ["compute", "verify"])
    def test_parsed_defaults_build_the_default_config(self, command):
        from flowent.cli import _config_from_args, build_parser
        from flowent.entropy import EngineConfig

        args = build_parser().parse_args([command, "spec.json"])
        assert _config_from_args(args) == EngineConfig()


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


class TestModuleEntry:
    """``python -m flowent.cli`` runs the same driver as ``main``."""

    def test_compute_matches_main(self, capsys, bernoulli_spec, run_python):
        argv = ["compute", bernoulli_spec, "--max-n", "12"]
        code, out = run(capsys, *argv)
        proc = run_python("-m", "flowent.cli", *argv)
        assert code == 0 and out
        assert (proc.returncode, proc.stdout) == (code, out)

    def test_malformed_spec_exits_one(self, tmp_path, run_python):
        path = tmp_path / "broken.json"
        path.write_text('{"field": {"p": 2')
        proc = run_python("-m", "flowent.cli", "compute", str(path))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ")


class TestReportsOwnTheirFields:
    """Fields are shared across flows and calls, so no report may hand out
    its field's own descriptor: editing one changes no later report."""

    def test_edited_reports_leave_later_reports_alone(self, capsys, tmp_path, gf4):
        from flowent.entropy import DEFAULT_CONFIG, ent_star, entropy_report
        from flowent.fields import tower_from_descriptor
        from flowent.functors import verify_theorem
        from flowent.model import flow_to_dict, load_flow

        spec = tmp_path / "flow.json"
        save_flow(random_stencil_flow(gf4, 0), spec)
        commands = [["compute", str(spec)], ["verify", str(spec), "--identity-n", "4"], ["example", "bernoulli", "--field", "4"]]
        flow = load_flow(spec)
        other = make_bernoulli(flow.field, 1)
        before = [run(capsys, *argv) for argv in commands], json.dumps(flow_to_dict(other))

        tower = tower_from_descriptor(flow.field.descriptor)
        e_kl = make_extension(flow.field, least_irreducible(flow.field, 2))[1]
        theorem = verify_theorem(tower.embedding(0, 1), e_kl, flow, DEFAULT_CONFIG, identity_n_max=2)
        returned = [
            entropy_report(flow, ent_star(flow), DEFAULT_CONFIG)["field"],
            flow_to_dict(flow)["field"],
            *theorem.tower,
            *theorem.to_dict()["tower"],
        ]
        for desc in returned:
            desc["tower"].append([[1], [0], [1]])
            desc["tower"][0].append([1])
            desc["p"] = 3

        assert ([run(capsys, *argv) for argv in commands], json.dumps(flow_to_dict(other))) == before
