import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacobilie
from jacobilie import (
    JacobiLieBialgebra,
    StructureTensor,
    Vector,
    automorphism_sample,
    automorphism_samples,
    document_from_bialgebra,
    lookup,
    serialize_document,
    transform,
)
from jacobilie.cli import main


def write_doc(tmp_path, name, b, g_name=None):
    path = tmp_path / name
    path.write_text(serialize_document(document_from_bialgebra(b, g_name=g_name)), "utf-8")
    return str(path)


@pytest.fixture
def passing_doc(tmp_path):
    b = JacobiLieBialgebra(
        lookup("III").tensor,
        StructureTensor.from_brackets(
            3, {(0, 1, 0): 1, (0, 2, 0): 1, (1, 2, 1): 1, (1, 2, 2): -1}
        ),
        Vector([0, -1, -1]),
        Vector([-2, 0, 0]),
    )
    return write_doc(tmp_path, "good.json", b, g_name="III")


@pytest.fixture
def failing_doc(tmp_path):
    b = JacobiLieBialgebra(
        StructureTensor.zero(2),
        StructureTensor.zero(2),
        Vector([0, 1]),
        Vector([0, 1]),
    )
    return write_doc(tmp_path, "bad.json", b)


def test_verify_pass(passing_doc, capsys):
    assert main(["verify", passing_doc]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out


def test_verify_fail_exit_code(failing_doc, capsys):
    assert main(["verify", failing_doc]) == 1
    out = capsys.readouterr().out
    assert "orthogonality" in out and "FAIL" in out


def test_verify_json_mode(passing_doc, capsys):
    assert main(["verify", "--json", passing_doc]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["conditions"]["mixed"]["ok"] is True


def test_verify_malformed_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json", "utf-8")
    assert main(["verify", str(p)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2


def test_verify_constraint_violation(tmp_path, capsys):
    p = tmp_path / "badparam.json"
    p.write_text(
        json.dumps(
            {
                "dim": 3,
                "g": {"name": "VIa", "param": "-1"},
                "gstar": {"constants": []},
                "alpha": ["0", "0", "0"],
                "beta": ["0", "0", "0"],
            }
        ),
        "utf-8",
    )
    assert main(["verify", str(p)]) == 2


def test_equiv_equivalent_pair(tmp_path, passing_doc, capsys):
    b = JacobiLieBialgebra(
        lookup("III").tensor,
        StructureTensor.from_brackets(
            3, {(0, 1, 0): 1, (0, 2, 0): 1, (1, 2, 1): 1, (1, 2, 2): -1}
        ),
        Vector([0, -1, -1]),
        Vector([-2, 0, 0]),
    )
    moved = transform(b, automorphism_sample("III", 0, {"a": 1, "b": 0, "c": 2, "d": 1}))
    other = write_doc(tmp_path, "moved.json", moved, g_name="III")
    assert main(["equiv", passing_doc, other]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_equiv_unknown_pair(tmp_path, capsys):
    b1 = JacobiLieBialgebra(
        lookup("A2").tensor,
        StructureTensor.from_brackets(2, {(0, 1, 1): 1}),
        Vector([-1, 0]),
        Vector([0, 1]),
    )
    b2 = JacobiLieBialgebra(b1.g, b1.gstar, Vector([-2, 0]), Vector([0, 2]))
    d1 = write_doc(tmp_path, "one.json", b1, g_name="A2")
    d2 = write_doc(tmp_path, "two.json", b2, g_name="A2")
    assert main(["equiv", d1, d2, "--grid", "2"]) == 1
    assert "inequivalent (proved: " in capsys.readouterr().out
    assert main(["equiv", d1, d2, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["inequivalent"] is True and payload["equivalent"] is False


def test_equiv_predicate_only_pair_stays_unknown(tmp_path, capsys):
    # IX has no closed-form automorphism template, so the decision does not
    # apply and the seeds-only search answers unknown, even for a pushforward
    b1 = JacobiLieBialgebra(
        lookup("IX").tensor, StructureTensor.zero(3), Vector([0, 0, 0]), Vector([0, 1, 0])
    )
    b2 = transform(b1, automorphism_samples("IX")[0])
    d1 = write_doc(tmp_path, "one.json", b1, g_name="IX")
    d2 = write_doc(tmp_path, "two.json", b2, g_name="IX")
    assert main(["equiv", d1, d2]) == 1
    assert capsys.readouterr().out.startswith("unknown (searched IX: predicate-only")
    assert main(["equiv", d1, d2, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is False and payload["inequivalent"] is False


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_equiv_grid_below_one_is_usage_error(tmp_path, passing_doc, grid, capsys):
    # the same pair is proved equivalent at the default grid
    b = JacobiLieBialgebra(
        lookup("III").tensor,
        StructureTensor.from_brackets(
            3, {(0, 1, 0): 1, (0, 2, 0): 1, (1, 2, 1): 1, (1, 2, 2): -1}
        ),
        Vector([0, -1, -1]),
        Vector([-2, 0, 0]),
    )
    moved = transform(b, automorphism_sample("III", 0, {"a": 1, "b": 0, "c": 2, "d": 1}))
    other = write_doc(tmp_path, "moved.json", moved, g_name="III")
    assert main(["equiv", passing_doc, other, "--grid", "3"]) == 0
    capsys.readouterr()
    assert main(["equiv", passing_doc, other, "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert "--grid must be positive" in captured.err
    assert "unknown" not in captured.out


def test_equiv_requires_shared_g(tmp_path, passing_doc, failing_doc):
    assert main(["equiv", passing_doc, failing_doc]) == 2


def test_identify(passing_doc, capsys):
    assert main(["identify", passing_doc]) == 0
    assert "isomorphic to V" in capsys.readouterr().out


def test_identify_json(passing_doc, capsys):
    assert main(["identify", "--json", passing_doc]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "V"
    assert payload["param"] is None


def test_identify_no_match(tmp_path, capsys):
    b = JacobiLieBialgebra(
        StructureTensor.zero(3),
        StructureTensor.from_brackets(
            3, {(0, 1, 1): -3, (0, 1, 2): -1, (0, 2, 1): -1, (0, 2, 2): -1}
        ),
        Vector.zero(3),
        Vector.zero(3),
    )
    doc = write_doc(tmp_path, "odd.json", b)
    assert main(["identify", doc]) == 1
    assert "no catalog match" in capsys.readouterr().err


def test_catalog_listing(capsys):
    assert main(["catalog", "--dim", "3"]) == 0
    out = capsys.readouterr().out
    assert "VIa" in out and "[x1,x2] = -x2 - x3" in out
    assert "bracket predicate" in out  # predicate-only groups


def test_classify_cli(capsys):
    assert main(["classify", "--dim", "2", "--algebra", "A2"]) == 0
    out = capsys.readouterr().out
    assert "g* = A2.i" in out


def test_classify_rejects_dim3(capsys):
    assert main(["classify", "--dim", "3", "--algebra", "II"]) == 2


def test_verify_tables_cli(capsys):
    assert main(["verify-tables", "--table", "5"]) == 0
    out = capsys.readouterr().out
    assert "table 5: 2/2 rows pass" in out


def test_verify_tables_json(capsys):
    assert main(["verify-tables", "--table", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert len(payload["rows"]) == 2


def test_verify_tables_sample_override(capsys):
    assert main(["verify-tables", "--table", "4", "--samples", "2"]) == 0


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_text_and_json_modes_agree(passing_doc, failing_doc, capsys):
    for doc in (passing_doc, failing_doc):
        text_code = main(["verify", doc])
        text_out = capsys.readouterr().out
        json_code = main(["verify", "--json", doc])
        payload = json.loads(capsys.readouterr().out)
        assert text_code == json_code
        assert payload["passed"] == ("result: pass" in text_out)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--dim", "2", "--algebra", "A2"],
        ["verify-tables", "--table", "4"],
    ],
)
def test_output_unchanged_under_optimize_flag(argv):
    # soundness checks must not be bare asserts, which python -O strips
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    src = str(Path(jacobilie.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "jacobilie", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        for flags in ([], ["-O"])
    ]
    plain, optimized = ((r.returncode, r.stdout, r.stderr) for r in runs)
    assert plain[0] == 0
    assert optimized == plain
