import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chordcubic
from chordcubic import cli, verify
from chordcubic.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_identity_command(capsys):
    code, out, _ = _run(capsys, "identity")
    assert code == 0
    reports = json.loads(out)
    assert [r["claim"] for r in reports] == [
        "chord_line_incidence",
        "image_cubic_identity",
    ]
    assert all(r["status"] == "pass" for r in reports)


def test_cubic_command(capsys):
    code, out, _ = _run(capsys, "cubic", "--a", "-3", "--b", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["cubic"] == {
        "U2V0W1": "2",
        "U1V2W0": "8",
        "U0V2W1": "6",
        "U0V0W3": "-1",
    }
    assert payload["invariants"] == {
        "e": "-64",
        "c1": "24",
        "c2": "-16",
        "muInv": "-3/4",
    }


def test_map_command(capsys):
    code, out, _ = _run(capsys, "map", "--a", "0", "--b", "4", "--x", "2", "--y", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["point"] == "[2:4:1]"
    assert payload["line"] == "[1:0:-2]"


def test_map_of_zero_point(capsys):
    code, out, _ = _run(capsys, "map", "--a", "0", "--b", "4")
    assert code == 0
    assert json.loads(out)["line"] == "[1:0:0]"


def test_map_off_curve_rejected(capsys):
    for field in ((), ("--prime", "101")):
        code, _, err = _run(
            capsys, "map", "--a", "0", "--b", "4", "--x", "1", "--y", "1", *field
        )
        assert code == 2
        assert json.loads(err)["error"].startswith("point [1:1:1] is not on y^2 = ")


def test_suite_rejects_singular_curve(capsys):
    code, _, err = _run(capsys, "suite", "--a", "2", "--b", "1", "--prime", "101")
    assert code == 2
    assert "double root" in json.loads(err)["error"]


def test_suite_passes_and_is_byte_identical(capsys):
    code, out1, _ = _run(capsys, "suite", "--a", "-3", "--b", "2", "--prime", "101")
    assert code == 0
    code, out2, _ = _run(capsys, "suite", "--a", "-3", "--b", "2", "--prime", "101")
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert all(r["status"] == "pass" for r in payload["reports"])
    assert all("millis" not in r["stats"] for r in payload["reports"])


def test_suite_random_batch(capsys):
    code, out, _ = _run(
        capsys, "suite", "--prime", "101", "--random", "2", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 7
    assert len(payload["runs"]) == 2
    code2, out2, _ = _run(
        capsys, "suite", "--prime", "101", "--random", "2", "--seed", "7"
    )
    assert out == out2


def test_degree_command_beta_case(capsys):
    code, out, _ = _run(
        capsys, "degree", "--a", "-3", "--b", "2", "--prime", "101", "--order", "2"
    )
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["stats"]["image_degree"] == 3


def test_degree_command_reports_collision(capsys):
    code, out, _ = _run(
        capsys, "degree", "--a", "-3", "--b", "2", "--prime", "101", "--order", "4"
    )
    assert code == 1
    report = json.loads(out)["reports"][0]
    assert report["status"] == "fail"
    assert report["stats"]["image_degree"] == 6


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--order", "4", "--dmax", "8"), "unrecognized arguments: --dmax 8"),
        (("--order", "1"), "order must be at least 2"),
        (("--order", "0"), "order must be at least 2"),
        (("--order", "97"), "Hasse bound"),
        (("--order", "44"), "Hasse bound"),
    ],
)
def test_degree_rejects_bad_input_before_enumerating(capsys, monkeypatch, extra, message):
    def no_enumeration(*args):
        raise AssertionError("points were enumerated for rejected input")

    monkeypatch.setattr(verify, "affine_points_mod_p", no_enumeration)
    code, out, err = _run(
        capsys, "degree", "--a", "-3", "--b", "2", "--prime", "31", *extra
    )
    assert code == 2
    assert out == ""
    assert message in json.loads(err)["error"]


def test_degree_accepts_order_at_the_hasse_bound(capsys):
    # p = 31: #E <= 31 + 1 + floor(2 sqrt 31) = 43.
    code, out, _ = _run(
        capsys, "degree", "--a", "-3", "--b", "2", "--prime", "31", "--order", "43"
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["status"] == "skipped"


def test_closed_stdout_exits_1_without_traceback():
    src = str(Path(chordcubic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "chordcubic.cli", "suite", "--prime", "101",
         "--random", "2", "--seed", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader exits before the first byte, like `| head -0`
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every CLI process pays its imports before its first request.
    src = str(Path(chordcubic.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, chordcubic.cli; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded = done.stdout.split()
    assert "chordcubic.cli" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_quotient_command(capsys):
    code, out, _ = _run(capsys, "quotient", "--a", "0", "--b", "-1", "--prime", "101")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["status"] == "pass"


def test_flexes_command(capsys):
    code, out, _ = _run(capsys, "flexes", "--a", "-3", "--b", "2", "--prime", "101")
    assert code == 0
    assert json.loads(out)["reports"][0]["status"] == "pass"


def test_flexes_skipped_status_exits_zero(capsys):
    code, out, _ = _run(capsys, "flexes", "--a", "0", "--b", "4", "--prime", "7")
    assert code == 0
    assert json.loads(out)["reports"][0]["status"] == "skipped"


def test_malformed_rational_rejected(capsys):
    code, _, err = _run(capsys, "cubic", "--a", "x", "--b", "2")
    assert code == 2
    assert "malformed rational" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "command, prime", [("suite", "91"), ("quotient", "0")], ids=["suite-91", "quotient-0"]
)
def test_composite_prime_rejected(capsys, command, prime):
    code, out, err = _run(capsys, command, "--a", "-3", "--b", "2", "--prime", prime)
    assert code == 2
    assert out == ""
    assert "prime" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("suite", "--prime", "101", "--random", "2", "--a", "-3"), "--random"),
        (("map", "--a", "0", "--b", "4", "--y", "4"), "--x is required"),
        (("suite", "--a", "-3", "--b", "2", "--prime", "101", "--seed", "3"), "--seed"),
    ],
    ids=["suite-random-with-curve", "map-y-without-x", "suite-seed-without-random"],
)
def test_ignored_arguments_rejected(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in json.loads(err)["error"]


def test_parser_is_built_once_and_parses_like_a_fresh_one(capsys, monkeypatch):
    rejected = ["degree", "--a", "-3", "--b", "2", "--prime", "101"]  # no --order
    valid = rejected + ["--order", "2"]
    requests = [rejected, valid, rejected]
    fresh = []
    for argv in requests:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(_run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [2, 0, 2]

    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    assert [_run(capsys, *argv) for argv in requests * 2] == fresh * 2
    assert len(built) == 1


def test_unknown_command_rejected(capsys):
    code, _, err = _run(capsys, "nonsense")
    assert code == 2
    assert json.loads(err)["error"]


def test_text_format(capsys):
    code, out, _ = _run(
        capsys, "suite", "--a", "-3", "--b", "2", "--prime", "101", "--format", "text"
    )
    assert code == 0
    assert "chord_line_incidence: pass" in out
    assert "ms]" in out
