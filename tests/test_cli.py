"""End-to-end command-line behavior: report shapes, exit codes, determinism."""

import json
import os
import time

import pytest

from apnforge import build_phi, family_generate, frobenius, make_field, parse_poly, parse_tri
from apnforge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_field_report(capsys):
    rep = run_json(capsys, "field", "--field", "gf(2^6)")
    assert rep == {
        "schema_version": 1,
        "field": {"m": 6, "modulus": "0x43"},
        "order": 64,
        "spec": "gf(2^6)/0x43",
    }


def test_phi_report_round_trips(capsys, g2):
    rep = run_json(capsys, "phi", "--field", "gf(2^1)", "--f", "x^12+x^6+x^3")
    assert rep["schema_version"] == 1
    assert rep["homogeneous_degrees"] == [9, 3, 0]
    reparsed = parse_tri(rep["phi"], g2)
    assert reparsed == build_phi(parse_poly(rep["f"], g2)).poly


def test_spectrum_json(capsys):
    rep = run_json(capsys, "spectrum", "--field", "gf(2^4)", "--f", "x^5")
    assert rep["rows"] == [
        {"count": 0, "multiplicity": 180},
        {"count": 4, "multiplicity": 60},
    ]
    assert rep["uniformity"] == 4 and rep["apn"] is False
    assert rep["field"] == {"m": 4, "modulus": "0x13"}


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--field", "gf(2^4)", "--f", "x^5", "--output", "csv"
    )
    assert code == 0
    assert out == "count,multiplicity\n0,180\n4,60\n"


def test_spectrum_too_large_exits_2(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--field", "gf(2^20)", "--f", "x^3")
    assert code == 2
    assert "FieldTooLarge" in err
    assert out == ""


def test_apn_rows(capsys):
    rep = run_json(capsys, "apn", "--field", "gf(2^1)", "--f", "x^3", "--n", "2..6")
    assert [(r["n"], r["apn"]) for r in rep["rows"]] == [
        (2, True), (3, True), (4, True), (5, True), (6, True),
    ]
    assert rep["rows"][1]["field"]["modulus"] == "0xb"


def test_apn_range_validated_before_dispatch(capsys):
    code, _, err = run_cli(
        capsys, "apn", "--field", "gf(2^4)", "--f", "x^3", "--n", "1..9"
    )
    assert code == 2
    assert "FieldTooLarge" in err


def test_apn_huge_range_rejected_without_materialising(capsys):
    code, out, err = run_cli(
        capsys, "apn", "--field", "gf(2^1)", "--f", "x^3", "--n", "1..1000000000000"
    )
    assert code == 2
    assert "FieldTooLarge" in err
    assert out == ""


def test_classify12_witness(capsys, g2):
    rep = run_json(capsys, "classify12", "--field", "gf(2^1)", "--f", "x^12+x^6+x^3")
    w = rep["witness"]
    assert w["kind"] == "L_OF_CUBE"
    assert w["param"] == "0x2"
    assert w["orbit"] == ["0x2", "0x4", "0x6"]
    assert parse_poly(w["L"], g2).to_text() == "x^4 + x^2 + x"
    assert rep["extension_field"] == {"m": 3, "modulus": "0xb"}


def test_classify12_non_member(capsys):
    rep = run_json(capsys, "classify12", "--field", "gf(2^1)", "--f", "x^12+x^5")
    assert rep["witness"]["kind"] == "NOT_IN_FAMILY"
    assert rep["witness"]["param"] is None


def test_classify12_gf256_within_budget(capsys):
    base, big = make_field(8), make_field(24)
    x = big.element(0x2)
    param = x + frobenius(x, 8)  # Tr(x + x^q) = 2 Tr(x) = 0
    member = family_generate("CUBE_OF_L", param, parse_poly("0x3*x^4 + x", base))
    for f, kind in ((member, "CUBE_OF_L"), (parse_poly("x^12 + x^5 + 0x7*x^3", base), "NOT_IN_FAMILY")):
        t0 = time.perf_counter()
        rep = run_json(capsys, "classify12", "--field", "gf(2^8)", "--f", f.to_text())
        elapsed = time.perf_counter() - t0
        w = rep["witness"]
        assert w["kind"] == kind
        if kind != "NOT_IN_FAMILY":
            assert param.hex() in w["orbit"] and w["param"] == w["orbit"][0]
        assert elapsed < 5.0, f"classify12 over gf(2^8) took {elapsed:.2f}s"


def test_gen12_round_trips(capsys, g2, g8):
    rep = run_json(
        capsys, "gen12", "--field", "gf(2^1)", "--kind", "CUBE_OF_L", "--param", "0x2"
    )
    expected = family_generate("CUBE_OF_L", g8.element(0x2))
    assert parse_poly(rep["f"], g2) == expected
    assert rep["l1"] is None


def test_gen12_with_tail(capsys, g2):
    rep = run_json(
        capsys, "gen12", "--field", "gf(2^1)", "--kind", "L_OF_CUBE",
        "--param", "0x2", "--l1", "x^2+x",
    )
    assert parse_poly(rep["f"], g2).support() == (1, 2, 3, 6, 12)


def test_gen12_rejects_bad_param(capsys):
    code, _, err = run_cli(
        capsys, "gen12", "--field", "gf(2^1)", "--kind", "L_OF_CUBE", "--param", "0x1"
    )
    assert code == 2
    assert "TraceNotZero" in err


def test_divisors_report(capsys):
    rep = run_json(capsys, "divisors", "--field", "gf(2^1)", "--f", "x^12+x^6+x^3")
    assert rep["mode"] == "FULL"
    assert rep["divisors"] == [
        {"c1": "0x0", "c4": "0x0", "b1": "0x0", "d": "0x2"},
        {"c1": "0x0", "c4": "0x0", "b1": "0x0", "d": "0x4"},
        {"c1": "0x0", "c4": "0x0", "b1": "0x0", "d": "0x6"},
    ]


def test_theorems_report(capsys):
    rep = run_json(capsys, "theorems", "--field", "gf(2^1)", "--f", "x^14+x^7")
    assert rep["applicable"] == "TWICE_ODD_TERM"
    rep = run_json(capsys, "theorems", "--field", "gf(2^1)", "--f", "x^12+x^5")
    assert rep["applicable"] == "DEGREE_12"


def test_points_report(capsys):
    rep = run_json(capsys, "points", "--field", "gf(2^4)", "--f", "x^5")
    assert rep["consistent"] is True
    assert rep["apn"] is False
    assert isinstance(rep["witness"], list) and len(rep["witness"]) == 3


def test_points_cap(capsys):
    code, _, err = run_cli(capsys, "points", "--field", "gf(2^9)", "--f", "x^3")
    assert code == 2 and "FieldTooLarge" in err


def test_exponent_positional(capsys):
    assert run_json(capsys, "exponent", "13") == {
        "schema_version": 1, "t": 13, "kind": "KASAMI", "k": 2,
    }
    rep = run_json(capsys, "exponent", "12")
    assert rep["kind"] == "NOT_EXCEPTIONAL" and rep["k"] is None


def test_plain_output(capsys):
    code, out, _ = run_cli(
        capsys, "theorems", "--field", "gf(2^1)", "--f", "x^7+x", "--output", "plain"
    )
    assert code == 0
    assert 'applicable: "ODD_NOT_EXCEPTIONAL"' in out
    assert "schema_version" not in out


def test_csv_limited_to_spectrum(capsys):
    code, _, err = run_cli(
        capsys, "phi", "--field", "gf(2^1)", "--f", "x^3", "--output", "csv"
    )
    assert code == 2
    assert "CSV" in err


def test_syntax_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "phi", "--field", "gf(2^1)", "--f", "x^^3")
    assert code == 2
    assert "PolySyntaxError" in err


def test_bad_field_exits_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--field", "gf(7)", "--f", "x^3")
    assert code == 2


def test_missing_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--field", "gf(2^4)")
    assert code == 2
    assert "--f" in err


def test_zero_workers_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "spectrum", "--field", "gf(2^4)", "--f", "x^3", "--workers", "0"
    )
    assert code == 2


def test_huge_worker_count_exits_2(capsys):
    # a command with no worker path, so nothing could start even unchecked
    code, _, _ = run_cli(capsys, "field", "--field", "gf(2^4)", "--workers", str(10**12))
    assert code == 2


def test_worker_count_does_not_change_bytes(capsys, monkeypatch):
    # worker counts above the host's CPU count are refused; pretend to have
    # eight so the 5- and 3-worker chunkings run on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    base = None
    for w in ("1", "2", "5"):
        code, out, _ = run_cli(
            capsys, "spectrum", "--field", "gf(2^6)", "--f", "x^12+x^6+x^3",
            "--workers", w,
        )
        assert code == 0
        if base is None:
            base = out
        assert out == base
    for w in ("1", "3"):
        code, out, _ = run_cli(
            capsys, "divisors", "--field", "gf(2^1)", "--f", "x^12+x^6+x^3",
            "--workers", w,
        )
        assert code == 0
        if w == "1":
            base = out
        assert out == base


def test_reports_sort_keys(capsys):
    _, out, _ = run_cli(capsys, "field", "--field", "gf(2^3)")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
