"""CLI exit codes, report shapes, determinism, end-to-end flows."""

import hashlib
import io
import json
import math
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest

import dataclasses

import convspec.cli
import convspec.convolution
import convspec.equipos
import convspec.spectrum
from convspec import (
    BuildParams,
    ConvolutionSpec,
    EquiPositivityCertificate,
    HadamardTriple,
    QReport,
    SelectionWord,
    TailSpec,
    ZeroProbeVerdict,
    ZeroSetReport,
    build_spectrum,
    certify_gcd_condition,
    choose_k,
    integral_periodic_zero_probe,
    probe_family,
    spectral_report,
    verify_triple,
)
from convspec.spectrum import block_frequencies
from convspec.cli import _dumps, _int_text, build_parser, load_spec, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_check_jp_preset(capsys):
    code, payload = run_json(capsys, "check", "--preset", "jp")
    assert code == 0
    assert payload["ok"] is True
    assert payload["gcd"]["certified"] is False
    assert payload["gcd"]["gcds"] == [2]
    assert "single-triple" in payload["gcd"]["note"]


def test_check_example14_preset(capsys):
    code, payload = run_json(capsys, "check", "--preset", "example14")
    assert code == 0
    assert payload["ok"] is True
    assert payload["gcd"]["certified"] is False
    assert payload["gcd"]["gcds"] == [1, 3]
    assert payload["gcd"]["offending"] == [2]


def test_check_invalid_triple_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "triples": [{"N": 3, "B": [0, 1], "L": [0, 1]}],
        "word": {"prefix": [], "period": [1]},
    }))
    code, payload = run_json(capsys, "check", "--config", str(cfg))
    assert code == 2
    assert payload["ok"] is False


def test_check_malformed_config_exits_3(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = main(["check", "--config", str(cfg)])
    assert code == 3
    code = main(["check", "--config", str(tmp_path / "missing.json")])
    assert code == 3


def test_check_non_integer_digits_exits_3(capsys, tmp_path):
    cfg = tmp_path / "fractional.json"
    cfg.write_text(json.dumps({"triples": [{"N": 4, "B": [0, 2.5], "L": [0, 1]}]}))
    code, out = run(capsys, "check", "--config", str(cfg))
    assert code == 3
    assert out == ""


def test_check_non_integer_word_exits_3(capsys, tmp_path):
    # a word that is not a JSON object once ended in an AttributeError, exit 1
    cfg = tmp_path / "bad_word.json"
    for word in ({"period": [1.7]}, None, 5, [1, 2], "12"):
        cfg.write_text(json.dumps({
            "triples": [{"N": 4, "B": [0, 2], "L": [0, 1]}],
            "word": word,
        }))
        for command in ("check", "spectrum"):
            assert main([command, "--config", str(cfg)]) == 3, word
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error: invalid config:")


def test_usage_errors_exit_1(capsys):
    assert main(["check"]) == 1  # neither preset nor config
    assert main(["zeros", "--preset", "jp"]) == 1  # no mode chosen
    assert main(["nonsense"]) == 1


def test_spectrum_jp_canonical(capsys):
    code, payload = run_json(capsys, "spectrum", "--preset", "jp", "--levels", "3")
    assert code == 0
    assert payload["levels"][-1] == [0, 1, 4, 5, 16, 17, 20, 21]
    assert payload["indices"] == [1, 2, 3]
    assert all(k == 0 for level in payload["shifts"] for _, k in level)
    assert payload["warnings"]  # gcd note for the single-triple family


def test_spectrum_rejects_zero_levels(capsys):
    assert main(["spectrum", "--preset", "jp", "--levels", "0"]) == 3


def test_spectrum_example14_uniform_word_fails(capsys):
    code, payload = run_json(
        capsys, "spectrum", "--preset", "example14", "--word", ":2"
    )
    assert code == 2
    err = payload["error"]
    assert err["type"] == "equi-positivity-violation"
    assert err["lambda"] != 0
    assert err["achieved"] < err["epsilon"]


def test_spectrum_then_verify_roundtrip(capsys, tmp_path):
    levels_path = tmp_path / "levels.json"
    code = main(["spectrum", "--preset", "jp", "--levels", "3",
                 "--out", str(levels_path)])
    assert code == 0
    code, payload = run_json(
        capsys, "verify", "--preset", "jp", "--levels-file", str(levels_path),
        "--grid", "64", "--depth", "30",
    )
    assert code == 0
    assert payload["passed"] is True
    assert payload["completeness_defect"] <= 1e-9


def test_mixed_preset_is_its_config(tmp_path):
    # the preset names the gcd-1 family that config files used to spell out
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps({
        "triples": [{"N": 2, "B": [0, 1], "L": [0, 1]}, {"N": 3, "B": [0, 1, 2], "L": [0, 1, 2]}],
        "word": {"period": [1, 2]},
    }))
    out = {}
    for name, source in (("preset", ["--preset", "mixed"]), ("config", ["--config", str(cfg)])):
        levels, report = tmp_path / f"{name}_levels.json", tmp_path / f"{name}_verify.json"
        assert main(["spectrum", *source, "--levels", "3", "--out", str(levels)]) == 0
        assert main(["verify", *source, "--levels-file", str(levels), "--out", str(report)]) == 0
        out[name] = levels.read_bytes(), report.read_bytes()
    assert out["preset"] == out["config"]
    assert json.loads(out["preset"][1])["passed"] is True


def test_verify_grid_override_same_verdict(capsys, tmp_path):
    levels_path = tmp_path / "levels.json"
    main(["spectrum", "--preset", "jp", "--levels", "3", "--out", str(levels_path)])
    code16, p16 = run_json(
        capsys, "verify", "--preset", "jp", "--levels-file", str(levels_path),
        "--grid", "16",
    )
    code64, p64 = run_json(
        capsys, "verify", "--preset", "jp", "--levels-file", str(levels_path),
        "--grid", "64",
    )
    assert code16 == code64 == 0
    assert p16["passed"] == p64["passed"] is True


@pytest.mark.parametrize("grid, code", [("0", 3), ("1", 3), ("-3", 3), ("2.5", 1)])
def test_verify_grid_below_two_points_is_refused(capsys, tmp_path, grid, code):
    # a grid of one point (or none) gave a verdict on xi = -2 alone
    levels_path = tmp_path / "levels.json"
    main(["spectrum", "--preset", "jp", "--levels", "2", "--out", str(levels_path)])
    capsys.readouterr()
    argv = ["verify", "--preset", "jp", "--levels-file", str(levels_path), f"--grid={grid}"]
    assert main(argv) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert ("grid_n must be >= 2" if code == 3 else "--grid") in out.err


def test_verify_detects_tampered_levels(capsys, tmp_path):
    levels_path = tmp_path / "levels.json"
    main(["spectrum", "--preset", "jp", "--levels", "3", "--out", str(levels_path)])
    obj = json.loads(levels_path.read_text())
    obj["levels"][-1].remove(1)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(obj))
    capsys.readouterr()
    # the level is no longer level 2 plus its block: refused at load, before
    # any Q pass (spectral_report alone still fails it on Q)
    assert main(["verify", "--preset", "jp", "--levels-file", str(tampered)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "invalid levels file: level 3 is not level 2 plus its block" in out.err


def recomposed(spec, obj):
    """obj with each level composed from the one before, its index and its shifts."""
    levels, m_prev = [[0]], 0
    for m, shifts in zip(obj["indices"], obj["shifts"]):
        n_blk, p = block_frequencies(spec, m_prev, m).N, spec.scale_product(m_prev)
        levels.append(sorted(x + p * (l + k * n_blk) for l, k in shifts for x in levels[-1]))
        m_prev = m
    return {**obj, "levels": levels}


@pytest.mark.parametrize("preset", ["jp", "mixed"])
def test_verify_refuses_a_level_that_is_not_its_steps(capsys, tmp_path, preset):
    # seeded corruptions of L5's last level: moves by 1 (which mixed L5's Q
    # missed 6 times in 10, far entries' terms being under the completeness
    # tolerance), by P_{m_5} and 64 P_{m_5} (which keep an orthonormal set
    # and always passed), drops and duplicates all exit 3 before a Q pass
    path = tmp_path / "levels.json"
    assert main(["spectrum", "--preset", preset, "--levels", "5", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    p = ConvolutionSpec.from_json(convspec.cli.PRESETS[preset]).scale_product(obj["indices"][-1])
    rng = random.Random(30)

    def moved(by):
        return lambda lv, j: lv.__setitem__(j, lv[j] + by)

    def verify(edited):
        path.write_text(json.dumps(edited))
        capsys.readouterr()
        code = main(["verify", "--preset", preset, "--levels-file", str(path),
                     "--out", str(tmp_path / "report.json")])
        out = capsys.readouterr()
        assert out.out == ""
        return code, out.err

    for edit in (moved(1), moved(p), moved(64 * p), list.pop, lambda lv, j: lv.insert(j, lv[j])):
        for _ in range(4):
            edited = json.loads(json.dumps(obj))
            edit(edited["levels"][5], rng.randrange(len(edited["levels"][5])))
            code, err = verify(edited)
            assert code == 3 and "invalid levels file: level 5 is not level 4 plus" in err
    # the first level that disagrees is named, though every later one does too
    edited = json.loads(json.dumps(obj))
    edited["levels"][2][-1] += 1
    assert verify(edited) == (3, "config error: invalid levels file: "
                                 "level 2 is not level 1 plus its block\n")
    edited = json.loads(json.dumps(obj))
    edited["levels"][0] = [1]
    assert verify(edited) == (3, "config error: invalid levels file: level 0 is not {0}\n")
    edited = json.loads(json.dumps(obj))
    del edited["shifts"][3][-1]
    assert verify(edited) == (3, "config error: invalid levels file: "
                                 "the shifts of level 4 are not over its block frequencies\n")
    # the levels need not be sorted, and the genuine file still passes
    edited = json.loads(json.dumps(obj))
    edited["levels"][5].reverse()
    assert verify(edited) == (0, "")


def canonical(shifts):  # every shift 0
    return [[[l, 0] for l, _ in step] for step in shifts]


def odd_moved(shifts):  # step 1's odd frequency moved by 16 N_1 = 64: every odd lambda by 64
    return [[[l, k + 16 * (l % 2)] for l, k in shifts[0]], *shifts[1:]]


@pytest.mark.parametrize("preset, n, edit, zero_at, first", [
    ("mixed", 7, canonical, 1.0, (-1.96875, 1.0000000000370102)),
    ("jp", 3, odd_moved, -1.0, (-1.0, 1.0000000000000004)),
])
def test_verify_is_inconclusive_where_a_bound_reaches_one(capsys, tmp_path, preset, n, edit,
                                                          zero_at, first):
    # files whose levels follow their own steps, so the load check passes
    # them, yet are not spectra: Q is 0.0 at a point whose bound is at least
    # 1, which the gate on min Q against the largest bound used to pass
    path = tmp_path / "levels.json"
    assert main(["spectrum", "--preset", preset, "--levels", str(n), "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    spec = ConvolutionSpec.from_json(convspec.cli.PRESETS[preset])
    assert recomposed(spec, obj) == obj
    path.write_text(json.dumps(recomposed(spec, {**obj, "shifts": edit(obj["shifts"])})))
    capsys.readouterr()
    code, payload = run_json(capsys, "verify", "--preset", preset, "--levels-file", str(path))
    assert code == 2 and payload["passed"] is False
    assert payload["completeness_defect"] <= 1e-9
    assert payload["min_q"] == payload["q_values"][payload["xi_grid"].index(zero_at)] == 0.0
    assert payload["inconclusive_at"] == list(first)
    assert payload["q_bounds"][payload["xi_grid"].index(first[0])] == first[1]
    assert main(["verify", "--preset", preset, "--levels-file", str(path), "--output", "csv"]) == 2


def test_verify_levels_file_missing_parameter_exits_3(capsys, tmp_path):
    levels_path = tmp_path / "levels.json"
    main(["spectrum", "--preset", "jp", "--levels", "3", "--out", str(levels_path)])
    obj = json.loads(levels_path.read_text())
    assert obj["parameters"]["max_m"] == 512
    del obj["parameters"]["depth"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(obj))
    code = main(["verify", "--preset", "jp", "--levels-file", str(partial)])
    assert code == 3
    assert "depth" in capsys.readouterr().err


def _verify_edited_levels(tmp_path, edit):
    levels_path = tmp_path / "levels.json"
    main(["spectrum", "--preset", "jp", "--levels", "3", "--out", str(levels_path)])
    obj = json.loads(levels_path.read_text())
    edit(obj)
    levels_path.write_text(json.dumps(obj))
    return main(["verify", "--preset", "jp", "--levels-file", str(levels_path)])


def test_verify_non_integer_frequency_exits_3(capsys, tmp_path):
    def edit(obj):
        obj["levels"][-1][1] += 0.5

    assert _verify_edited_levels(tmp_path, edit) == 3
    assert "levels must be integers" in capsys.readouterr().err


def test_verify_invalid_parameters_exits_3(capsys, tmp_path):
    def edit(obj):
        obj["parameters"].update(delta=-1.0, K=0)

    assert _verify_edited_levels(tmp_path, edit) == 3
    assert "delta must be positive" in capsys.readouterr().err


def test_verify_levels_file_with_a_wrong_level_count_exits_3(capsys, tmp_path):
    levels_path = tmp_path / "levels.json"
    main(["spectrum", "--preset", "jp", "--levels", "2", "--out", str(levels_path)])
    obj = json.loads(levels_path.read_text())
    edits = {
        "cut.json": {**obj, "levels": obj["levels"][:2]},
        "indices.json": {**obj, "indices": [1, 3, 5]},
        "empty.json": {**obj, "levels": obj["levels"][:-1] + [[]]},
    }
    for name, edited in edits.items():
        (tmp_path / name).write_text(json.dumps(edited))
        capsys.readouterr()
        assert main(["verify", "--preset", "jp", "--levels-file", str(tmp_path / name)]) == 3
        assert "invalid levels file" in capsys.readouterr().err


def test_verify_not_applicable_after_failed_construction(capsys, tmp_path):
    levels_path = tmp_path / "failed.json"
    code = main(["spectrum", "--preset", "example14", "--word", ":2",
                 "--out", str(levels_path)])
    assert code == 2
    code, payload = run_json(
        capsys, "verify", "--preset", "example14", "--word", ":2",
        "--levels-file", str(levels_path),
    )
    assert code == 3
    assert payload["status"] == "not-applicable"


def test_zeros_mask_mode(capsys):
    code, payload = run_json(capsys, "zeros", "--mask", "0,2", "--range", "0,2")
    assert code == 0
    roots = [float(z["root"]) for z in payload["zeros"]]
    assert roots == pytest.approx([0.25, 0.75, 1.25, 1.75], abs=1e-10)


def test_zeros_products_mode(capsys):
    code, payload = run_json(
        capsys, "zeros", "--preset", "jp", "--products-h", "2"
    )
    assert code == 0
    assert len(payload["zeros"]) == 10


def test_zeros_probe_mode(capsys):
    code, payload = run_json(
        capsys, "zeros", "--preset", "jp", "--probe-xi", "1.0", "--kmax", "3"
    )
    assert code == 0
    assert payload["verdict"] == "witness"
    assert payload["witness_k"] == 1
    code, payload = run_json(
        capsys, "zeros", "--preset", "example14", "--word", ":2",
        "--probe-xi", str(1 / 3),
    )
    assert code == 0
    assert payload["verdict"] == "candidate-zero"


def test_zeros_singleton_mask_exits_3(capsys):
    assert main(["zeros", "--mask", "5", "--range", "0,1"]) == 3


def test_invalid_parameters_exit_3(capsys, tmp_path):
    assert main(["spectrum", "--preset", "jp", "--delta", "-1"]) == 3
    assert main(["zeros", "--preset", "jp", "--probe-xi", "1.0", "--kmax", "0"]) == 3
    assert main(["zeros", "--preset", "jp", "--products-h", "-2"]) == 3
    assert main(["equipos", "--preset", "jp", "--grid", "1"]) == 3
    assert main(["equipos", "--preset", "jp", "--kmax", "0"]) == 3
    assert main(["equipos", "--preset", "jp", "--skips", "0,-1"]) == 3
    assert main(["spectrum", "--preset", "jp", "--delta", "inf"]) == 3
    assert main(["zeros", "--preset", "jp", "--products-h", "inf"]) == 3
    assert main(["zeros", "--preset", "jp", "--products-h", "nan"]) == 3
    assert main(["zeros", "--mask", "0,2", "--range", "0,inf"]) == 3
    assert main(["zeros", "--mask", "0,2", "--range=-inf,0"]) == 3
    assert main(["zeros", "--mask", "0,2", "--range", "nan,1"]) == 3
    assert main(["zeros", "--preset", "jp", "--probe-xi", "nan"]) == 3
    assert main(["zeros", "--preset", "jp", "--probe-xi", "inf"]) == 3
    assert main(["zeros", "--preset", "jp", "--probe-xi", "0.5", "--tol", "nan"]) == 3
    assert main(["zeros", "--preset", "example14", "--word", ":2",
                 "--probe-xi", "0.3333333333333333", "--tol", "-1"]) == 3
    assert main(["zeros", "--mask", "0,2", "--tol", "-1"]) == 3
    assert main(["zeros", "--mask", "0,2", "--tol", "nan"]) == 3
    assert main(["equipos", "--preset", "example14", "--word", ":2", "--skips", "0,1,2",
                 "--grid", "192", "--threshold", "-1"]) == 3
    assert main(["equipos", "--preset", "jp", "--threshold", "nan"]) == 3
    assert main(["check", "--preset", "jp", "--tol", "nan"]) == 3
    assert main(["spectrum", "--preset", "jp", "--epsilon", "inf"]) == 3
    for name, text in (("number.json", "5"), ("string.json", '"error: x"')):
        (tmp_path / name).write_text(text)
        capsys.readouterr()
        assert main(["verify", "--preset", "jp", "--levels-file", str(tmp_path / name)]) == 3
        assert "invalid levels file" in capsys.readouterr().err


def test_searches_over_the_empty_product_exit_3(capsys):
    # at depth 0 every shift would reach 1: an ok certificate, a witness for any xi
    for argv in (["equipos", "--preset", "jp", "--depth", "0"],
                 ["zeros", "--preset", "jp", "--probe-xi", "0.5", "--depth", "0"]):
        capsys.readouterr()
        assert main(argv) == 3
        assert "depth must be >= 1, got 0" in capsys.readouterr().err


def test_spectrum_level_past_atom_budget_exits_3(capsys, monkeypatch):
    # jp levels double: under a budget between the L2 and L3 estimates, read
    # from the code, level 3 is refused before its shift search runs.  At
    # depth 2 the shift search's factor tables stay under that budget too.
    # Exponents 1, 2, 3 give each step its own tail, so no step reads back
    # the search of an earlier one and each search that runs is counted.
    argv = ["spectrum", "--preset", "jp", "--exponents", "123:4", "--levels", "3",
            "--depth", "2"]
    calls, needs = [], []
    search = convspec.spectrum.choose_k
    monkeypatch.setattr(convspec.spectrum, "choose_k",
                        lambda *a, **kw: calls.append(1) or search(*a, **kw))
    with monkeypatch.context() as m:
        m.setattr(convspec.spectrum, "_check_budget", lambda what, need: needs.append(need))
        assert main(argv) == 0
    assert len(needs) == 3 and needs[1] < needs[2] and len(calls) == 3
    monkeypatch.setattr(convspec.convolution, "_BUDGET_BYTES", needs[2] - 1)
    calls.clear()
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"level 3 of 4 x 2 frequencies needs more than its budget of {needs[2] - 1} bytes" in err
    assert len(calls) == 2


def test_equipos_jp_certificate(capsys):
    code, payload = run_json(capsys, "equipos", "--preset", "jp")
    assert code == 0
    assert payload["ok"] is True
    assert payload["epsilon_hat"] > 0.05


def test_equipos_example14_uniform_word_fails(capsys):
    code, payload = run_json(
        capsys, "equipos", "--preset", "example14", "--word", ":2",
        "--skips", "0,1,2", "--grid", "192",
    )
    assert code == 2
    assert payload["ok"] is False
    assert abs(payload["worst"]["x"] - 1 / 3) < 1 / 128
    assert payload["worst"]["value"] <= 1e-4


def test_equipos_prefix_past_the_double_range_exits_0(capsys):
    # 520 factors of 4 take |P_k| to 2^1040, past the largest double
    code, payload = run_json(
        capsys, "equipos", "--preset", "jp", "--word", "1" * 520 + ":1",
        "--skips", "0", "--grid", "8",
    )
    assert code == 0
    assert payload["ok"] is True


def test_equipos_csv_output(capsys):
    code, out = run(capsys, "equipos", "--preset", "jp", "--skips", "0",
                    "--grid", "8", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,skip,k,value"
    assert len(lines) == 9


def run_both(capsys, *argv):
    """The JSON payload and the CSV lines of one command, which exit alike."""
    code, payload = run_json(capsys, *argv)
    code_csv, out = run(capsys, *argv, "--output", "csv")
    assert code_csv == code
    return code, payload, out.splitlines()


def test_check_csv_output(capsys):
    for preset in ("jp", "example14"):
        code, payload, lines = run_both(capsys, "check", "--preset", preset)
        assert code == 0
        assert lines[0] == "index,N,ok,deviation"
        assert len(lines) == 1 + len(payload["triples"])
        first = payload["triples"][0]
        assert lines[1] == f"1,{first['N']},True,{first['deviation']!r}"


def test_spectrum_csv_output(capsys):
    code, payload, lines = run_both(capsys, "spectrum", "--preset", "jp", "--levels", "4")
    assert code == 0
    assert lines[0] == "level,lambda"
    assert len(lines) == 1 + sum(len(lv) for lv in payload["levels"])
    assert lines[-1] == f"4,{payload['levels'][-1][-1]}"
    code, payload, lines = run_both(
        capsys, "spectrum", "--preset", "example14", "--word", ":2"
    )
    assert code == 2
    err = payload["error"]
    assert lines == [f"error,equi-positivity-violation,{err['lambda']},{err['m']}"]


def test_verify_csv_output(capsys, tmp_path):
    levels_path = tmp_path / "levels.json"
    main(["spectrum", "--preset", "jp", "--levels", "3", "--out", str(levels_path)])
    code, payload, lines = run_both(
        capsys, "verify", "--preset", "jp", "--levels-file", str(levels_path), "--grid", "16"
    )
    assert code == 0
    assert lines[0] == "xi,q,bound"
    assert len(lines) == 1 + len(payload["xi_grid"])
    failed = tmp_path / "failed.json"
    main(["spectrum", "--preset", "example14", "--word", ":2", "--out", str(failed)])
    code, payload, lines = run_both(
        capsys, "verify", "--preset", "example14", "--word", ":2", "--levels-file", str(failed)
    )
    assert code == 3
    assert payload["status"] == "not-applicable"
    assert lines == ["status", "not-applicable"]


def test_zeros_csv_output(capsys):
    for argv in (["--mask", "0,2", "--range", "0,2"], ["--preset", "jp", "--products-h", "2"]):
        code, payload, lines = run_both(capsys, "zeros", *argv)
        assert code == 0
        assert lines[0] == "root,radius"
        assert len(lines) == 1 + len(payload["zeros"])
        assert lines[1] == f"{payload['zeros'][0]['root']},{payload['zeros'][0]['radius']}"
    code, payload, lines = run_both(capsys, "zeros", "--preset", "jp", "--probe-xi", "0.5")
    assert code == 0
    assert lines[0] == "xi,verdict,witness_k,witness_value,max_value,max_k"
    assert lines[1:] == [",".join(repr(payload[k]) if isinstance(payload[k], float)
                                  else str(payload[k]) for k in lines[0].split(","))]


def test_json_reports_render_no_csv(capsys, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a JSON run rendered the CSV report")

    for cls in (EquiPositivityCertificate, QReport, ZeroSetReport):
        monkeypatch.setattr(cls, "to_csv", refuse)
    levels_path = tmp_path / "levels.json"
    code = main(["spectrum", "--preset", "jp", "--levels", "3", "--out", str(levels_path)])
    assert code == 0
    for argv in (
        ["verify", "--preset", "jp", "--levels-file", str(levels_path), "--grid", "16"],
        ["zeros", "--mask", "0,2"],
        ["zeros", "--preset", "jp", "--products-h", "2"],
        ["equipos", "--preset", "jp", "--skips", "0", "--grid", "8"],
    ):
        code, payload = run_json(capsys, *argv)
        assert code == 0
        assert payload["command"] == argv[0]


def run_and_write(capsys, tmp_path, *argv):
    """Exit code and report of argv on stdout, checked to be the bytes --out writes."""
    code, out = run(capsys, *argv)
    path = tmp_path / "report"
    assert main([*argv, "--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()
    assert out.endswith("\n")
    return code, out


def test_byte_identical_output(capsys, tmp_path):
    for argv in (["equipos", "--preset", "jp", "--skips", "0,1", "--grid", "32"],
                 ["spectrum", "--preset", "jp", "--levels", "3"]):
        for output in ("json", "csv"):
            first = run_and_write(capsys, tmp_path, *argv, "--output", output)
            assert run_and_write(capsys, tmp_path, *argv, "--output", output) == first


MIXED_CONFIG = {
    "triples": [
        {"N": 2, "B": [0, 1], "L": [0, 1]},
        {"N": 3, "B": [0, 1, 2], "L": [0, 1, 2]},
    ],
    "word": {"prefix": [], "period": [1, 2]},
}


def integer_part(obj):
    """The report with every float and string dropped: levels, indices, shifts, ..."""
    if isinstance(obj, dict):
        return {k: integer_part(v) for k, v in obj.items() if not isinstance(v, (float, str))}
    if isinstance(obj, list):
        return [integer_part(v) for v in obj if not isinstance(v, (float, str))]
    return obj


@pytest.mark.parametrize("argv, want_code, digest", [
    (["--preset", "jp", "--levels", "6"], 0,
     "baeb9fc2f7a4ff055b56c1a1b49fec2baa7b73de13a95b0040263d8b2b11e885"),
    (["--config", "MIXED", "--word", ":12", "--levels", "5"], 0,
     "1044d11f7cc3322f2f23339b871f2f0ccc1f37b21f15480e1bfbbdc76c3ca47d"),
    (["--config", "MIXED", "--word", "1:21", "--exponents", "2:13", "--levels", "3"], 0,
     "05c1a53ce2852f26231aa1e3048054ac992108438e7a6bdba50f1ca3b010242e"),
    (["--preset", "example14", "--word", ":2"], 2,
     "adb84ce56eb7f16ebb17bc5d642d35635b130c4f6564fb6a3fba4632fe32a7da"),
])
def test_spectrum_golden_digests(capsys, tmp_path, argv, want_code, digest):
    # every level, index and shift is pinned; floats are left out so the
    # digest does not depend on the platform's libm
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(MIXED_CONFIG))
    argv = [str(cfg) if a == "MIXED" else a for a in argv]
    assert run_and_write(capsys, tmp_path, "spectrum", *argv, "--output", "csv")[0] == want_code
    code, out = run_and_write(capsys, tmp_path, "spectrum", *argv)
    assert code == want_code
    text = json.dumps(integer_part(json.loads(out)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_spectrum_epsilon_above_one_names_first_nonzero_lambda(capsys, tmp_path):
    # lambda = 0 keeps k = 0 with value 1 unchecked, so the first violation
    # is lambda = 1 even when epsilon exceeds every attainable value
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(MIXED_CONFIG))
    code, payload = run_json(capsys, "spectrum", "--config", str(cfg), "--epsilon", "1.5")
    assert code == 2
    err = payload["error"]
    assert (err["type"], err["lambda"], err["m"], err["x"]) == (
        "equi-positivity-violation", 1, 1, 0.5)
    assert err["achieved"] < 1.5


def test_word_parsing_variants(capsys):
    # "1:2" = prefix 1, then 2 forever; "12" = period 12; ":2" = pure period 2
    code, payload = run_json(
        capsys, "spectrum", "--preset", "example14", "--word", "1:2",
        "--levels", "1",
    )
    assert code == 0
    code2, _ = run_json(
        capsys, "spectrum", "--preset", "example14", "--word", "12",
        "--levels", "1",
    )
    assert code2 == 0


def test_config_file_spec(capsys, tmp_path):
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps({
        "triples": [
            {"N": 2, "B": [0, 1], "L": [0, 1]},
            {"N": 3, "B": [0, 1, 2], "L": [0, 1, 2]},
        ],
        "word": {"prefix": [], "period": [1, 2]},
    }))
    code, payload = run_json(capsys, "check", "--config", str(cfg))
    assert code == 0
    assert payload["gcd"]["certified"] is True


def plain(obj):
    """The plain data the stdlib encoder writes for an array or a certificate."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, EquiPositivityCertificate):
        return list(obj.table())
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def stdlib_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=plain)


@pytest.mark.parametrize("payload", [
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-05, 1e16, 0.1, -2.5e-300],
    [-1, 0, 7, 2**63, -(2**63) - 1, 3**90],
    [1, True, 2, False],
    [True, False],
    [[0.0, 0, 0, 1.0], [0.5, 3, -1, 1e-05], [-0.0, 2**64, 7, 1e16]],
    [[1, 2], [], [3]],
    [[1, math.nan], [2, math.inf]],
    [[1, True], [2, None]],
    [[1, 2], (3, 4), [5]],
    [[[1, 2], [3]], [[4]], 5],
    [None, (1, 2), (), [], {}, {"a": {}, "b": [[]]}],
    {"\u00e9t\u00e9 \u2603": "\u0001\t\n\"\\ \x7f \ud83d\ude00", "": [], "b": {"z": None, "a": (0.5, "x")}},
    {"levels": [[0], [0, 1, -5]], "ok": True, "x": 1.0, "n": None},
    [],
    {},
    "plain",
    1.5,
    -3,
    None,
])
def test_dumps_matches_the_stdlib_encoder(payload):
    assert _dumps(payload) == stdlib_dumps(payload)


def test_dumps_raises_where_it_cannot_match():
    for bad in ([object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            _dumps(bad)
        with pytest.raises(TypeError):
            stdlib_dumps(bad)
    with pytest.raises(TypeError):  # the stdlib writes the key 1 as "1"
        _dumps({1: 2})


@pytest.mark.parametrize("argv", [
    ["check", "--preset", "example14"],
    ["check", "--config", "MIXED"],
    ["spectrum", "--preset", "jp", "--exponents", ":3", "--levels", "6"],
    ["spectrum", "--config", "MIXED", "--levels", "3"],
    ["spectrum", "--config", "MIXED", "--epsilon", "1.5"],
    ["spectrum", "--preset", "example14", "--word", ":2"],
    ["verify", "--preset", "jp", "--levels-file", "LEVELS"],
    ["verify", "--preset", "jp", "--levels-file", "FAILED"],
    ["zeros", "--mask", "0,2", "--range", "0,2"],
    ["zeros", "--preset", "example14", "--word", ":2", "--products-h", "3"],
    ["zeros", "--preset", "jp", "--probe-xi", "1.37"],
    ["equipos", "--preset", "example14", "--word", ":2", "--skips", "0,1,2", "--grid", "48"],
    ["equipos", "--config", "MIXED", "--skips", "2,0,1,0", "--grid", "32"],
])
def test_report_rendering_matches_the_stdlib_encoder(tmp_path, argv):
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(MIXED_CONFIG))
    files = {"MIXED": cfg, "LEVELS": tmp_path / "levels.json", "FAILED": tmp_path / "failed.json"}
    assert main(["spectrum", "--preset", "jp", "--out", str(files["LEVELS"])]) == 0
    assert main(["spectrum", "--preset", "jp", "--epsilon", "1.5",
                 "--out", str(files["FAILED"])]) == 2
    args = build_parser().parse_args([str(files.get(a, a)) for a in argv])
    payload, _, _ = args.func(args)
    payload["command"] = args.command
    assert _dumps(payload) == stdlib_dumps(payload)
    out = tmp_path / "report.json"
    main([str(files.get(a, a)) for a in argv] + ["--out", str(out)])
    assert out.read_text() == stdlib_dumps(payload) + "\n"


JP_SPEC = ConvolutionSpec((HadamardTriple(4, (0, 2), (0, 1)),), SelectionWord())
WORDS = [SelectionWord(), SelectionWord((1,), (2,)), SelectionWord((2, 1), (1, 2, 2), (3,), (1, 2))]


@pytest.mark.parametrize("make", [
    lambda: HadamardTriple(4, (0, 2), (0, 1)),
    lambda: verify_triple(4, (0, 2), (0, 1)),
    lambda: verify_triple(4, (0, 2), (0, 1, 2)),  # with a reason
    lambda: WORDS[2],
    lambda: BuildParams(delta=0.25, K=5),
    lambda: certify_gcd_condition(JP_SPEC.family),  # with a note
    lambda: spectral_report(mixed := ConvolutionSpec.from_json(MIXED_CONFIG),
                            build_spectrum(mixed, 2), grid_n=4, depth=8),
    lambda: integral_periodic_zero_probe(JP_SPEC, 0.3),  # a witness
    # example14 :2 is uniform on [0, 3]: its transform vanishes on 1/3 + Z
    lambda: integral_periodic_zero_probe(ConvolutionSpec.from_json(
        {**convspec.cli.PRESETS["example14"], "word": {"period": [2]}}), 1 / 3),
], ids=["triple", "report", "mismatch", "word", "params", "gcd", "q", "witness", "candidate"])
def test_field_shaped_reports_write_exactly_their_fields(make):
    obj = make()
    js = obj.to_json()
    names = {f.name for f in dataclasses.fields(obj)}
    assert set(js) == names | ({"verdict"} if isinstance(obj, ZeroProbeVerdict) else set())
    assert not any(isinstance(v, tuple) for v in js.values())
    assert all(js[n] == (list(v) if isinstance(v := getattr(obj, n), tuple) else v) for n in names)
    if isinstance(obj, ZeroProbeVerdict):
        assert js["verdict"] == ("witness" if obj.is_witness else "candidate-zero")


def test_selection_word_json_round_trips_with_dataclass_defaults():
    for w in WORDS:
        assert SelectionWord.from_json(w.to_json()) == w
        assert SelectionWord.from_json(json.loads(json.dumps(w.to_json()))) == w
    assert SelectionWord.from_json({}) == SelectionWord()
    assert SelectionWord.from_json({"period": [2, 1]}) == SelectionWord(period=(2, 1))


@pytest.mark.parametrize("grid", [2, 48])  # both include the forced x = 0 row
@pytest.mark.parametrize("argv, skips, codes", [
    (["--preset", "jp"], (0, 1, 2, 3, 4), {2: 0, 48: 0}),  # five skips, one search
    (["--config", "MIXED", "--skips", "2,0,1,0"], (2, 0, 1, 0), {2: 0, 48: 0}),
    # the uniform tails vanish at 1/3, which the grid of 48 points passes close to
    (["--preset", "example14", "--word", ":2", "--skips", "0,1,2"], (0, 1, 2), {2: 0, 48: 2}),
])
def test_equipos_writers_match_one_search_per_skip(tmp_path, grid, argv, skips, codes):
    # the columnar JSON and CSV writers against the stdlib encoder over rows
    # from one choose_k per skip, sorted by (x, skip), equal skips as given
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(MIXED_CONFIG))
    argv = ["equipos", *(str(cfg) if a == "MIXED" else a for a in argv), "--grid", str(grid)]
    spec = load_spec(build_parser().parse_args(argv))
    xs = np.arange(grid) / grid
    rows = []
    for n in skips:
        k, v = choose_k(TailSpec(spec, n), xs)
        rows.extend(zip(xs.tolist(), [n] * grid, k.tolist(), v.tolist()))
    rows.sort(key=lambda r: (r[0], r[1]))
    worst = min(rows, key=lambda r: r[3])
    payload = {
        "command": "equipos",
        "ok": worst[3] > 1e-4,
        "epsilon_hat": worst[3],
        "delta_hat": 1.0 / (2.0 * grid),
        "grid_n": grid,
        "K": 8,
        "depth": 40,
        "failure_threshold": 1e-4,
        "family_id": f"{spec.describe()} skips={list(skips)}",
        "worst": dict(zip(("x", "skip", "k", "value"), worst)),
        "table": [list(r) for r in rows],
    }
    want_code = codes[grid]
    assert want_code == (0 if payload["ok"] else 2)
    csv = "".join(f"{x!r},{s},{k},{v!r}\n" for x, s, k, v in rows)
    for output, want in (("json", stdlib_dumps(payload) + "\n"), ("csv", "x,skip,k,value\n" + csv)):
        out = tmp_path / f"report.{output}"
        assert main([*argv, "--output", output, "--out", str(out)]) == want_code
        assert out.read_text() == want, output
    cert = probe_family(spec, skips, grid_n=grid)
    assert cert == probe_family(spec, skips, grid_n=grid)
    assert hash(cert) == hash(probe_family(spec, skips, grid_n=grid))
    assert cert != probe_family(spec, skips, grid_n=grid + 1)
    assert [tuple(r) for r in cert.rows] == rows and tuple(cert.worst) == worst


@pytest.mark.parametrize("grid", [2, 48])
@pytest.mark.parametrize("argv", [
    ["--preset", "jp"],  # five skips, one shared search
    ["--config", "MIXED", "--skips", "2,0,1,0"],  # shared and unshared columns
    ["--preset", "example14", "--word", ":2", "--skips", "0,1,2"],
])
def test_lazy_table_writes_what_the_stdlib_writes(tmp_path, grid, argv):
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(MIXED_CONFIG))
    argv = ["equipos", *(str(cfg) if a == "MIXED" else a for a in argv), "--grid", str(grid)]
    args = build_parser().parse_args(argv)
    payload, csv, _ = args.func(args)
    skips = tuple(map(int, args.skips.split(",")))
    cert = probe_family(load_spec(args), skips, grid_n=grid)
    rows = cert.to_json()["table"]
    # at the top level and nested one and two levels deep
    for wrap in (lambda t: t, lambda t: {"table": t}, lambda t: [{"a": [1], "table": t}, 2]):
        assert _dumps(wrap(cert)) == stdlib_dumps(wrap(rows))
        assert stdlib_dumps(wrap(cert)) == stdlib_dumps(wrap(rows))
    assert payload["table"] == cert
    assert json.loads(_dumps(payload))["table"] == rows
    assert json.loads(_dumps(payload)) == cert.to_json()
    # the CSV is the certificate's pieces as bytes, and to_csv their join
    want = "".join(f"{x!r},{s},{k},{v!r}\n" for x, s, k, v in rows)
    assert b"".join(csv()).decode() == cert.to_csv() == "x,skip,k,value\n" + want


INT64_BOUNDARIES = [
    0, 1, -1, 9, -9, 10, -10, 9999, -9999, 10000, -10000, 10**8 - 1, -(10**8 - 1),
    10**8, -(10**8), 2**32 - 1, 2**32, 2**63 - 1, -(2**63 - 1), -(2**63),
]
INT64_ARRAY = np.array(INT64_BOUNDARIES, dtype=np.int64)
BIG_ARRAY = np.array([*INT64_BOUNDARIES, 2**63, -(2**63) - 1, 3**90], dtype=object)


@pytest.mark.parametrize("payload", [
    INT64_BOUNDARIES,
    [[v] for v in INT64_BOUNDARIES],
    tuple(INT64_BOUNDARIES),
    {"levels": [[0], (0, 1), list(reversed(INT64_BOUNDARIES))], "indices": [1, 3]},
    [1, True, -2, False],  # bools write true and false, so the list is not ints
    [[1, True], [2, 3]],
    [2**63, -1],  # past int64
    [-(2**63) - 1, 0],
    [[0, 3**90], [-(2**63), 2**63 - 1]],
    [0.5, 1, -(2**63)],
    # arrays, as levels reach the writer, at depths 0, 1 and 2 (empty ones too)
    INT64_ARRAY,
    [INT64_ARRAY, INT64_ARRAY[:1], INT64_ARRAY[:0]],
    {"levels": [[0], INT64_ARRAY[::-1]], "x": [{"a": INT64_ARRAY}]},
    BIG_ARRAY,  # past int64: an object array of Python ints
    [BIG_ARRAY, BIG_ARRAY[:0]],
    {"levels": [[0], BIG_ARRAY], "x": [{"a": BIG_ARRAY[::-1]}]},
])
def test_int_lists_match_the_stdlib_encoder(payload):
    assert _dumps(payload) == stdlib_dumps(payload)


@pytest.mark.parametrize("a", [
    np.array([0.5, 1.0]),
    np.array([1, 2], dtype=np.int32),
    np.array([[1, 2], [3, 4]], dtype=np.int64),
    np.array([1, 0.5], dtype=object),
    np.array([1, True], dtype=object),  # json writes true, int.__repr__ would write 1
])
def test_dumps_raises_on_other_arrays(a):
    with pytest.raises(TypeError):
        _dumps({"a": [a]})


def test_only_int_lists_go_through_the_int_kernel(monkeypatch):
    # a level's array takes the block kernel; a plain int list takes one repr
    seen = []
    monkeypatch.setattr(convspec.cli, "_int_text",
                        lambda ints, sep: seen.append(ints) or _int_text(ints, sep))
    level = np.array([0, -1, 7], dtype=np.int64)
    payload = {"levels": [[0], (0, -1), level],
               "bools": [True, 1], "floats": [0.5, 1], "e": []}
    assert _dumps(payload) == stdlib_dumps(payload)
    assert len(seen) == 1 and seen[0] is level


@pytest.mark.parametrize("seed", range(4))
def test_random_int64_lists_match_the_stdlib_encoder(seed):
    rng = random.Random(seed)
    ints = [rng.randrange(-(2**63), 2**63) >> rng.randrange(64) for _ in range(3000)]
    assert _dumps({"a": [ints, ints[:7]]}) == stdlib_dumps({"a": [ints, ints[:7]]})


def pieces(ints, sep) -> list[bytes]:
    """_int_text's pieces, each copied as it comes: a block's text is a view
    of the buffer that the next block reuses."""
    return [bytes(p) for p in _int_text(ints, sep)]


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_int_text_across_a_block_edge(extra):
    # the last number of a block has sep after it unless it is the last of all
    n = convspec.cli._INT_BLOCK + extra
    rng = random.Random(n)
    ints = [rng.randrange(-(10**12), 10**12) for _ in range(n)]
    ints[-1] = -(2**63)
    assert _dumps([ints]) == stdlib_dumps([ints])
    assert b"".join(pieces(np.array(ints), "\n7,")).decode() == "\n7,".join(map(str, ints))


def test_int_text_falls_back_past_int64():
    assert pieces(np.array([2**64, -3], dtype=object), ", ") == [b"18446744073709551616, -3"]
    extremes = np.array([-(2**63), 2**63 - 1], dtype=np.int64)
    assert pieces(extremes, ";") == [f"{-(2**63)};{2**63 - 1}".encode()]


def test_int_text_takes_arrays():
    # three blocks: two with a negative number, and one with no sign column
    ints = np.arange(-40_000, 40_000, dtype=np.int64)
    for sep in (",", "\n  "):
        assert b"".join(pieces(ints, sep)).decode() == sep.join(map(str, ints.tolist()))
    big = np.array([-(2**64), 0, 2**63 + 1], dtype=object)
    assert pieces(big, ";") == [f"{-(2**64)};0;{2**63 + 1}".encode()]


def assert_written(ints, sep, monkeypatch, kernel=True):
    """_int_text writes ints joined by sep as Python's ints do, through the
    run kernel (which reads the digit tables) or through int.__repr__."""
    reads, tables = [], convspec.cli._digit_tables
    with monkeypatch.context() as m:
        m.setattr(convspec.cli, "_digit_tables", lambda: reads.append(1) or tables())
        text = b"".join(pieces(ints, sep)).decode()
    want = sep.join(map(str, ints.tolist()))
    if text != want:  # a diff of two megabytes of text would take minutes
        at = next((j for j, (x, y) in enumerate(zip(text, want)) if x != y), len(want))
        pytest.fail(f"at {at}: {text[at - 30 : at + 30]!r} != {want[at - 30 : at + 30]!r}")
    assert bool(reads) == kernel


@pytest.mark.parametrize("sep", [",\n      ", "\n7,"])
def test_int_text_writes_every_width_and_sign(sep, monkeypatch):
    # the least, the largest and a random number of 1 to 19 digits, with both
    # signs, each four times: every run the kernel cuts a block into
    rng = random.Random(19)
    ends = [v for d in range(1, 20) for v in (10 ** (d - 1), min(10**d, 2**63) - 1,
                                               rng.randrange(10 ** (d - 1), min(10**d, 2**63)))]
    ints = np.repeat(np.array(sorted({0, *ends, *(-v for v in ends)}), dtype=np.int64), 4)
    assert ints.size >= convspec.cli._JOIN_BELOW
    assert_written(ints, sep, monkeypatch)


@pytest.mark.parametrize("sep", ["", ";"])
def test_int_text_writes_the_int64_ends(sep, monkeypatch):
    ends = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
    assert_written(np.repeat(np.array(ends, dtype=np.int64), 64), sep, monkeypatch)


@pytest.mark.parametrize("low, high", [
    ((-9, -1), (0, 9)),  # the sign
    ((1000, 9999), (10_000, 99_999)),  # the width, by a 4-digit group
    ((-(10**9) + 1, -(10**8)), (10**7, 10**8 - 1)),  # both
])
@pytest.mark.parametrize("at", [-1, 0, 1, convspec.cli._INT_BLOCK])
def test_int_text_runs_change_at_a_block_edge(low, high, at, monkeypatch):
    # the change falls on the first block's last or first number past it, one
    # after, or at the second block's edge; the array ends a block past that
    block = convspec.cli._INT_BLOCK
    rng = np.random.default_rng(at + block)
    edge, size = block + at, 3 * block + at + 5
    ints = np.sort(np.concatenate([rng.integers(*low, edge, endpoint=True),
                                   rng.integers(*high, size - edge, endpoint=True)]))
    assert ints[edge - 1] <= low[1] and ints[edge] >= high[0]
    assert_written(ints, "\n3,", monkeypatch)


@pytest.mark.parametrize("sep", [",;\n -|:#@"[:k] for k in range(10)] + [",\n      ", "\n12,"])
def test_int_text_writes_each_separator_length(sep, monkeypatch):
    # 0 to 9 bytes, stored as words of 8, 4, 2 and 1 bytes, the JSON and CSV ones
    ints = np.sort(np.random.default_rng(len(sep)).integers(-(10**12), 10**15, 3000))
    assert_written(ints, sep, monkeypatch)


def test_int_text_writes_unsorted_and_short_arrays_by_repr(monkeypatch):
    ints = np.random.default_rng(5).integers(-(2**63), 2**63 - 1, 5000, endpoint=True)
    assert_written(ints, ",\n      ", monkeypatch, kernel=False)
    assert_written(np.sort(ints), ",\n      ", monkeypatch)
    short = np.sort(ints[: convspec.cli._JOIN_BELOW])
    assert_written(short, ",", monkeypatch)
    assert_written(short[1:], ",", monkeypatch, kernel=False)


def old_csv_rows(payload):
    rows = (f"{i},{lam}" for i, lv in enumerate(payload["levels"]) for lam in lv)
    return "\n".join(["level,lambda", *rows]) + "\n"


@pytest.mark.parametrize("argv", [
    ["--preset", "jp", "--exponents", ":3", "--levels", "12"],  # past int64 from L11
    ["--config", "MIXED", "--levels", "6"],
])
def test_spectrum_csv_matches_the_old_rows(tmp_path, argv):
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(MIXED_CONFIG))
    argv = ["spectrum", *(str(cfg) if a == "MIXED" else a for a in argv)]
    out = tmp_path / "levels"
    assert main([*argv, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert main([*argv, "--output", "csv", "--out", str(out)]) == 0
    assert out.read_text() == old_csv_rows(payload)


def test_spectrum_levels_reach_the_report_without_python_ints(tmp_path, monkeypatch):
    # each level goes from its int64 array to the text: fromiter is never needed
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(MIXED_CONFIG))
    argv = ["spectrum", "--config", str(cfg), "--word", ":12", "--levels", "6"]
    args = build_parser().parse_args(argv)
    payload, _, _ = args.func(args)
    payload["command"] = args.command
    plain = json.loads(stdlib_dumps(payload))
    sizes = [len(lv) for lv in plain["levels"]]
    assert sizes[-1] == 15552
    monkeypatch.setattr(convspec.cli.np, "fromiter", lambda *a, **k: pytest.fail("fromiter"))
    seen = []
    monkeypatch.setattr(convspec.cli, "_int_text",
                        lambda ints, sep: seen.append(ints) or _int_text(ints, sep))
    out = tmp_path / "levels"
    for output, want in (("json", stdlib_dumps(payload) + "\n"), ("csv", old_csv_rows(plain))):
        seen.clear()
        assert main([*argv, "--output", output, "--out", str(out)]) == 0
        assert out.read_text() == want, output
        # every level reaches the writer as its own read-only int64 array
        arrays = [a for a in seen if isinstance(a, np.ndarray)]
        assert [a.size for a in arrays] == sizes, output
        assert all(a.dtype == np.int64 and not a.flags.writeable for a in arrays), output


def test_parser_is_built_once():
    assert build_parser() is build_parser()


JP = ["--preset", "jp"]
PAST_THE_BUDGET = {  # argv, and what the message names
    "spectrum-depth": (["spectrum", *JP, "--depth", "10000000"], "a table of 10000000 factors"),
    # delta 1e-300 puts m_2 at 499: a block of 2^498 frequencies
    "spectrum-delta": (["spectrum", *JP, "--levels", "2", "--delta", "1e-300"],
                       f"level 2 of 2 x {2**498} frequencies"),
    "spectrum-kmax": (["spectrum", *JP, "--kmax", "1000000000"], "a shift window of K = 1000000000"),
    "verify-grid": (["verify", *JP, "--levels-file", "{levels}", "--grid", "10000000"],
                    "a Q lattice scan of 8 frequencies over 10000001 points at depth 30"),
    "verify-depth": (["verify", *JP, "--levels-file", "{levels}", "--depth", "10000000"],
                     "a Q lattice scan of 8 frequencies over 65 points at depth 10000000"),
    "equipos-depth": (["equipos", *JP, "--grid", "2", "--kmax", "1", "--skips", "0",
                       "--depth", "10000000"], "a table of 10000000 factors"),
    "equipos-kmax": (["equipos", *JP, "--grid", "2", "--skips", "0", "--kmax", "1000000000"],
                     "a shift window of K = 1000000000"),
    "zeros-depth": (["zeros", *JP, "--probe-xi", "0.3", "--depth", "10000000"],
                    "a table of 10000000 factors"),
    "zeros-kmax": (["zeros", *JP, "--probe-xi", "0.3", "--kmax", "1000000000"],
                   "a shift window of K = 1000000000"),
    # span 10^5 with gcd(B - B) = 1 would need an 80 GB companion matrix
    "zeros-mask": (["zeros", "--mask", "0,1,100000"],
                   "root finding on a mask of span 100000 and degree 100000"),
    "zeros-products": (["zeros", "--config", "{wide}", "--products-h", "5"],
                       "root finding on a mask of span 100001 and degree 100001"),
    # a linear q still has up to span zeros: 10^10 of them, or 10^9 at gcd 10^9
    "zeros-mask-gcd": (["zeros", "--mask", "0,10000000000"],
                       "root finding on a mask of span 10000000000 and degree 1"),
    "zeros-products-gcd": (["zeros", "--config", "{gcd_wide}", "--products-h", "5"],
                           "root finding on a mask of span 1000000000 and degree 1"),
}


@pytest.mark.parametrize("case", list(PAST_THE_BUDGET))
def test_past_the_budget_exits_3(capsys, tmp_path, monkeypatch, case):
    # every estimate is checked before what it estimates is formed: exit 3 at
    # once, with a small traced peak, where forming it runs until memory runs
    # out; 10 s, the CI step's timeout, tells them apart on a slow runner too
    argv, what = PAST_THE_BUDGET[case]
    levels, wide = tmp_path / "levels.json", tmp_path / "wide.json"
    assert main(["spectrum", *JP, "--levels", "3", "--out", str(levels)]) == 0
    wide.write_text(json.dumps({"triples": [{"N": 3, "B": [0, 1, 100001], "L": [0, 1, 2]}]}))
    gcd_wide = tmp_path / "gcd_wide.json"
    gcd_wide.write_text(json.dumps(
        {"triples": [{"N": 2000000000, "B": [0, 1000000000], "L": [0, 1]}]}))
    monkeypatch.setattr(np, "roots", lambda *a: pytest.fail("np.roots was called"))
    if what.startswith("root finding"):  # nor is any zero spread over the period
        monkeypatch.setattr(np, "arange", lambda *a: pytest.fail("np.arange was called"))
    compose = convspec.spectrum.block_frequencies

    def guarded(spec, p, q):
        # a block within the budget has at most 2^20 frequencies at 512 bytes
        # each, so with jp's two digits per position it spans at most 20
        assert q - p <= 20, "next_level composed a block past its budget"
        return compose(spec, p, q)

    monkeypatch.setattr(convspec.spectrum, "block_frequencies", guarded)
    capsys.readouterr()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main([a.format(levels=levels, wide=wide, gcd_wide=gcd_wide) for a in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 10.0
    assert code == 3
    assert peak < 8 << 20
    assert f"{what} needs more than its budget of 1073741824 bytes" in capsys.readouterr().err


def test_report_is_written_without_a_copy_of_its_text(tmp_path):
    # the report goes into the file as it is rendered, so at mixed :12 L8,
    # whose 9.3 MB of text would be the largest object, no copy of the text
    # is held: the traced peak stays below the report's size
    cfg, out = tmp_path / "mixed.json", tmp_path / "levels.json"
    cfg.write_text(json.dumps(MIXED_CONFIG))
    tracemalloc.start()
    try:
        code = main(["spectrum", "--config", str(cfg), "--word", ":12", "--levels", "8",
                     "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= out.stat().st_size


@pytest.mark.parametrize("output", ["json", "csv"])
def test_certificate_is_written_without_a_copy_of_its_text(tmp_path, output):
    # equipos jp over 8192 points goes into the file a piece of rows at a
    # time, so the traced peak stays below the report's size (the parent
    # writer held the whole table's text: 2.2x of the JSON, 2.8x of the CSV);
    # the first call builds the parser and the caches every call shares
    out = tmp_path / f"jp.{output}"
    argv = ["equipos", "--preset", "jp", "--grid", "8192", "--output", output, "--out", str(out)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= out.stat().st_size


def test_certificate_streams_the_bytes_of_its_joined_text(tmp_path, monkeypatch, capsys):
    # a value column that repeats and holds 0.0 and -0.0 (equal floats, two
    # texts), in pieces of three grid points: JSON and CSV, on --out and on
    # stdout, are the joined text of the certificate's rows
    real = probe_family(JP_SPEC, (1, 0, 2), grid_n=8, K=2, depth=10)
    k = real.columns[0][0]
    shared = (k, (0.0, -0.0, 0.5, 0.0, -0.0, 0.5, 0.25, -0.0))
    cert = dataclasses.replace(real, columns=(shared, (k, shared[1][::-1]), shared))
    monkeypatch.setattr(convspec.equipos, "_TEXT_ROWS", 3)
    monkeypatch.setattr(convspec.cli, "probe_family", lambda *args, **kwargs: cert)
    rows = "".join(f"{r.x!r},{r.skip},{r.k},{r.value!r}\n" for r in cert.rows)
    assert rows.count(",-0.0\n") == 9 and rows.count(",0.0\n") == 6
    assert cert.to_csv() == "x,skip,k,value\n" + rows
    payload = {**cert.to_json(), "command": "equipos"}
    table = cert.text(",\n      ", "[\n      ", "\n    ]", ",\n    ")
    assert f'"table": [\n    {table}\n  ]' in stdlib_dumps(payload)
    for output, want in (("json", stdlib_dumps(payload) + "\n"), ("csv", cert.to_csv())):
        argv = ["equipos", "--preset", "jp", "--output", output]
        assert main([*argv, "--out", str(tmp_path / "report")]) == 0
        assert (tmp_path / "report").read_bytes() == want.encode(), output
        assert run(capsys, *argv) == (0, want), output


@pytest.mark.parametrize("argv", [
    ["verify", "--preset", "jp", "--levels-file", "MALFORMED"],
    ["spectrum", "--preset", "jp", "--levels", "0"],
])
def test_a_command_that_fails_leaves_out_untouched(capsys, tmp_path, argv):
    # the command fails before its report renders, so --out is not opened
    malformed, out = tmp_path / "malformed.json", tmp_path / "report"
    malformed.write_text('{"levels": [[0], [0, 1]')
    before = b'{"kept": "byte for byte"}\n\x00\xff'
    out.write_bytes(before)
    argv = [str(malformed) if a == "MALFORMED" else a for a in argv]
    for output in ("json", "csv"):
        assert main([*argv, "--output", output, "--out", str(out)]) == 3
        assert out.read_bytes() == before
        assert "config error" in capsys.readouterr().err


def test_a_stdout_with_no_buffer_gets_the_text_out_gets(tmp_path, monkeypatch):
    # a text stream with no byte buffer under it, as a StringIO redirect is,
    # takes the decoded pieces; mixed :12 L7 writes its deepest level in
    # three blocks of one reused buffer
    argv = ["spectrum", "--preset", "mixed", "--word", ":12", "--levels", "7"]
    out = tmp_path / "report"
    for output in ("json", "csv"):
        assert main([*argv, "--output", output, "--out", str(out)]) == 0
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert not hasattr(sys.stdout, "buffer")
        assert main([*argv, "--output", output]) == 0
        text = sys.stdout.getvalue()
        monkeypatch.undo()
        assert text.encode() == out.read_bytes(), output
        assert text.count("\n") > 93312


def test_depth_within_the_factor_table_budget_runs(capsys):
    assert main(["equipos", "--preset", "jp", "--grid", "2", "--kmax", "1", "--skips", "0",
                 "--depth", "20000"]) == 0
