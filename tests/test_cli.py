import hashlib
import json

import pytest

from cuspidal import catalog, cli, pipeline
from cuspidal.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_surface_report_quartic(capsys):
    code, out, err = run_cli(capsys, "--json", "surface-report", "new_quartic")
    assert code == 0
    rep = json.loads(out)
    assert rep["n_points"] == 16
    assert rep["verdict"] == "all_A1"
    assert rep["free_action"]["free"] is False
    assert rep["invariant_under_action"] is True
    # progress goes to stderr only
    assert "certifying" in err


def test_surface_report_unknown_name(capsys):
    code, out, err = run_cli(capsys, "--json", "surface-report", "nonsense")
    assert code == 2


def test_surface_report_chart_restriction(capsys):
    code, out, err = run_cli(
        capsys, "--json", "surface-report", "new_quartic", "--chart", "w"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["partial"] is True
    assert rep["chart_degree"] == 15
    assert rep["chart_points"] == 15


def test_surface_report_from_file(tmp_path, capsys):
    f = tmp_path / "surf.txt"
    f.write_text("x^2+y^2+z^2+w^2")
    code, out, err = run_cli(capsys, "--json", "surface-report", str(f))
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "smooth"


def test_surface_report_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2x + q")
    code, out, err = run_cli(capsys, "--json", "surface-report", str(f))
    assert code == 2


def test_surface_report_codimension_one_is_certificate_failure(tmp_path, capsys):
    f = tmp_path / "planes.txt"
    f.write_text("x^2*y^2")
    code, out, err = run_cli(capsys, "--json", "surface-report", str(f))
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert "codimension one" in rep["error"]


def test_surface_report_negative_control_a2_plus_a1(tmp_path, capsys):
    f = tmp_path / "a2a1.txt"
    f.write_text("w^2*x^2+w^2*y^2+z^3*w+x^2*y^2+x^2*z^2+y^4+z^4+3*x*y*z*w")
    code, out, err = run_cli(capsys, "--json", "surface-report", str(f))
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["verdict"] == "mixed_or_worse"
    assert rep["strata"]["degenerate"] == "mixed"


def test_surface_report_negative_control_a4_quintic(tmp_path, capsys):
    # one A4 point: every stratum test passes, but tau 4 is not 2 per point
    f = tmp_path / "a4.txt"
    f.write_text("x*y*w^3+x^5+y^5+z^5")
    code, out, err = run_cli(capsys, "--json", "surface-report", str(f))
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["verdict"] == "mixed_or_worse"
    assert (rep["n_points"], rep["tau_total"]) == (1, 4)
    assert rep["strata"] == {"rank_le1": "empty", "degenerate": "all"}


def test_reproduce_missing_action_catalog(capsys):
    code, out, err = run_cli(
        capsys, "--json", "reproduce-construction", "--action", "1"
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert "a_1" in rep["reason"]


def test_divisibility_rejects_quartic(capsys):
    code, out, err = run_cli(capsys, "--json", "divisibility", "new_quartic")
    assert code == 2


def test_divisibility_unknown_name(capsys):
    code, out, err = run_cli(capsys, "--json", "divisibility", "nonsense")
    assert code == 2
    assert out == ""
    assert "nonsense" in json.loads(err)["error"]


def test_divisibility_negative_control_duplicate_conic(monkeypatch, capsys):
    # the last conic replaced by a copy of the first: the divisibility
    # certificate must fail at the conic intersection stage, with exit 1
    from cuspidal import pipeline

    real = pipeline.new_quintic_curves

    def with_duplicate(*args):
        families, census = real(*args)
        families[1][-1] = families[0][0]
        return families, census

    monkeypatch.setattr(pipeline, "new_quintic_curves", with_duplicate)
    code, out, err = run_cli(capsys, "--json", "divisibility", "new_quintic")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert "stage failed: quintic_meets_quartic_at_conics" in rep["error"]


def test_usage_error(capsys):
    code, out, err = run_cli(capsys, "no-such-command")
    assert code == 2


def test_reproduce_negative_control_corrupted_quartic():
    # corrupting one catalog coefficient must fail at the node certificate
    # stage and no later
    from cuspidal.reproduce import reproduce_construction

    bad = catalog.XYZW.parse(catalog.NEW_QUARTIC_TEXT) + catalog.XYZW.var("x") ** 4
    report = reproduce_construction(quartic_override=bad)
    assert report["pass"] is False
    failed = [s for s in report["stages"] if not s["ok"]]
    assert failed[0]["stage"] == "quartic_node_certificate"
    assert report["stages"][-1]["stage"] == "quartic_node_certificate"


# sha256 of each --json report at the default seed, re-serialised with
# sorted keys, as the field-generic reduction loop gave them (before
# docs/DECISIONS.md D7); a change of certified content changes the hash
PINNED_REPORTS = {
    ("surface-report", "new_quartic"): "aa5f4229491a6ee35388b728e4d44c5a906029c8ba107a7848114ad68d19f30a",
    ("surface-report", "new_quintic"): "58328a59077213a2237a5f3d1d800418fe5182359bced19b7bb7b2f80dfa3e6a",
    ("surface-report", "vdgz_quartic"): "ee7ee70b035cd16dd4ba2d96fc2d7c041e7c12c8b902b22d42aa532bd731b07f",
    ("surface-report", "vdgz_quintic"): "144232c6b7c1932b3afe3e35612b6173a610681ea63f02250b1b34d76dc03348",
    ("reproduce-construction",): "809179f348a7a564bebd6bc4da03c1c07a0a89484e69503ee096526b82a2253a",
    ("divisibility", "new_quintic"): "e0646b71df27c2d245982c0d818be521fc31a165486a5b93329cb03a5e69509a",
    ("divisibility", "vdgz_quintic"): "e7b2d68cff1a03b45972c6735e024e6d6f33ed016d52b48fdc777e0a0cc58f01",
}

# where a session fixture already holds a report's certificate, the
# command reuses it: (module, builder it calls, fixture)
REUSED = {
    ("surface-report", "new_quartic"): (cli, "classify_all", "new_quartic_cert"),
    ("surface-report", "new_quintic"): (cli, "classify_all", "new_quintic_cert"),
    ("surface-report", "vdgz_quartic"): (cli, "classify_all", "vdgz_quartic_cert"),
    ("surface-report", "vdgz_quintic"): (cli, "classify_all", "vdgz_quintic_cert"),
    ("divisibility", "new_quintic"): (pipeline, "divisibility_pipeline", "new_divisibility"),
    ("divisibility", "vdgz_quintic"): (pipeline, "divisibility_pipeline", "vdgz_divisibility"),
}


@pytest.mark.parametrize("argv", list(PINNED_REPORTS), ids="-".join)
def test_reports_pinned(argv, request, monkeypatch, capsys):
    if argv in REUSED:
        module, builder, fixture = REUSED[argv]
        built = request.getfixturevalue(fixture)

        def reuse(*args, **kwargs):
            assert argv[1] in args  # the same surface the fixture built
            return built

        monkeypatch.setattr(module, builder, reuse)
    code, out, err = run_cli(capsys, "--json", *argv)
    assert code == 0
    text = json.dumps(json.loads(out), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[argv]
