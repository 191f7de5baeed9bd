import json

from cuspidal import catalog
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
