import ast
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

from cuspidal import catalog, cli, groebner, pipeline, reproduce, schemas, zfive
from cuspidal.cli import main
from cuspidal.singcert import classify_all
from cuspidal.zfive import ActionK

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _modules_loaded_by(code):
    code += "; import json, sys; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out))


def test_cli_import_leaves_out_point_extraction_modules():
    # modp serves point extraction and the cusp geometry of the
    # divisibility and reproduce commands, and curvegeom, pipeline and
    # lattice serve only divisibility, so a CLI process that runs neither
    # (surface-report) does not compile them; extfield is a leaf that no
    # module imports: importing every other module leaves it out
    loaded = _modules_loaded_by("import cuspidal.cli")
    assert "cuspidal.groebner" in loaded
    assert not loaded & {
        "cuspidal.extfield",
        "cuspidal.modp",
        "cuspidal.curvegeom",
        "cuspidal.pipeline",
        "cuspidal.lattice",
    }
    package = os.path.dirname(os.path.abspath(cli.__file__))
    others = sorted(
        "cuspidal." + name[:-3]
        for name in os.listdir(package)
        if name.endswith(".py") and name not in ("__init__.py", "extfield.py")
    )
    assert "cuspidal.linsys" in others
    loaded = _modules_loaded_by("; ".join("import " + m for m in others))
    assert set(others) <= loaded
    assert "cuspidal.extfield" not in loaded


def test_quartic_nodes_maps_non_rational_residual(monkeypatch):
    # a node that is not Q(zeta5)-rational fails the node stage as a
    # PipelineError, not as an untyped error further on
    def residual(*args, **kwargs):
        raise groebner.NonRationalResidual(2)

    monkeypatch.setattr(pipeline, "extract_points", residual)
    with pytest.raises(pipeline.PipelineError, match="2 nodes are not Q.zeta5.-rational"):
        pipeline.quartic_nodes()


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


def test_surface_report_transcript_chart_w(new_quartic_cert, monkeypatch, capsys):
    # the 15 non-fixed nodes of the new quartic fill chart w: its scheme
    # and radical have degree 15, from a basis of 10 polynomials
    monkeypatch.setattr(cli, "classify_all", lambda *args, **kwargs: new_quartic_cert)
    code, out, err = run_cli(
        capsys, "--json", "--transcript", "surface-report", "new_quartic"
    )
    assert code == 0
    transcript = json.loads(out)["transcript"]
    w = catalog.XYZW.vars.index("w")
    keys = ("chart_degrees", "chart_points", "chart_gb_sizes")
    assert [transcript[k][w] for k in keys] == [15, 15, 10]


def test_surface_report_chart_singular_in_codimension_one(tmp_path, capsys):
    # chart w of x^2*y^2 = 0 is singular along a curve: the per-chart
    # report (--transcript) is a typed failure with the certificate's
    # message, in JSON and in text, not a traceback
    f = tmp_path / "xy.txt"
    f.write_text("x^2*y^2\n")
    code, out, err = run_cli(
        capsys, "--json", "--transcript", "surface-report", str(f)
    )
    assert code == 1
    assert json.loads(out) == {
        "surface": "xy.txt",
        "pass": False,
        "error": "singular in codimension one (chart w, variable x)",
    }
    code, out, err = run_cli(capsys, "--transcript", "surface-report", str(f))
    assert code == 1
    assert "error: singular in codimension one (chart w, variable x)" in out


def test_surface_report_chart_is_usage_error(capsys):
    # there is no one-chart report: --transcript prints every chart's data
    code, out, err = run_cli(
        capsys, "--json", "surface-report", "new_quartic", "--chart", "w"
    )
    assert code == 2
    assert out == ""


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
    # x^2*y^2 = 0 is singular along two planes, first seen in chart w: a
    # typed failure with the certificate's message, not a traceback
    f = tmp_path / "planes.txt"
    f.write_text("x^2*y^2")
    code, out, err = run_cli(capsys, "--json", "surface-report", str(f))
    assert code == 1
    rep = json.loads(out)
    assert rep == {
        "surface": "planes.txt",
        "pass": False,
        "error": "singular in codimension one (chart w, variable x)",
    }


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


def test_reproduce_action_is_usage_error(capsys):
    # the replay has one quartic and one action: there is no --action
    code, out, err = run_cli(
        capsys, "--json", "reproduce-construction", "--action", "1"
    )
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("surface", ["new_quartic", "file"])
def test_surface_report_action_out_of_range(tmp_path, capsys, surface):
    # one projective action per surface: an equation file is certified
    # under a_0 and the five a_k are one action, so there is no --action
    # and no index is in range (docs/DECISIONS.md D32)
    if surface == "file":
        f = tmp_path / "smooth.txt"
        f.write_text("x^2+y^2+z^2+w^2")
        surface = str(f)
    code, out, err = run_cli(capsys, "--json", "surface-report", surface, "--action", "9")
    assert code == 2
    assert out == "" and "unrecognized arguments: --action 9" in err


def test_surface_report_action_with_catalog_name(capsys):
    # a catalog surface carries its own action, so --action with a
    # catalog name is a usage error, even with a former action index
    code, out, err = run_cli(
        capsys, "--json", "surface-report", "new_quartic", "--action", "3"
    )
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --action 3" in err


def test_divisibility_rejects_quartic(capsys):
    code, out, err = run_cli(capsys, "--json", "divisibility", "new_quartic")
    assert code == 2


def test_divisibility_pipeline_fails_a_quartic_at_its_first_stage():
    # the command rejects a quartic with exit 2 before the pipeline runs;
    # called directly, the pipeline finds 16 A1 points, not 15 A2
    with pytest.raises(
        pipeline.PipelineError, match="stage failed: quintic_certification"
    ):
        pipeline.divisibility_pipeline("new_quartic")


def test_stage_recorder():
    # one entry and one progress line per check; only a failed fatal
    # check raises, and it names the stage and its data
    lines = []
    stages = schemas.Stages(lines.append)
    stages.check("first", True, n=3)
    stages.check("second", False, fatal=False)
    with pytest.raises(pipeline.PipelineError, match=r"stage failed: third \(\{'n': 0\}\)"):
        stages.check("third", 0, n=0)
    assert stages == [
        {"stage": "first", "ok": True, "n": 3},
        {"stage": "second", "ok": False},
        {"stage": "third", "ok": False, "n": 0},
    ]
    assert lines == [
        "stage first                                  ok",
        "stage second                                 FAILED",
        "stage third                                  FAILED",
    ]
    assert json.loads(json.dumps(stages)) == stages


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


def test_divisibility_negative_control_cusp_set_not_closed(monkeypatch):
    # one cusp dropped: the walk leaves the cusp set, and the orbit sizes
    # fail the cusp_orbits stage
    real = catalog.vdgz_cusps
    monkeypatch.setattr(catalog, "vdgz_cusps", lambda: real()[1:])
    with pytest.raises(pipeline.PipelineError, match="stage failed: cusp_orbits"):
        pipeline.divisibility_pipeline("vdgz_quintic")


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
    # re-pinned when the action_invariant_and_free stage joined their
    # stage lists (docs/DECISIONS.md D25)
    ("divisibility", "new_quintic"): "8b77692d0d4dcda8a573ddc48f05dbbca552e097b7aed4fe2d6e37dada7f966f",
    ("divisibility", "vdgz_quintic"): "76074318b5ec766876c6ffc08d22cf3458fe7931f4789e7d075436bd6c1fe9c3",
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


@pytest.mark.parametrize(
    "command, message",
    [
        ("divisibility", "unknown catalog surface 'nonsense'"),
        ("surface-report", "unknown surface 'nonsense' (not a catalog name or file)"),
    ],
)
def test_unknown_name_error_is_plain_message(capsys, command, message):
    # the message itself, not the repr a KeyError's str() gives
    code, out, err = run_cli(capsys, "--json", command, "nonsense")
    assert code == 2
    assert json.loads(err) == {"error": message}


# sha256 of each --json --transcript report at the default seed,
# re-serialised with sorted keys, as the term-by-term substitution gave
# them (before docs/DECISIONS.md D12): the transcripts print the blow-up
# substitutions and strict transforms, so a change in either changes it
PINNED_TRANSCRIPT_REPORTS = {
    # re-pinned with the action_invariant_and_free stage and without the
    # transcript key that repeated the stage list (docs/DECISIONS.md D25);
    # the plane of new_quintic's excess test is the first of a fixed list
    # (D21)
    ("divisibility", "vdgz_quintic"): "51764bc5624deb3b8ce5e1d27f2900d075d0f4bcc13610b70ec440623767d848",
    ("divisibility", "new_quintic"): "22f9282c92e95d7cae5519d3738327edd66bca3b8d89b79b9f5e57de53158e2a",
    ("surface-report", "new_quintic"): "0ea7cd9dd142cdeacff27cea40848e38ff7f00156df4de432c396e8c1817d80b",
    # its chart_gb_sizes read all four chart bases, three of them served
    # by groebner's table of repeated ideals (docs/DECISIONS.md D14)
    ("surface-report", "vdgz_quintic"): "d73992ab94a857f666ca4ba1cac316a372031df89d6d2e458a00415ea27deb3f",
    # the catalog surfaces with a nonempty piece off chart w, so their
    # chart rows sum a built chart's own piece with the later ones (D30)
    ("surface-report", "new_quartic"): "4690ed1dd394ba6688c42c3dfcdca440421da48d10b2b8a79ffa1dc5849ae0fd",
    ("surface-report", "vdgz_quartic"): "58880e87ae7519f862fb268e4b17d4e05db7a8b178932941f7c01f305be3bed7",
}


@pytest.mark.parametrize("argv", list(PINNED_TRANSCRIPT_REPORTS), ids="-".join)
def test_transcript_reports_pinned(argv, request, monkeypatch, capsys):
    if argv[0] == "surface-report":
        # the transcript reads the charts of the certificate the fixture holds
        built = request.getfixturevalue(argv[1] + "_cert")
        monkeypatch.setattr(cli, "classify_all", lambda *args, **kwargs: built)
    code, out, err = run_cli(capsys, "--json", "--transcript", *argv)
    assert code == 0
    text = json.dumps(json.loads(out), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TRANSCRIPT_REPORTS[argv]


@pytest.mark.parametrize(
    "flags, pins",
    [([], PINNED_REPORTS), (["--transcript"], PINNED_TRANSCRIPT_REPORTS)],
    ids=["json", "transcript"],
)
def test_report_independent_of_seed(flags, pins, capsys):
    # the only report that once read --seed, through the plane of its
    # excess test, run for real at a seed other than the default
    argv = ("divisibility", "new_quintic")
    code, out, err = run_cli(capsys, "--json", *flags, "--seed", "2", *argv)
    assert code == 0
    text = json.dumps(json.loads(out), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == pins[argv]


def test_surface_report_locus_of_a_surface_not_preserved_has_no_orbits(
    tmp_path, capsys
):
    # one A1 point at (1:1:1:1), which a_0 does not fix: a_0 does not
    # preserve the surface, so its one-point locus need not be closed
    # under a_0, and the A1 certificate stands without orbit rows or a
    # count check (docs/DECISIONS.md D32)
    f = tmp_path / "a1_moved.txt"
    f.write_text("(x-w)*(y-w)*w^3+(z-w)^2*w^3+(x-w)^5+(y-w)^5+(z-w)^5")
    code, out, err = run_cli(capsys, "--json", "surface-report", str(f))
    assert code == 0
    rep = json.loads(out)
    assert rep["surface"] == "a1_moved.txt" and rep["pass"] is True
    assert (rep["verdict"], rep["n_points"]) == ("all_A1", 1)
    assert rep["invariant_under_action"] is False
    assert rep["orbits"] is None


@pytest.mark.parametrize("text", ["0", "1", "e", "x^2+y"])
def test_surface_report_rejects_a_file_that_is_no_surface(text, tmp_path, capsys):
    # a constant defines no surface (V(1) is empty, V(0) all of P^3), and
    # neither does an inhomogeneous polynomial: a usage error, not a
    # certificate
    f = tmp_path / "not_a_surface.txt"
    f.write_text(text)
    code, out, err = run_cli(capsys, "--json", "surface-report", str(f))
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err.strip().splitlines()[-1])


def test_surface_report_vdgz_quintic_file_under_a0(tmp_path, capsys):
    # read from a file, the VdGZ quintic takes the default a_0, which
    # neither preserves it nor acts freely on it: the A2 certificate
    # stands, and the report has no orbit rows (docs/DECISIONS.md D26)
    import jsonschema

    poly = catalog.get("vdgz_quintic").poly
    f = tmp_path / "vdgz.txt"
    f.write_text(str(poly))
    code, out, err = run_cli(capsys, "--json", "surface-report", str(f))
    assert code == 0
    rep = json.loads(out)
    jsonschema.validate(rep, schemas.SINGULARITY_CERTIFICATE_SCHEMA)
    assert rep["verdict"] == "all_A2"
    assert rep["invariant_under_action"] is False
    assert rep["free_action"] == {
        "free": False,
        "fixed_points_on_surface": [
            "(1 : 0 : 0 : 0)",
            "(0 : 1 : 0 : 0)",
            "(0 : 0 : 1 : 0)",
            "(0 : 0 : 0 : 1)",
        ],
    }
    assert rep["orbits"] is None
    assert classify_all(poly, action=ActionK(0)).orbits is None


def _count_free_action_checks(monkeypatch):
    """Route every reference to free_action_check in the package through
    a counter; returns the list of surfaces it was called on."""
    real = zfive.free_action_check
    surfaces = []

    def counted(F, action):
        surfaces.append(F)
        return real(F, action)

    for name, module in list(sys.modules.items()):
        if name.startswith("cuspidal"):
            if getattr(module, "free_action_check", None) is real:
                monkeypatch.setattr(module, "free_action_check", counted)
    return surfaces


def test_surface_report_checks_the_action_once(monkeypatch, capsys):
    surfaces = _count_free_action_checks(monkeypatch)
    code, out, err = run_cli(capsys, "--json", "surface-report", "new_quintic")
    assert code == 0
    assert surfaces == [catalog.get("new_quintic").poly]


def test_reproduce_checks_the_action_once_per_surface(monkeypatch):
    surfaces = _count_free_action_checks(monkeypatch)
    assert reproduce.reproduce_construction()["pass"] is True
    quartic, quintic = (catalog.get(n).poly for n in ("new_quartic", "new_quintic"))
    assert surfaces == [quartic, quintic]


@pytest.mark.parametrize(
    "equation, reason",
    [
        # one A4 point at (0:0:0:1), which the VdGZ action moves: the
        # action does not preserve the quintic, and the point is no A2
        (
            "x*y*w^3+x^5+y^5+z^5",
            "{'verdict': 'mixed_or_worse', 'n_points': 1, 'tau_total': 4}",
        ),
        ("x^2*y^2*w+x^5+y^5", "singular in codimension one"),
    ],
    ids=["a4", "codimension_one"],
)
def test_divisibility_negative_control_quintic(monkeypatch, capsys, equation, reason):
    # the VdGZ entry replaced by a quintic that has no A2 certificate:
    # the quintic certification stage fails with exit 1
    poly = catalog.XYZW.parse(equation)
    entry = catalog.SurfaceEntry("vdgz_quintic", poly, catalog.VDGZ_ACTION, 5)
    monkeypatch.setitem(catalog._ENTRIES, "vdgz_quintic", entry)
    code, out, err = run_cli(capsys, "--json", "divisibility", "vdgz_quintic")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert "stage failed: quintic_certification" in rep["error"]
    assert reason in rep["error"]


def _vdgz_quintic_under_a0(monkeypatch):
    # the VdGZ quintic with a_0 in place of its own action: a_0 moves
    # none of its 15 cusps off a fixed point, so the A2 certificate
    # passes, but a_0 neither preserves the quintic nor acts freely on it
    poly = catalog.get("vdgz_quintic").poly
    entry = catalog.SurfaceEntry("vdgz_quintic", poly, ActionK(0), 5)
    monkeypatch.setitem(catalog._ENTRIES, "vdgz_quintic", entry)

    def later_stage(*args):
        pytest.fail("a stage after action_invariant_and_free ran")

    monkeypatch.setattr(pipeline, "vdgz_curves", later_stage)


def test_divisibility_negative_control_action_not_invariant_nor_free(monkeypatch):
    _vdgz_quintic_under_a0(monkeypatch)
    with pytest.raises(pipeline.PipelineError) as ev:
        pipeline.divisibility_pipeline("vdgz_quintic")
    message = str(ev.value)
    assert message.startswith("stage failed: action_invariant_and_free")
    assert "'invariant': False, 'free': False" in message
    assert (
        "'fixed_points_on_surface': ['(1 : 0 : 0 : 0)', '(0 : 1 : 0 : 0)', "
        "'(0 : 0 : 1 : 0)', '(0 : 0 : 0 : 1)']" in message
    )


def test_divisibility_negative_control_action_exits_1(monkeypatch, capsys):
    _vdgz_quintic_under_a0(monkeypatch)
    code, out, err = run_cli(capsys, "--json", "divisibility", "vdgz_quintic")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["error"].startswith("stage failed: action_invariant_and_free")


# the VdGZ quintic in the eigenbasis of VDGZ_ACTION (docs/DECISIONS.md D34)
VDGZ_QUINTIC_EIGEN = (
    "60*(x^5+y^5+z^5+w^5)+450*(x*y^3*z+x^3*z*w+y*z^3*w+x*y*w^3)"
    "+1050*(x^2*y*z^2+x^2*y^2*w+y^2*z*w^2+x*z^2*w^2)"
)


def test_divisibility_certifies_vdgz_quintic_in_its_eigenbasis(monkeypatch, capsys):
    # classify_all gets the 12-term form H(y) = S(Py) under a_0, and the
    # two action-free stages report what surface-report certifies in the
    # catalog's frame
    seen = []
    real = pipeline.classify_all

    def recording(F, name, action=None):
        seen.append((F, action))
        return real(F, name, action=action)

    monkeypatch.setattr(pipeline, "classify_all", recording)
    res = pipeline.divisibility_pipeline("vdgz_quintic")
    stages = {s["stage"]: s for s in res.stages}
    ((H, action),) = seen
    assert len(H.terms) == 12 and H == catalog.XYZW.parse(VDGZ_QUINTIC_EIGEN)
    assert isinstance(action, ActionK)
    code, out, err = run_cli(capsys, "--json", "surface-report", "vdgz_quintic")
    assert code == 0
    rep = json.loads(out)
    quintic = stages["quintic_certification"]
    keys = ("verdict", "n_points", "tau_total")
    assert [quintic[k] for k in keys] == [rep[k] for k in keys] == ["all_A2", 15, 30]
    free = stages["action_invariant_and_free"]
    assert free["invariant"] is rep["invariant_under_action"] is True
    assert {k: free[k] for k in rep["free_action"]} == rep["free_action"]


def test_bench_tracer_targets_resolve():
    # perfbench/tracer.py wraps its targets by name; a deleted or renamed
    # target would break only a traced bench run, so install them here
    bench = os.path.join(os.path.dirname(SRC), "perfbench")
    code = "import tracer; print(len(tracer.install()))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, bench]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 0


# -- the process entry point (docs/DECISIONS.md D27) ----------------------


def run_entry(tmp_path, *argv, head=("-m", "cuspidal.cli")):
    """(exit code, stdout bytes, stderr text) of a fresh CLI process whose
    stdout is a file, as a shell redirection gives it."""
    out = tmp_path / "stdout"
    with open(out, "wb") as fh:
        proc = subprocess.run(
            [sys.executable, *head, *argv],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=fh,
            stderr=subprocess.PIPE,
            text=True,
        )
    return proc.returncode, out.read_bytes(), proc.stderr


def test_entry_path_prints_the_report_of_main(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--json", "surface-report", "new_quartic")
    assert code == 0
    assert run_entry(tmp_path, "--json", "surface-report", "new_quartic")[:2] == (
        0,
        out.encode(),
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("--json", "surface-report", "new_quartic", "--chart", "w"),
        ("--json", "surface-report", "nonsense"),
        ("--json", "surface-report", SRC),
    ],
    ids=["usage", "unknown_name", "directory"],
)
def test_entry_path_usage_error(tmp_path, argv):
    code, out, err = run_entry(tmp_path, *argv)
    assert (code, out) == (2, b"")
    assert err


def test_entry_path_certificate_failure_prints_whole_report(tmp_path):
    f = tmp_path / "planes.txt"
    f.write_text("x^2*y^2")
    code, out, err = run_entry(tmp_path, "--json", "surface-report", str(f))
    report = {
        "surface": "planes.txt",
        "pass": False,
        "error": "singular in codimension one (chart w, variable x)",
    }
    assert (code, out) == (1, (json.dumps(report, indent=2) + "\n").encode())


def test_console_script_is_the_main_block_entry():
    root = os.path.dirname(SRC)
    with open(os.path.join(root, "pyproject.toml")) as fh:
        scripts = fh.read().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    module, attr = re.search(r'^cuspidal = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    entry = getattr(importlib.import_module(module), attr)
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    main_block = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert len(main_block) == 1
    [stmt] = main_block[0].body
    assert ast.unparse(stmt) == "run()"
    assert entry is cli.run


def test_entry_path_under_profiler_prints_report_then_profile(tmp_path, capsys):
    # cProfile prints its table after the program returns: run() must not
    # end the process itself when a profiler is attached
    code, report, err = run_cli(capsys, "--json", "surface-report", "new_quartic")
    code, out, err = run_entry(
        tmp_path,
        "--json",
        "surface-report",
        "new_quartic",
        head=("-m", "cProfile", "-m", "cuspidal.cli"),
    )
    assert code == 0
    assert out.startswith(report.encode())
    table = out[len(report) :].decode()
    assert re.search(r"\d+ function calls", table)
    assert "Ordered by" in table


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_entry_path_broken_pipe_fails_at_exit(tmp_path, unbuffered):
    # a report into a pipe nobody reads fails at exit with 120, as the
    # interpreter does when its final flush fails: buffered, the flush in
    # run() meets the closed pipe; unbuffered, the print inside main() does
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    f = tmp_path / "planes.txt"
    f.write_text("x^2*y^2")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cuspidal.cli", "surface-report", str(f)],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert "BrokenPipeError" in proc.stderr
    assert ("Exception ignored" in proc.stderr) is not unbuffered
    assert "Traceback" not in proc.stderr


class _Exited(Exception):
    pass


@pytest.fixture
def exit_calls(monkeypatch):
    """The codes run() passes to os._exit, which here raises instead of
    ending the test process."""
    calls = []

    def fake_exit(code):
        calls.append(code)
        raise _Exited(code)

    monkeypatch.setattr(os, "_exit", fake_exit)
    monkeypatch.setattr(sys, "argv", ["cuspidal", "--json", "surface-report", "nonsense"])
    return calls


def test_run_ends_the_process_with_the_code_of_main(exit_calls, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_observed", lambda: False)
    with pytest.raises(_Exited):
        cli.run()
    assert exit_calls == [2]
    assert json.loads(capsys.readouterr().err)["error"].startswith("unknown surface")


def test_run_exits_normally_under_a_tracer(exit_calls):
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: None)
    try:
        assert cli._observed()
        with pytest.raises(SystemExit) as ev:
            cli.run()
    finally:
        sys.settrace(previous)
    assert ev.value.code == 2
    assert exit_calls == []

