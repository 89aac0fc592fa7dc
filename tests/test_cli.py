"""Command-line interface: input validation, reports, exit codes."""

import glob
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import wcilinks
import wcilinks.links
import wcilinks.qpoly
import wcilinks.singular
from wcilinks.cli import CliError, build_report, emit, load_input, main

MAIN_F1 = ("w*x + y^6 + y^4*t + y^2*t^2 + t^3 + y*z*v + z^4"
           " + z^2*y*(y^2 + t) + x^12")
MAIN_F2 = "w*z + v^2 + y*(y^6 + 2*t^3) + x^14 + x^2*z^4"

MEMBER_DOC = {
    "ambient": {"weights": [1, 2, 3, 4, 7, 11],
                "vars": ["x", "y", "z", "t", "v", "w"]},
    "degrees": [12, 14],
    "member": "explicit",
    "equations": [MAIN_F1, MAIN_F2],
    "field": {"Fp": 2147483647},
    "seed": 0,
}

# the same member with the y*z*v coupling removed: lambda = 0, the
# one-link branch
LAM0_F1 = ("w*x + y^6 + y^4*t + y^2*t^2 + t^3 + z^4"
           " + z^2*y*(y^2 + t) + x^12")

LAM0_DOC = dict(MEMBER_DOC, equations=[LAM0_F1, MAIN_F2])

# the degree-7 model of the member above, in its own coordinates and in
# the coordinates used for the exclusion blowups (z and x swapped in for
# u and z, w for v)
HAT_F = ("u^7 + y^7 + u^6*z + y^6*z + u*y^3*z^3 + u^3*z^4 + u^2*z^5"
         " + y^4*z*t + u*y*z^3*t + y^2*z*t^2 + u*y*z^2*v + 2*y*t^3"
         " + z*t^3 + u*v^2")
COND_F = ("y^7 + z^7 + y^6*x + z^6*x + y*z^3*x^3 + y^3*x^4 + y^2*x^5"
          " + z^4*x*t + y*z*x^3*t + z^2*x*t^2 + y*z*x^2*w + 2*z*t^3"
          " + x*t^3 + y*w^2")

HAT_DOC = {
    "ambient": {"weights": [1, 1, 1, 2, 3],
                "vars": ["u", "y", "z", "t", "v"]},
    "degrees": [7],
    "member": "explicit",
    "equations": [HAT_F],
}

COND_DOC = {
    "ambient": {"weights": [1, 1, 1, 2, 3],
                "vars": ["y", "z", "x", "t", "w"]},
    "degrees": [7],
    "member": "explicit",
    "equations": [COND_F],
}

# a member without the w*x monomial, rejected by the normal form
SPECIAL_DOC = {
    "ambient": {"weights": [1, 2, 3, 4, 7, 11],
                "vars": ["x", "y", "z", "t", "v", "w"]},
    "member": "explicit",
    "equations": ["y^6 + y^4*t + t^3 + y*z*v + z^4 + x^12",
                  "w*z + v^2 + y^7 + x^14"],
}


# the first 16 hex digits of sha256(stdout), frozen: a change that must
# keep the reports byte-identical keeps these
FROZEN_REPORTS = {
    "verify-7": (["verify-paper", "--seed", "7"], 0, "e5b8dc2a29408c8b"),
    "verify-7-text": (["verify-paper", "--seed", "7", "--format", "text"], 0,
                      "be88b71825c89019"),
    "verify-462-rejected": (
        ["verify-paper", "--seed", "462", "--samples", "10"], 2,
        "bdc0dbe03325d772"),
    "classify-7": (["classify", "--random", "7", "--samples", "5"], 0,
                   "4b10b5471419b97d"),
    "link-7": (["link", "--random", "7", "--samples", "5"], 0,
               "097a2b78487874c1"),
    # the model's rank-deficient z-point and the residual coordinates of
    # its t- and v-points
    "analyze-hat": (["analyze", "HAT"], 0, "a1c7fbe5d1e31f58"),
    "qsmooth-member": (["qsmooth", "MEMBER", "--samples", "60"], 0,
                       "27bf3259f40507e4"),
    "qsmooth-member-parallel": (
        ["qsmooth", "MEMBER", "--samples", "60", "--parallel", "2"], 0,
        "27bf3259f40507e4"),
    "classify-lam0": (["classify", "LAM0", "--samples", "5"], 0,
                      "8eb647086789df86"),
    "verify-lam0": (["verify-paper", "LAM0", "--samples", "5"], 0,
                    "82b4d8d033f6f62e"),
    "blowup-cond": (["blowup", "COND", "--center", "x",
                     "--weights", "y=4,z=1,t=2,w=1"], 0,
                    "b3e8ce31e03affb2"),
    "blowup-member": (["blowup", "MEMBER", "--center", "w",
                       "--weights", "x=6,y=1,z=7,t=2,v=9"], 0,
                      "dc8f11579bf24ef6"),
    "two-ray-cond": (["two-ray", "COND", "--center", "x",
                      "--weights", "y=4,z=1,t=2,w=1"], 0,
                     "14a841cd6648b2dd"),
    "two-ray-member": (["two-ray", "MEMBER", "--center", "w",
                        "--weights", "x=6,y=1,z=7,t=2,v=9"], 0,
                       "faf63046c6612060"),
}


def _write(tmp_path_factory, name, doc):
    path = tmp_path_factory.mktemp("cli") / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def member_path(tmp_path_factory):
    return _write(tmp_path_factory, "member.json", MEMBER_DOC)


@pytest.fixture(scope="module")
def lam0_path(tmp_path_factory):
    return _write(tmp_path_factory, "lam0.json", LAM0_DOC)


@pytest.fixture(scope="module")
def hat_path(tmp_path_factory):
    return _write(tmp_path_factory, "hat.json", HAT_DOC)


@pytest.fixture(scope="module")
def cond_path(tmp_path_factory):
    return _write(tmp_path_factory, "cond.json", COND_DOC)


@pytest.fixture(scope="module")
def special_path(tmp_path_factory):
    return _write(tmp_path_factory, "special.json", SPECIAL_DOC)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return json.loads(out)


def step(report, name):
    found = [s for s in report["steps"] if s.get("name") == name]
    assert found, f"no step named {name}"
    return found[0]


class TestInputValidation:
    def test_full_document(self):
        spec = load_input(MEMBER_DOC)
        assert spec.wps.weights == (1, 2, 3, 4, 7, 11)
        assert len(spec.equations) == 2
        assert spec.degrees == (12, 14)
        assert spec.field.p == 2147483647
        assert spec.member == "explicit"

    def test_random_member_document(self):
        doc = {"ambient": MEMBER_DOC["ambient"], "member": "random",
               "seed": 5}
        spec = load_input(doc)
        assert spec.equations is not None
        assert spec.degrees == (12, 14)

    def test_rational_field_document(self):
        doc = dict(MEMBER_DOC, field="Q")
        spec = load_input(doc)
        assert not hasattr(spec.field, "p")

    @pytest.mark.parametrize("mangle", [
        lambda d: "not an object",
        lambda d: {k: v for k, v in d.items() if k != "ambient"},
        lambda d: dict(d, ambient={"weights": [1, 2], "vars": ["x", "x"]}),
        lambda d: dict(d, ambient={"weights": [1, -2],
                                   "vars": ["x", "y"]}),
        lambda d: dict(d, field="R"),
        lambda d: dict(d, field={"Fp": 7, "extra": 1}),
        lambda d: dict(d, seed="zero"),
        lambda d: dict(d, degrees=[12]),
        lambda d: dict(d, degrees=[12, 15]),
        lambda d: dict(d, equations=["w*x +"]),
        lambda d: dict(d, member="fancy"),
        lambda d: dict(d, member="random",
                       ambient={"weights": [1, 1], "vars": ["x", "y"]}),
        lambda d: dict(d, field={"Fp": 2}),
        lambda d: dict(d, field={"Fp": 9}),
        lambda d: dict(d, field={"Fp": 13}),  # below the degree 14
        # the parser refuses before it expands: too many terms, too
        # large an exponent
        lambda d: dict(d, equations=["(x+2*y)^3000", MAIN_F2]),
        lambda d: dict(d, equations=["2^100000000", MAIN_F2]),
        # a JSON boolean is no integer, though Python's bool is an int
        lambda d: dict(d, member="random",
                       ambient=dict(d["ambient"],
                                    weights=[True, 2, 3, 4, 7, 11])),
        lambda d: dict(d, member="random", seed=True),
        lambda d: dict(d, degrees=[True, 14]),
        # without stated degrees, each equation must still be
        # quasi-homogeneous
        lambda d: dict({k: v for k, v in d.items() if k != "degrees"},
                       equations=["x^12+y^6 + w*x",
                                  "z^4 + x^2*y^3 + v*x"]),
    ])
    def test_rejected_documents(self, mangle):
        with pytest.raises(CliError):
            load_input(mangle(dict(MEMBER_DOC)))


class TestEmit:
    def test_empty_report_shape(self):
        text = emit(build_report("noop", []))
        assert '"steps": []' in text
        assert json.loads(text)["schema"] == 1

    def test_round_trip_lossless(self):
        report = build_report("demo", [{"name": "s", "value": "1/11"}],
                              assumptions=["[A]"])
        assert json.loads(emit(report)) == report

    def test_text_format(self):
        report = build_report("demo", [{"name": "s", "value": 3,
                                        "inner": {"k": [1, 2]}}])
        text = emit(report, "text")
        assert text.startswith("demo: ok")
        assert "== s ==" in text
        assert "value: 3" in text


class TestAnalyze:
    def test_census_contains_eleventh_point(self, member_path, capsys):
        report = run_json(["analyze", member_path], capsys)
        amb = step(report, "ambient")
        assert amb["fano_index"] == 2
        assert amb["amplitude"] == "1/11"
        points = {p["point"]: p for p in step(report, "census")["points"]}
        assert points["w"]["type"] == "1/11(1,2,9)"
        assert points["w"]["terminal"] is True
        assert not points["x"]["on_variety"]

    def test_random_flag(self, capsys):
        report = run_json(["analyze", "--random", "11"], capsys)
        points = {p["point"]: p for p in step(report, "census")["points"]}
        assert points["w"]["type"] == "1/11(1,2,9)"


class TestQsmooth:
    def test_model_verdicts(self, hat_path, capsys):
        report = run_json(["qsmooth", hat_path, "--samples", "10"], capsys)
        assert step(report, "coordinate-points")["non_quasismooth"] == ["z"]
        sampled = step(report, "sampled")
        assert sampled["samples"] == 10
        assert sampled["all_quasismooth"] is True

    def test_random_member_samples_over_fp(self, capsys):
        report = run_json(["qsmooth", "--random", "7", "--samples", "10"],
                          capsys)
        sampled = step(report, "sampled")
        assert sampled["field"] == "F_2147483647"
        assert sampled["all_quasismooth"] is True

    def test_one_jacobian_for_all_batches(self, member_path, capsys,
                                          monkeypatch):
        # 60 points are three batches of 25, 25 and 10, on one sampler,
        # which derives each Jacobian column it reads once: w and v,
        # one partial derivative per equation, are enough at every point
        derived = []
        derivative = wcilinks.qpoly.QPolynomial.derivative

        def counted(f, name):
            derived.append(name)
            return derivative(f, name)

        monkeypatch.setattr(wcilinks.qpoly.QPolynomial, "derivative",
                            counted)
        report = run_json(["qsmooth", member_path, "--samples", "60"], capsys)
        assert step(report, "sampled")["quasismooth_samples"] == 60
        assert derived == ["w", "w", "v", "v"]

    @pytest.mark.parametrize("cpus, pools", [(3, [3]), (None, [])])
    def test_parallel_is_capped_at_the_cpu_count(self, member_path, capsys,
                                                 monkeypatch, cpus, pools):
        # the pool starts all its workers at once, so --parallel 1000
        # asks for one per CPU at most; the fake pool starts no process
        import concurrent.futures

        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        argv = ["qsmooth", member_path, "--samples", "200"]
        serial = run_cli(argv, capsys)
        fanned = run_cli(argv + ["--parallel", "1000"], capsys)
        assert started == pools
        assert fanned == serial

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(HAT_DOC)))
        report = run_json(["qsmooth", "-", "--samples", "2"], capsys)
        assert step(report, "sampled")["all_quasismooth"] is True


class TestBlowup:
    def test_smooth_point_weights_4121(self, cond_path, capsys):
        report = run_json(
            ["blowup", cond_path, "--center", "x",
             "--weights", "y=4,z=1,t=2,w=1"], capsys)
        rec = step(report, "blowup")
        assert rec["discrepancy"] == "1"
        assert rec["orders"] == ["6"]
        assert rec["chart_agreement"] is True

    def test_eleventh_point_kawamata(self, member_path, capsys):
        report = run_json(
            ["blowup", member_path, "--center", "w",
             "--weights", "x=6,y=1,z=7,t=2,v=9"], capsys)
        rec = step(report, "blowup")
        assert rec["discrepancy"] == "1/11"
        assert rec["orders"] == ["6/11", "7/11"]
        assert rec["chart_agreement"] is True


class TestTwoRay:
    def test_exclusion_game_cones(self, cond_path, capsys):
        report = run_json(
            ["two-ray", cond_path, "--center", "x",
             "--weights", "y=4,z=1,t=2,w=1"], capsys)
        assert step(report, "game")["end"]["kind"] == "divisorial"
        cones = step(report, "cones")
        assert cones["movable_cone"] == [[1, 0], [1, 1]]
        assert cones["anticanonical"] == [1, 1]
        assert cones["anticanonical_position"] == "boundary"


class TestLink:
    def test_degree_seven_model(self, member_path, capsys):
        report = run_json(["link", member_path], capsys)
        model = step(report, "model")
        assert model["target"] == "X_7 in P(1,1,1,2,3)"
        assert model["verdict"] == "ElementaryLink"
        assert "u*v^2" in model["equation"]
        assert model["lambda"] == "1"
        assert step(report, "extraction")["discrepancy"] == "1/11"
        assert step(report, "census")["singular_points"] == {
            "w": "1/11(1,2,9)"}


class TestClassify:
    def test_full_classification(self, member_path, capsys):
        report = run_json(["classify", member_path, "--samples", "10"],
                          capsys)
        assert report["assumptions"] == [
            "[DG23 Cor 7.2, 7.11]",
            "[OkSolid Lem 4.5, 4.9]",
            "[OkII Lem 2.9]",
            "[OkSolid Prop 3.16]",
        ]
        summary = step(report, "summary")
        assert summary["solid"] is True
        assert summary["elementary_links_from_model"] == 2
        germ = step(report, "germ-table")
        assert germ["low_discrepancy_count"] == 4
        assert len(germ["divisor_links"]) == 4

    def test_samples_are_honoured(self, capsys):
        # --samples sets the involution check as given, above the
        # default of 40 too
        report = run_json(["classify", "--random", "7", "--samples", "41"],
                          capsys)
        summary = step(report, "summary")
        assert summary["involution_samples"] == 41
        assert summary["involution_passed"] == 41


class TestVerify:
    def test_seeded_battery_passes(self, capsys):
        code, out, err = run_cli(
            ["verify-paper", "--seed", "7", "--samples", "10"], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["result"] == "all checks passed"
        assert report["status"] == "ok"
        assert all(s["passed"] for s in report["steps"])

    def test_text_format_ends_with_verdict(self, capsys):
        code, out, err = run_cli(
            ["verify-paper", "--seed", "7", "--samples", "5",
             "--format", "text"], capsys)
        assert code == 0
        assert out.rstrip().endswith("all checks passed")
        assert "[PASS] census" in out

    def test_rejection_keeps_the_passed_steps(self, capsys):
        # seed 462 fails the compound E6 gate in the census of the model
        code, out, err = run_cli(
            ["verify-paper", "--seed", "462", "--samples", "10"], capsys)
        assert code == 2
        report = json.loads(out)
        assert [s["name"] for s in report["steps"]] == [
            "normal-form", "census", "extraction-discrepancy", "link-sigma",
            "model-equation", "rejected"]
        assert [s["passed"] for s in report["steps"]] == [True] * 5 + [False]

    def test_special_member_rejected(self, special_path, capsys):
        code, out, err = run_cli(["verify-paper", special_path], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "rejected"
        assert report["result"] == "checks failed"

    def test_one_sampled_involution_check(self, capsys, monkeypatch):
        # --samples sets the pipeline's own involution check, which is
        # the only one
        calls = []
        inner = wcilinks.links.verify_involution

        def counted(*args, **kwargs):
            out = inner(*args, **kwargs)
            calls.append(out.samples)
            return out

        monkeypatch.setattr(wcilinks.links, "verify_involution", counted)
        report = run_json(["verify-paper", "--seed", "7", "--samples", "30"],
                          capsys)
        assert calls == [30]
        assert step(report, "involution-sampled")["detail"] == (
            "30/30 sampled points verified")


class TestDeterminism:
    def test_classify_byte_identical(self, member_path, capsys):
        first = run_cli(["classify", member_path, "--samples", "5"],
                        capsys)
        second = run_cli(["classify", member_path, "--samples", "5"],
                         capsys)
        assert first == second

    def test_parallel_matches_serial(self, member_path, capsys):
        serial = run_cli(["qsmooth", member_path, "--samples", "60"],
                         capsys)
        fanned = run_cli(["qsmooth", member_path, "--samples", "60",
                          "--parallel", "2"], capsys)
        assert serial == fanned

    @pytest.mark.parametrize("argv, code, digest",
                             list(FROZEN_REPORTS.values()),
                             ids=list(FROZEN_REPORTS))
    def test_frozen_report_bytes(self, argv, code, digest, member_path,
                                 lam0_path, hat_path, cond_path, capsys):
        paths = {"MEMBER": member_path, "LAM0": lam0_path, "HAT": hat_path,
                 "COND": cond_path}
        argv = [paths.get(a, a) for a in argv]
        got, out, err = run_cli(argv, capsys)
        assert got == code, err
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_frozen_reports_ignore_term_order(self, member_path, lam0_path,
                                              hat_path, cond_path, capsys,
                                              monkeypatch):
        # term order is no part of the output: with every term dict of
        # the kernel in a seeded random order, the frozen reports keep
        # their bytes
        rng = random.Random(14)
        shuffled = []

        def shuffle(terms):
            items = list(terms.items())
            rng.shuffle(items)
            shuffled.append(len(items) > 1)
            return dict(items)

        poly = wcilinks.qpoly._poly
        init = wcilinks.qpoly.QPolynomial.__init__

        def shuffled_poly(ambient, terms):
            return poly(ambient, shuffle(terms))

        def shuffled_init(self, ambient, terms):
            init(self, ambient, terms)
            self.terms = shuffle(self.terms)

        monkeypatch.setattr(wcilinks.qpoly, "_poly", shuffled_poly)
        monkeypatch.setattr(wcilinks.qpoly.QPolynomial, "__init__",
                            shuffled_init)
        paths = {"MEMBER": member_path, "LAM0": lam0_path, "HAT": hat_path,
                 "COND": cond_path}
        for name, (argv, code, digest) in FROZEN_REPORTS.items():
            if "--parallel" in argv:
                continue
            got, out, err = run_cli([paths.get(a, a) for a in argv], capsys)
            assert got == code, (name, err)
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, (
                name)
        assert sum(shuffled) > 1000

    @pytest.mark.parametrize("minor", [m for m in (10, 11, 12, 13)
                                       if m != sys.version_info.minor])
    def test_frozen_report_bytes_across_versions(self, minor, hat_path):
        # the same bytes under every other CPython the package supports
        exe = _interpreter(minor)
        if exe is None:
            pytest.skip(f"no python3.{minor} installed")
        src = os.path.dirname(os.path.dirname(wcilinks.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for name in ("verify-7", "verify-462-rejected", "link-7",
                     "analyze-hat"):
            argv, code, digest = FROZEN_REPORTS[name]
            argv = [hat_path if a == "HAT" else a for a in argv]
            done = subprocess.run([exe, "-m", "wcilinks.cli", *argv],
                                  env=env, capture_output=True, timeout=120)
            assert done.returncode == code, done.stderr
            assert hashlib.sha256(done.stdout).hexdigest()[:16] == digest


def _interpreter(minor):
    """A working python3.<minor>: the one on PATH, else one pyenv installed.

    A pyenv shim on PATH refuses a version other than the selected one,
    so the versions pyenv installed are tried by their own paths.
    """
    candidates = [shutil.which(f"python3.{minor}")]
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        root = subprocess.run([pyenv, "root"], capture_output=True,
                              text=True, timeout=60).stdout.strip()
        candidates += sorted(glob.glob(os.path.join(
            root, "versions", f"3.{minor}.*", "bin", f"python3.{minor}")))
    check = f"import sys; sys.exit(sys.version_info[:2] != (3, {minor}))"
    for exe in candidates:
        if exe is not None and subprocess.run(
                [exe, "-c", check], capture_output=True,
                timeout=60).returncode == 0:
            return exe
    return None


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(["analyze", "/no/such/file.json"], capsys)
        assert code == 1
        assert "error" in err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(["analyze", str(bad)], capsys)
        assert code == 1

    def test_missing_center_flag(self, cond_path, capsys):
        code, _, err = run_cli(["blowup", cond_path], capsys)
        assert code == 1
        assert "--center" in err

    def test_bad_weights_flag(self, cond_path, capsys):
        code, _, err = run_cli(
            ["blowup", cond_path, "--center", "x", "--weights", "y=4"],
            capsys)
        assert code == 1

    def test_coordinate_named_like_the_exceptional_one(self, hat_path,
                                                       capsys):
        # the blowup ambient names its exceptional coordinate u
        code, _, err = run_cli(
            ["two-ray", hat_path, "--center", "z", "--weights",
             "u=3,y=1,t=2,v=2"], capsys)
        assert code == 1
        assert "'u' already in use" in err

    @pytest.mark.parametrize("command", ["blowup", "two-ray"])
    def test_repeated_weight_name(self, command, capsys):
        code, _, err = run_cli(
            [command, "--random", "7", "--center", "x", "--weights",
             "y=4,z=1,t=2,v=1,w=1,y=9"], capsys)
        assert code == 1
        assert "blowup weight 'y' given twice" in err

    def test_qsmooth_needs_an_equation(self, tmp_path, capsys):
        doc = tmp_path / "empty.json"
        doc.write_text(json.dumps(dict(COND_DOC, degrees=[], equations=[])),
                       encoding="utf-8")
        code, _, err = run_cli(["qsmooth", str(doc)], capsys)
        assert code == 1
        assert "qsmooth needs at least one equation" in err
        # the blowup commands still take the empty list
        for cmd in ("blowup", "two-ray"):
            code, _, err = run_cli([cmd, str(doc), "--center", "x",
                                    "--weights", "y=4,z=1,t=2,w=1"], capsys)
            assert code == 0, err

    def test_certificate_failure(self, special_path, capsys):
        code, _, err = run_cli(["link", special_path], capsys)
        assert code == 2
        assert "member rejected" in err

    def test_failed_identity_is_an_internal_inconsistency(
            self, member_path, capsys, monkeypatch):
        # the cE6 chart re-embedding is checked by a raise, not an assert,
        # so it also holds under python -O
        real = wcilinks.singular.substitute

        def off_by_one(f, mapping, target=None):
            image = real(f, mapping, target)
            return image + 1 if set(mapping) == {"s"} else image

        monkeypatch.setattr(wcilinks.singular, "substitute", off_by_one)
        code, _, err = run_cli(["classify", member_path, "--samples", "5"],
                               capsys)
        assert code == 3
        assert "eliminating s does not recover the cE6 chart" in err
        # verify-paper reports the passed steps, then one inconsistency
        code, out, _ = run_cli(["verify-paper", member_path, "--samples",
                                "5"], capsys)
        assert code == 3
        report = json.loads(out)
        assert report["status"] == "failed"
        assert [s["name"] for s in report["steps"]] == [
            "normal-form", "census", "extraction-discrepancy", "link-sigma",
            "model-equation", "inconsistency"]
        assert [s["passed"] for s in report["steps"]] == [True] * 5 + [False]
        assert "does not recover the cE6 chart" in (
            report["steps"][-1]["detail"])

    def test_second_singular_point_is_an_internal_inconsistency(
            self, member_path, capsys, monkeypatch):
        # the census of a normal form has one singular point, so a second
        # one is a fault of the program, not of the member
        real = wcilinks.links.classify_quotient_singularity

        def second_quotient(equations, wps, point):
            if len(equations) == 2 and point == "t":
                w = real(equations, wps, "w")
                return wcilinks.singular.SingularityReport(
                    "t", True, True, w.rank, w.eliminated, w.quotient)
            return real(equations, wps, point)

        monkeypatch.setattr(wcilinks.links, "classify_quotient_singularity",
                            second_quotient)
        code, _, err = run_cli(["classify", member_path, "--samples", "5"],
                               capsys)
        assert code == 3
        assert "internal inconsistency: expected the weight-11" in err

    def test_seed_with_random_refused(self, member_path, capsys):
        # verify-paper's --seed picks the member, as --random does, so
        # the pair is refused rather than one of them dropped; --random
        # with an input file is refused the same way
        for argv in (["verify-paper", "--random", "7", "--seed", "3"],
                     ["verify-paper", "--random", "7", "--seed", "0"],
                     ["verify-paper", member_path, "--random", "7"]):
            code, out, err = run_cli(argv, capsys)
            assert code == 1
            assert out == ""
            assert "not both" in err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--format", "yaml"],
        # flags a subcommand does not read are not registered on it
        ["analyze", "--random", "7", "--parallel", "2"],
        ["analyze", "--random", "7", "--field", "q"],
        ["blowup", "--random", "7", "--center", "w",
         "--weights", "x=6,y=1,z=7,t=2,v=9", "--field", "fp"],
        ["two-ray", "--random", "7", "--center", "w",
         "--weights", "x=6,y=1,z=7,t=2,v=9", "--field", "q"],
        ["two-ray", "--random", "7", "--center", "w",
         "--weights", "x=6,y=1,z=7,t=2,v=9", "--seed", "3"],
        ["verify-paper", "--seed", "2", "--parallel", "2"],
        ["classify", "--random", "7", "--trials", "-3"],
        ["verify-paper", "--seed", "7", "--trials", "0"],
        # a sample count must be positive: none is no evidence
        ["classify", "--random", "7", "--samples", "-5"],
        ["link", "--random", "7", "--samples", "-2"],
        ["qsmooth", "--random", "7", "--samples", "0"],
        ["verify-paper", "--seed", "7", "--samples", "0"],
        # and so must a process count
        ["qsmooth", "--random", "7", "--parallel", "-2"],
        # the center's weight fixes the quotient order of the chart
        ["blowup", "--random", "7", "--center", "w",
         "--weights", "x=6,y=1,z=7,t=2,v=9", "--den", "11"],
    ], ids=["format-yaml", "analyze-parallel", "analyze-field",
            "blowup-field", "two-ray-field", "two-ray-seed",
            "verify-paper-parallel", "classify-trials-negative",
            "verify-paper-trials-zero", "classify-samples-negative",
            "link-samples-negative", "qsmooth-samples-zero",
            "verify-paper-samples-zero", "qsmooth-parallel-negative",
            "blowup-den"])
    def test_invalid_flag_value(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1


class TestRuntimeImports:
    def test_no_sympy_at_runtime(self):
        # a fresh interpreter: this test process imports sympy itself
        src = os.path.dirname(os.path.dirname(wcilinks.__file__))
        script = (
            "import contextlib, io, sys\n"
            "from wcilinks.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify-paper', '--seed', '7']) == 0\n"
            "    assert main(['classify', '--random', '7']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('sympy', 'mpmath')))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
