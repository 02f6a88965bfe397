"""Command line interface: JSON Lines output, exit codes, file artifacts.

Most checks drive cli.main() in process; one subprocess test covers the
installed console script end to end.
"""

import hashlib
import json
import math
import shutil
import subprocess

import pytest

from bakerlab import cli, hyperbolic
from bakerlab.hfun import eval_h, probe_point
from bakerlab.params import make_toy, params_to_json

from _oracles import reduce_angle_ref


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    lines = [json.loads(ln) for ln in out.out.splitlines() if ln.strip()]
    return code, lines, out.err


def exits_2(capsys, *argv):
    """Run cli.main on argv, check the exit-2 contract and return the error
    message: exit 2, nothing on stdout and one stderr line with `error: `.
    A configuration error returns 2 and that line is all of stderr, starting
    `error: `; a usage error raises SystemExit(2) from argparse, whose usage
    lines come first and whose line reads `bakerlab <command>: error: `.  A
    numpy warning, which a run would print to stderr too, fails the suite
    by itself (pyproject's filterwarnings)."""
    try:
        code, usage = cli.main(list(argv)), False
    except SystemExit as exc:
        code, usage = exc.code, True
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert err.endswith("\n") and sum("error: " in ln for ln in lines) == 1
    if usage:
        head, _, msg = lines[-1].partition(": error: ")
        assert lines[0].startswith("usage: bakerlab")
        assert head.startswith("bakerlab")
        return msg
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0][len("error: "):]


def test_params_show(capsys):
    code, lines, _ = run_cli(capsys, "params", "--profile", "doubling")
    assert code == 0
    assert lines[0]["K"] == 4
    assert lines[0]["r"] == [2.0, 4.0, 8.0, 16.0]


def test_params_validate_exit_codes(capsys):
    code, lines, _ = run_cli(capsys, "params", "--profile", "paper2",
                             "--validate")
    assert code == 0
    assert lines[-1] == {"kind": "verdict", "ok": True}
    code, lines, _ = run_cli(capsys, "params", "--profile", "doubling",
                             "--validate")
    assert code == 1
    assert lines[-1]["ok"] is False
    clause_kinds = {ln["kind"] for ln in lines[:-1]}
    assert clause_kinds == {"clause"}


def test_params_from_file(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(params_to_json(make_toy("steep")))
    code, lines, _ = run_cli(capsys, "params", "--params", str(path))
    assert code == 0
    assert lines[0]["n"] == [2, 8, 64, 512]


def test_params_file_missing_is_config_error(capsys):
    assert exits_2(capsys, "params", "--params", "/nope/missing.json") == (
        "[Errno 2] No such file or directory: '/nope/missing.json'")


def test_eval_h_and_f(capsys):
    code, lines, _ = run_cli(capsys, "eval", "--profile", "doubling",
                             "--z", "1,0")
    assert code == 0
    assert lines[0]["value"]["re"] == pytest.approx(1.2548828872968443)
    code, lines, _ = run_cli(capsys, "eval", "--profile", "doubling",
                             "--z", "0,2", "--what", "f")
    assert lines[0]["value"] == {"re": 1.0, "im": 2.0}
    code, lines, _ = run_cli(capsys, "eval", "--profile", "doubling",
                             "--z", "0,2", "--what", "h")
    assert (code, lines[0]["value"]) == (0, {"zero": True})


def test_eval_escaped_encodes_log_polar(capsys):
    # |z| >= 2 r_K = 32: no tail bound is claimed
    code, lines, _ = run_cli(capsys, "eval", "--profile", "doubling",
                             "--z", "40,0", "--what", "f")
    assert code == 0
    val = lines[0]["value"]
    assert set(val) == {"logmod", "arg"}
    assert lines[0]["trunc_bound"] == "inf"  # JSON-safe non-finite encoding


def test_eval_f_reduces_a_huge_angle(capsys):
    # z = rect(3e4, 0.2): Im h = -1.8e104, whose ulp is about 2^294, so
    # arg e^h = Im h mod 2 pi is unknown: f and the orbit's tail say null
    z = complex(29401.997335237247, 5960.079923851837)
    zarg = f"{z.real!r},{z.imag!r}"
    assert abs(eval_h(z, make_toy("doubling")).value.imag) > 1e104
    for argv in (["eval", "--what", "f"], ["orbit"]):
        code = cli.main(argv + ["--profile", "doubling", "--z", zarg])
        out = capsys.readouterr().out
        assert code == 0 and "nan" not in out
        last = json.loads(out.splitlines()[-1])
        val = last["value"] if argv[0] == "eval" else last["tail"]
        assert val["arg"] is None and val["logmod"] > 1e104


def test_eval_f_reduces_an_angle_below_2_53(capsys):
    # z = 20 + 0.5i: Re h = 2.6e9 > 700 puts f in log-polar form, and
    # arg e^h = Im h mod 2 pi with Im h = 2.4e9
    z = 20.0 + 0.5j
    code, lines, _ = run_cli(capsys, "eval", "--profile", "doubling",
                             "--z", "20,0.5", "--what", "f")
    assert code == 0
    im_h = eval_h(z, make_toy("doubling")).value.imag
    assert math.pi < abs(im_h) < 2.0 ** 53
    assert lines[0]["value"]["arg"] == pytest.approx(reduce_angle_ref(im_h),
                                                     abs=5e-16)


def test_eval_g(capsys):
    code, lines, _ = run_cli(capsys, "eval", "--profile", "doubling",
                             "--z", "1,0", "--what", "g")
    assert code == 0
    assert lines[0]["value"]["re"] == pytest.approx(0.71240485, abs=1e-6)


def test_eval_g_integrand_overflow_is_config_error(capsys):
    # 0,9: Re h falls below -709.78 on this segment while log|h| stays
    # small; 1e308,1e308: the nodes of the root panel overflow
    for z in ("0,9", "1e308,1e308"):
        assert exits_2(capsys, "eval", "--profile", "doubling", "--z", z,
                       "--what", "g").startswith("integrand overflow")


def test_eval_g_depth_limit_is_config_error(capsys):
    assert exits_2(capsys, "eval", "--profile", "doubling", "--z", "1,0",
                   "--what", "g", "--tol", "1e-300").startswith(
                       "quadrature depth limit")


@pytest.mark.parametrize("z, err_start", [
    ("-701000,0", "g = exp(-integral) overflows at z = (-701000.0, 0.0)"),
    ("-705000,0", "integrand overflow"),
], ids=["exp", "panel"])
def test_eval_g_overflow_is_config_error(capsys, tmp_path, z, err_start):
    # h(z) = 1 + z/1000: the integral of e^{-h} to -701000 is about -e^706.9,
    # finite, so g = exp(-integral) overflows; to -705000 a quadrature
    # panel's sum overflows itself
    path = tmp_path / "lin.json"
    path.write_text(json.dumps({"r": [1000.0], "n": [1]}))
    assert exits_2(capsys, "eval", "--params", str(path), f"--z={z}",
                   "--what", "g", "--tol", "1e305").startswith(err_start)


@pytest.mark.parametrize("n, err_start", [
    ([True, 2], "degree n_1=True is not an integer >= 1"),
    ([1, 1 << 53], "degree n_2=9007199254740992 is not below 2**53"),
    ([1, 2.5], "degree n_2=2.5 is not an integer >= 2"),
    (None, "malformed parameter file"),
], ids=["bool", "2**53", "float", "missing"])
@pytest.mark.parametrize("argv", [
    ["params"], ["eval", "--z", "1,0"],
    ["grid", "--rect=-1,-1,1,1", "--nx", "2", "--ny", "2"],
], ids=["params", "eval", "grid"])
def test_inadmissible_degrees_are_config_errors(capsys, tmp_path, argv, n,
                                                err_start):
    # n=None writes a file without the key
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"r": [2.0, 4.0]} if n is None
                               else {"r": [2.0, 4.0], "n": n}))
    extra = ["--out", str(tmp_path / "g.bkg")] if argv[0] == "grid" else []
    assert exits_2(capsys, *argv, "--params", str(path),
                   *extra).startswith(err_start)


def test_params_file_with_string_radii_is_config_error(capsys, tmp_path):
    # a JSON string r = "48" used to load as the radii (4.0, 8.0), exit 0
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"r": "48", "n": [1, 2]}))
    assert exits_2(capsys, "params", "--params", str(path)).startswith(
        "malformed parameter file")


@pytest.mark.parametrize("r, element", [
    (["4", "8e0"], "r_1='4'"),
    ([True, 8], "r_1=True"),
], ids=["string", "bool"])
def test_params_file_with_non_number_radius_is_config_error(
        capsys, tmp_path, r, element):
    # both used to load, as (4.0, 8.0) and (1.0, 8.0), with exit 0
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"r": r, "n": [1, 2]}))
    msg = exits_2(capsys, "params", "--params", str(path))
    assert msg.startswith("malformed parameter file")
    assert f"radius {element} is not a number" in msg


@pytest.mark.parametrize("check", ["2b", "2c"])
def test_overflowing_probe_radius_is_config_error(capsys, tmp_path, check):
    # s_2 = r_2 (1 + 1/n_2) is inf; the reports used to print NaN, exit 0
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"r": [1e308, 1.7e308], "n": [1, 2]}))
    assert "probe radii" in exits_2(capsys, "verify", "--check", check,
                                    "--k", "2", "--params", str(path))


def test_grid_rejects_zero_steps(capsys, tmp_path):
    gpath = tmp_path / "g.bkg"
    assert "max_steps" in exits_2(capsys, "grid", "--profile", "doubling",
                                  "--rect=-1,-1,1,1", "--nx", "2", "--ny",
                                  "2", "--steps", "0", "--out", str(gpath))
    assert not gpath.exists()


# from 1.34e154 on R*R overflows and the test x*x + y*y > R*R never fires
@pytest.mark.parametrize("radius", ["1", "-5", "nan", "1e155", "inf"])
@pytest.mark.parametrize("command", ["grid", "orbit"])
def test_escape_radius_inside_last_ring_is_rejected(capsys, tmp_path, command,
                                                     radius):
    gpath = tmp_path / "g.bkg"
    argv = (["grid", "--rect=-1,-1,1,1", "--nx", "2", "--ny", "2",
             "--out", str(gpath)] if command == "grid"
            else ["orbit", "--z", "0,0"])
    assert "escape_radius" in exits_2(capsys, *argv, "--profile", "doubling",
                                      "--escape-radius", radius)
    assert not gpath.exists()


def test_bad_complex_is_usage_error(capsys):
    for argv, option in ((["eval", "--z", "one+two"], "--z"),
                         (["eval", "--what", "g", "--z=inf,0"], "--z"),
                         (["orbit", "--z=0,nan"], "--z"),
                         (["obstruct", "--k", "2", "--t", "0.3", "--c=nan,0"],
                          "--c")):
        assert exits_2(capsys, *argv, "--profile", "doubling").startswith(
            f"argument {option}: ")


def test_successive_calls_keep_their_outputs_and_exit_codes(capsys):
    # one parser serves every call in a process; a call that fails, in a
    # check, in its configuration or in its usage, leaves nothing behind
    assert cli.build_parser() is cli.build_parser()
    calls = [("params", "--profile", "doubling"),
             ("params", "--profile", "doubling", "--validate"),
             ("eval", "--profile", "steep", "--z", "0.5,0.25")]
    missing = ("params", "--params", "/nope/missing.json")
    first = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 1, 0]
    config_error = exits_2(capsys, *missing)
    exits_2(capsys, "eval", "--z", "one+two", "--profile", "doubling")
    assert [run_cli(capsys, *argv) for argv in reversed(calls)] == first[::-1]
    assert exits_2(capsys, *missing) == config_error


def test_profile_and_file_are_exclusive(capsys):
    assert exits_2(capsys, "params", "--profile", "doubling", "--params",
                   "x.json") == ("argument --params: not allowed with "
                                 "argument --profile")


def test_hyp_requires_seed(capsys):
    assert exits_2(capsys, "hyp", "--check", "lemma2", "--samples", "10") == (
        "the following arguments are required: --seed")


def test_hyp_seeded_and_reproducible(capsys):
    code1, lines1, _ = run_cli(capsys, "hyp", "--check", "schwarz",
                               "--samples", "50", "--seed", "7")
    code2, lines2, _ = run_cli(capsys, "hyp", "--check", "schwarz",
                               "--samples", "50", "--seed", "7")
    assert code1 == code2 == 0
    assert lines1 == lines2
    assert lines1[0]["failures"] == 0


def test_hyp_exits_1_when_a_check_fails(capsys, monkeypatch):
    true_distance = hyperbolic.disk_distance
    monkeypatch.setattr(hyperbolic, "disk_distance",
                        lambda a, b, d=hyperbolic.UNIT_DISK:
                        0.25 * true_distance(a, b, d))
    code, lines, _ = run_cli(capsys, "hyp", "--check", "lemma1",
                             "--seed", "0")
    assert code == 1
    assert lines[0]["failures"] > 0
    assert lines[0]["worst_gap"] > 0.0


def test_verify_2a_with_csv(capsys, tmp_path):
    csv_path = tmp_path / "ring.csv"
    code, lines, _ = run_cli(capsys, "verify", "--profile", "doubling",
                             "--check", "2a", "--k", "3",
                             "--samples", "128", "--csv", str(csv_path))
    assert code == 0
    assert lines[0]["passed"] is True
    assert "tail" in lines[0] and "samples" not in lines[0]
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "angle,log_abs_h,arg_h"
    assert len(rows) == 129


@pytest.mark.parametrize("check, keys, header", [
    ("2b", {"k", "samples", "max_rel_err"}, "t,rel_err"),
    ("2c", {"k", "probes", "min_ratio"}, "nu,re_h,logT,ratio"),
])
def test_verify_2b_2c_with_csv(capsys, tmp_path, check, keys, header):
    csv_path = tmp_path / "ring.csv"
    code, lines, _ = run_cli(capsys, "verify", "--profile", "doubling",
                             "--check", check, "--k", "2",
                             "--samples", "16", "--csv", str(csv_path))
    assert code == 0
    assert set(lines[0]) == {"kind", "check"} | keys
    assert csv_path.read_text().splitlines()[0] == header


@pytest.mark.parametrize("argv, err", [
    (["obstruct", "--profile", "paper2", "--k", "2", "--t", "1.0"],
     "t_k must lie in [0, 1)"),
    (["obstruct", "--profile", "paper2", "--k", "2", "--t", "0.1",
      "--K-bound", "0"], "K_bound must be positive and finite"),
    (["obstruct", "--profile", "paper2", "--k", "2", "--t", "0.1",
      "--K-bound", "inf"], "K_bound must be positive and finite"),
    (["orbit", "--profile", "doubling", "--z", "0,0", "--steps", "0"],
     "max_steps must be >= 1"),
    (["eval", "--profile", "doubling", "--z", "1,0", "--what", "g",
      "--tol", "nan"], "tol must be positive and finite"),
    # g(0) = 1 needs no quadrature, but its tolerance is checked all the same
    (["eval", "--profile", "doubling", "--z", "0,0", "--what", "g",
      "--tol", "nan"], "tol must be positive and finite"),
    (["eval", "--profile", "doubling", "--z", "0,0", "--what", "g",
      "--tol=-1"], "tol must be positive and finite"),
    # an infinite tol would accept the root panel unchecked
    (["eval", "--profile", "doubling", "--z", "1,0", "--what", "g",
      "--tol", "inf"], "tol must be positive and finite"),
], ids=["obstruct-t", "obstruct-K-bound", "obstruct-K-bound-inf",
        "orbit-steps", "eval-tol-nan", "eval-tol-nan-at-0",
        "eval-tol-negative-at-0", "eval-tol-inf"])
def test_out_of_range_options_are_config_errors(capsys, argv, err):
    assert exits_2(capsys, *argv) == err


def test_verify_2c_json(capsys):
    code, lines, _ = run_cli(capsys, "verify", "--profile", "steep",
                             "--check", "2c", "--k", "4", "--samples", "64")
    assert code == 0
    assert lines[0]["min_ratio"] > 1.0


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["hyp", "--check", "metric", "--seed", "1"],
    ["verify", "--profile", "doubling", "--check", "2a", "--k", "2"],
    ["verify", "--profile", "doubling", "--check", "2b", "--k", "2"],
    ["verify", "--profile", "doubling", "--check", "2c", "--k", "2"],
], ids=["hyp", "2a", "2b", "2c"])
def test_non_positive_samples_are_config_errors(capsys, argv, samples):
    assert exits_2(capsys, *argv, "--samples", samples) == (
        "samples must be >= 1")


def test_verify_bad_ring_is_config_error(capsys):
    assert exits_2(capsys, "verify", "--profile", "doubling", "--check", "2a",
                   "--k", "9") == ("k must be in [2, 4] (ring index with m_k "
                                   "defined)")


def test_obstruct_report(capsys):
    code, lines, _ = run_cli(capsys, "obstruct", "--profile", "paper2",
                             "--k", "2", "--t", "0.1", "--c", "5,0",
                             "--K-bound", "5")
    assert code == 0
    rep = lines[0]
    assert rep["nu"] == 284400000
    assert rep["link_flags"]["in_disk_a"] is True


# sha256 of the paper2 k=2 obstruct line at each --t; the link verdicts are
# only under link_flags, so the line holds no in_disk_a, in_disk_b,
# bound_3c_ok or rho_upper of its own
OBSTRUCT_DIGESTS = {
    "0.0": "2e93a49be09e654e16963c45ed0ced2f64f594786af25fd672088a4662b7e8cf",
    "0.1": "5d0e930f94cf462ac6da0d09b8063cb77d198d24e7a783c4886f3d0928023607",
    "0.37": "e6adece5d29352f1079bea7b1750c574b41914590a14f91b2e34eaa5d8c4dda5",
    "0.5": "df71c2e31b3e3c0b139af8c168f5726c98035c8014f5e5a5414f29694bf6bd8a",
    "0.999": "88a790654b9237f4880a7ee27b81df1c7f4918c3759bf92e2c038b9bdd1424d2",
}


@pytest.mark.parametrize("t", sorted(OBSTRUCT_DIGESTS))
def test_obstruct_line_states_each_verdict_once(capsys, t):
    code = cli.main(["obstruct", "--profile", "paper2", "--k", "2",
                     "--t", t])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    for key in ("in_disk_a", "in_disk_b", "bound_3c_ok", "rho_upper"):
        assert key not in rep
    assert hashlib.sha256(out.rstrip("\n").encode()).hexdigest() \
        == OBSTRUCT_DIGESTS[t]


@pytest.mark.parametrize("r_2", ["1e+160", "1e+250"])
def test_obstruct_overflow_is_config_error(capsys, tmp_path, r_2):
    # 1e160 printed "dist_b": "inf" with exit 0, 1e250 a bare errno tuple
    path = tmp_path / "p.json"
    path.write_text(f'{{"r": [1e150, {r_2}], "n": [1, {2**40}]}}')
    assert exits_2(capsys, "obstruct", "--params", str(path), "--k", "2",
                   "--t", "0.3") == (
        f"obstruction chain: dist_b overflows at r_k = {r_2}")


@pytest.mark.parametrize("profile", ["doubling", "paper2"])
def test_ring_index_rule_has_one_message(capsys, profile):
    # verify, obstruct and probe_point reject k outside [2, K] alike
    p = make_toy(profile)
    msg = f"k must be in [2, {p.K}] (ring index with m_k defined)"
    for k in (1, p.K + 1):
        with pytest.raises(ValueError) as exc:
            probe_point(k, 0, p)
        assert str(exc.value) == msg
        for argv in (["verify", "--check", "2a"], ["verify", "--check", "2b"],
                     ["verify", "--check", "2c"], ["obstruct", "--t", "0.1"]):
            assert exits_2(capsys, *argv, "--profile", profile,
                           "--k", str(k)) == msg


def test_orbit_lines(capsys):
    code, lines, _ = run_cli(capsys, "orbit", "--profile", "doubling",
                             "--z", "0,0", "--steps", "10")
    assert code == 0
    pts = [ln for ln in lines if ln["kind"] == "orbit-point"]
    assert len(pts) == 3
    assert lines[-1]["status"] == "escaped"
    assert lines[-1]["step"] == 3


def test_grid_render_pipeline(capsys, tmp_path):
    gpath = tmp_path / "g.bkg"
    ppath = tmp_path / "g.ppm"
    code, lines, _ = run_cli(capsys, "grid", "--profile", "doubling",
                             "--rect=-6,-6,6,6", "--nx", "32", "--ny", "32",
                             "--steps", "25", "--out", str(gpath))
    assert code == 0
    assert sum(lines[0]["counts"].values()) == 1024
    code, lines, _ = run_cli(capsys, "render", "escape", "--grid",
                             str(gpath), "--out", str(ppath))
    assert code == 0
    assert ppath.read_bytes().startswith(b"P6\n32 32\n255\n")


def test_render_phase_writes_ppm(capsys, tmp_path):
    out = tmp_path / "phase.ppm"
    code, lines, _ = run_cli(capsys, "render", "phase", "--profile",
                             "doubling", "--rect=-4,-4,4,4",
                             "--nx", "16", "--ny", "16", "--out", str(out))
    assert code == 0
    assert out.read_bytes().startswith(b"P6\n16 16\n255\n")


@pytest.mark.parametrize("argv, target", [
    (["grid"], "classify_grid"),
    (["render", "phase"], "render_phase"),
], ids=["grid", "phase"])
def test_out_of_memory_is_config_error(capsys, monkeypatch, tmp_path, argv,
                                       target):
    # a grid too large to allocate, without allocating it
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 931. GiB")

    monkeypatch.setattr(cli, target, no_memory)
    out = tmp_path / "out"
    assert exits_2(capsys, *argv, "--profile", "doubling", "--rect=-1,-1,1,1",
                   "--nx", "1000000", "--ny", "1000000", "--out",
                   str(out)) == "Unable to allocate 931. GiB"
    assert not out.exists()


@pytest.mark.parametrize("rect", ["-8,-8,8,inf", "-8,-8,8,nan",
                                  "-inf,-8,8,8", "-1e308,-8,1e308,8",
                                  "-8,1e308,8,1.5e308", "a,b,c,d",
                                  # corners that do not increase
                                  "8,-8,-8,8", "-8,8,8,-8"])
@pytest.mark.parametrize("command", ["grid", "phase"])
def test_rect_must_be_finite(capsys, tmp_path, command, rect):
    out = tmp_path / "out"
    argv = ["grid"] if command == "grid" else ["render", "phase"]
    assert exits_2(capsys, *argv, "--profile", "doubling", f"--rect={rect}",
                   "--nx", "4", "--ny", "4", "--out", str(out)).startswith(
                       "argument --rect: ")
    assert not out.exists()


def test_selftest_single_criterion(capsys):
    code, lines, _ = run_cli(capsys, "selftest", "--only", "1")
    assert code == 0
    assert lines[0]["kind"] == "criterion"
    assert lines[0]["passed"] is True
    assert lines[-1]["ok"] is True


@pytest.mark.parametrize("index", ["0", "-1", "12"])
def test_selftest_rejects_criterion_out_of_range(capsys, index):
    assert exits_2(capsys, "selftest", "--only", index) == (
        "criterion index must be in 1..11")


@pytest.mark.parametrize("exc", [KeyError, IndexError])
def test_internal_errors_are_not_config_errors(monkeypatch, exc):
    # exit 2 is for bad input; an error raised inside a subcommand is a bug
    def broken(args):
        raise exc("internal")

    monkeypatch.setitem(cli._DISPATCH, "params", broken)
    with pytest.raises(exc):
        cli.main(["params", "--profile", "doubling"])


def test_console_script_end_to_end():
    exe = shutil.which("bakerlab")
    if exe is None:
        pytest.skip("console script not installed")
    out = subprocess.run([exe, "params", "--profile", "paper2",
                          "--validate"], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0
    assert '"ok": true' in out.stdout.splitlines()[-1]
