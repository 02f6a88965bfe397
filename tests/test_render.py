"""PPM rendering: format, palette rules, and byte-level determinism."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from bakerlab import _kernels
from bakerlab._kernels import h_field
from bakerlab.dynamics import Grid, axis_coords, classify_grid
from bakerlab.params import make_toy, params_digest
from bakerlab.render import (
    phase_shade,
    ppm_bytes,
    render_escape,
    render_phase,
)

from _oracles import rect_points

DOUBLING = make_toy("doubling")


def _tiny_grid(status, step):
    status = np.asarray(status, dtype=np.uint8)
    step = np.asarray(step, dtype=np.uint32)
    ny, nx = status.shape
    return Grid(nx=nx, ny=ny, status=status, step=step,
                digest=params_digest(DOUBLING))


def _pixels(ppm: bytes, nx: int, ny: int) -> np.ndarray:
    header = f"P6\n{nx} {ny}\n255\n".encode()
    assert ppm.startswith(header)
    body = np.frombuffer(ppm[len(header):], dtype=np.uint8)
    return body.reshape(ny, nx, 3)


def test_ppm_header_and_length():
    img = np.zeros((3, 5, 3), dtype=np.uint8)
    out = ppm_bytes(img)
    assert out.startswith(b"P6\n5 3\n255\n")
    assert len(out) == len(b"P6\n5 3\n255\n") + 45


def test_ppm_rejects_wrong_shape_or_dtype():
    with pytest.raises(ValueError):
        ppm_bytes(np.zeros((3, 5), dtype=np.uint8))
    with pytest.raises(ValueError):
        ppm_bytes(np.zeros((3, 5, 3), dtype=np.float64))


def test_escape_render_colors_by_rule():
    g = _tiny_grid([[0, 1], [2, 3]], [[0, 7], [2, 9]])
    px = _pixels(render_escape(g, "ember"), 2, 2)
    assert np.array_equal(px[0, 0], [0, 0, 0])  # bounded: black
    assert np.array_equal(px[1, 0], [255, 255, 255])  # translation: white
    assert np.array_equal(px[1, 1], [255, 255, 255])  # even if it escaped
    assert px[0, 1].any()  # escaped: palette color, not black


def test_escape_palette_cycles_on_step():
    g1 = _tiny_grid([[1]], [[5]])
    g2 = _tiny_grid([[1]], [[5 + 256]])
    assert render_escape(g1) == render_escape(g2)


def test_gray_palette_differs_and_unknown_rejected():
    g = _tiny_grid([[1]], [[37]])
    assert render_escape(g, "gray") != render_escape(g, "ember")
    with pytest.raises(ValueError):
        render_escape(g, "viridis")


def test_phase_shade_zero_is_black():
    px = phase_shade(np.array([-np.inf]), np.array([0.0]))
    assert np.array_equal(px[0], [0, 0, 0])


def test_phase_shade_brightness_monotone():
    lm = np.array([-5.0, 0.0, 5.0, 50.0])
    px = phase_shade(lm, np.zeros(4))
    lum = px.astype(int).sum(axis=1)
    assert np.all(np.diff(lum) > 0)


def _whole_field(rect, nx, ny, p):
    # (log|h|, arg h) of one h_field call over every pixel, shaped (ny, nx)
    _, lm, ag = h_field(*rect_points(rect, nx, ny), p)
    return lm.reshape(ny, nx), ag.reshape(ny, nx)


def _whole_phase(rect, nx, ny, p):
    # the portrait shaded from every pixel's own h, with no mirroring
    lm, ag = _whole_field(rect, nx, ny, p)
    return ppm_bytes(phase_shade(lm.ravel(), ag.ravel()).reshape(ny, nx, 3))


def _count_h_points(monkeypatch):
    seen = []
    real = _kernels.h_field

    def counting(zx, zy, p):
        seen.append(len(zx))
        return real(zx, zy, p)

    monkeypatch.setattr(_kernels, "h_field", counting)
    return seen


# square rects about 0: an odd side has an exact x = 0 column, and equal
# sides give exact diagonals (the two axes share their coordinates)
MIRROR_HALF = {"doubling": 6.0, "steep": 20.0, "paper2": 30.0}
MIRROR_SIZES = [(33, 33), (32, 32), (33, 32), (32, 33)]


def test_phase_render_mirror_symmetric():
    # a rect symmetric about the real axis is evaluated on its lower half
    # and mirrored; the bytes are those of every pixel's own h, for every
    # profile, odd and even sides, and one or three bands
    bad = []
    for profile, w in MIRROR_HALF.items():
        rect, p = (complex(-w, -w), complex(w, w)), make_toy(profile)
        for nx, ny in MIRROR_SIZES:
            whole = _whole_phase(rect, nx, ny, p)
            bad += [(profile, nx, ny, threads) for threads in (1, 3)
                    if render_phase(rect, nx, ny, p, threads=threads)
                    != whole]
    assert bad == []


def test_mirror_cases_meet_the_pi_edge():
    # the cases above hold pixels whose |arg h| differs from its mirror's
    # in the last bits (the wrap at +-pi), and log|h| never differs
    asym = 0
    for profile, w in MIRROR_HALF.items():
        for nx, ny in MIRROR_SIZES:
            lm, ag = _whole_field((complex(-w, -w), complex(w, w)), nx, ny,
                                  make_toy(profile))
            assert lm.tobytes() == lm[::-1].tobytes()
            asym += np.count_nonzero(np.abs(ag) != np.abs(ag[::-1]))
    assert asym > 0


@pytest.mark.parametrize("rect, nx, ny, rows", [
    # imaginary bounds one ulp apart: not symmetric, every row evaluated
    pytest.param((-6 - 6j, complex(6, math.nextafter(6.0, 7.0))), 33, 32,
                 32, id="one-ulp-off"),
    pytest.param((complex(-6, -math.nextafter(6.0, 7.0)), 6 + 6j), 33, 33,
                 33, id="one-ulp-off-below"),
    pytest.param((6 + 6j, -6 - 6j), 33, 32, 16, id="swapped"),
    pytest.param((-6 + 6j, 6 - 6j), 33, 33, 17, id="cross-swapped"),
    pytest.param((-6 - 6j, 6 + 6j), 33, 1, 1, id="ny-1"),
    pytest.param((-6 - 6j, 6 + 6j), 33, 2, 1, id="ny-2"),
    pytest.param((-6 - 2j, 6 + 6j), 33, 2, 2, id="ny-2-asymmetric"),
])
def test_phase_render_path_choice(monkeypatch, rect, nx, ny, rows):
    seen = _count_h_points(monkeypatch)
    got = render_phase(rect, nx, ny, DOUBLING, threads=2)
    assert sum(seen) == nx * rows
    assert got == _whole_phase(rect, nx, ny, DOUBLING)


def _premise_values():
    # positive float64 values: uniform reduced angles, a few ulps around
    # pi and pi/2, subnormals, huge values, halves (rint's ties) and
    # log-uniform magnitudes over the whole range
    rng = np.random.default_rng(22)
    k = np.arange(-40, 41)
    return np.concatenate([
        rng.uniform(0.0, np.pi, 4000),
        np.pi + k * np.spacing(np.pi),
        np.pi / 2 + k * np.spacing(np.pi / 2),
        rng.integers(1, 2 ** 52, 500) * 5e-324,
        10.0 ** rng.uniform(15.0, 308.0, 1000),
        rng.integers(0, 2 ** 40, 500) + 0.5,
        10.0 ** rng.uniform(-323.0, 308.0, 2000),
    ])


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_mirror_premises_hold_in_numpy():
    # the ufuncs of the kernel and the shader have, bit for bit, the
    # symmetries in y that the mirror rule rests on (render's docstring)
    a = _premise_values()
    assert np.array_equal(_bits(np.cos(-a)), _bits(np.cos(a)))
    assert np.array_equal(_bits(np.sin(-a)), _bits(-np.sin(a)))
    assert np.array_equal(_bits(np.rint(-a)), _bits(-np.rint(a)))
    rng = np.random.default_rng(23)
    y = a
    x = rng.permutation(a) * rng.choice([-1.0, 1.0], a.size)
    x[::50] = 0.0
    x[1::50] = -0.0
    assert np.array_equal(_bits(np.hypot(x, -y)), _bits(np.hypot(x, y)))
    assert np.array_equal(_bits(np.arctan2(-y, x)),
                          _bits(-np.arctan2(y, x)))


@pytest.mark.parametrize("profile", ["doubling", "steep", "paper2"])
def test_h_field_logmod_is_even_under_conjugation(profile):
    # log|h| at z and at conj z are the same double off the real axis, on
    # every scale and near every ring
    p = make_toy(profile)
    rng = np.random.default_rng(24)
    mod = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, 3000)]
                         + [r * (1.0 + rng.normal(0.0, 1e-3, 1000))
                            for r in p.r])
    ang = rng.uniform(-np.pi, np.pi, mod.size)
    zx, zy = mod * np.cos(ang), mod * np.sin(ang)
    assert np.count_nonzero(zy) == zy.size
    _, lm, _ = h_field(zx, zy, p)
    _, lm_conj, _ = h_field(zx, -zy, p)
    assert np.array_equal(_bits(lm), _bits(lm_conj))


def test_phase_render_hits_stored_zero_pixel():
    # 65 samples across [-8, 8] place a sample exactly at 2i
    ppm = render_phase((-8 - 8j, 8 + 8j), 65, 65, DOUBLING, threads=1)
    px = _pixels(ppm, 65, 65)
    ys = axis_coords(-8.0, 8.0, 65)
    row = int(np.nonzero(ys == 2.0)[0][0])
    col = int(np.nonzero(axis_coords(-8.0, 8.0, 65) == 0.0)[0][0])
    assert np.array_equal(px[row, col], [0, 0, 0])


@pytest.mark.parametrize("nx, ny, threads, top", [
    pytest.param(181, 137, 1, 21.0, id="1"),
    pytest.param(181, 137, 2, 21.0, id="2"),
    # rows wider than _kernels.BATCH: three calls of 8192, 8192 and 16 points
    pytest.param(8200, 2, 1, 21.0, id="wide-row"),
    # symmetric: the 138 evaluated rows hold three full chunks and a
    # ragged fourth, as do the 137 rows of the cases above
    pytest.param(181, 275, 1, 20.0, id="mirrored-1"),
    pytest.param(181, 275, 2, 20.0, id="mirrored-2"),
    pytest.param(181, 275, 5, 20.0, id="mirrored-5"),
])
def test_phase_render_is_batching_invariant(monkeypatch, nx, ny, threads,
                                            top):
    # chunked evaluation gives the bytes of one whole-grid h_field call
    p = make_toy("steep")
    rect = (-20 - 20j, complex(20, top))
    seen = _count_h_points(monkeypatch)
    got = render_phase(rect, nx, ny, p, threads=threads)
    assert sum(seen) > 2 * _kernels.BATCH
    assert got == _whole_phase(rect, nx, ny, p)


def test_phase_render_memory_is_bounded():
    # one band of 262144 pixels; unchunked, its full-size temporaries peak
    # near 50 MiB, also when the band is one row longer than the chunk (the
    # rect is not symmetric, so no row is mirrored)
    for p, nx, ny in ((DOUBLING, 512, 512), (make_toy("steep"), 262144, 1)):
        tracemalloc.start()
        try:
            render_phase((-6 - 6j, 6 + 7j), nx, ny, p, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, (nx, ny, peak)


def test_escape_render_matches_grid_dimensions():
    g = classify_grid((-4 - 4j, 4 + 4j), 12, 7, DOUBLING, max_steps=10)
    ppm = render_escape(g)
    assert ppm.startswith(b"P6\n12 7\n255\n")


# SHA-256 of phase-portrait PPMs, recorded before the shader became
# table-driven.  "doubling-zero" hits all six hue sectors (the sixth only
# where arg h == pi, on the real axis) and the snapped zeros at +-2i;
# "steep-rings" straddles every ring, so both factor regimes show, the far
# field on either side of each ring.
PHASE_DIGESTS = {
    "doubling-zero":
        "606f46c80108559fda71874d23339807bd9822ecd4cb5e1fe1bced3b97d2f993",
    "steep-rings":
        "c5a05988ebf5262638b250180d4b314096e974d77ca59722b02451896ffff09a",
    "paper2":
        "e47b09f64b19782fc3d4f1b5f009719149fc11f3205a46d458a8d132b0c61842",
    "steep-chunks":
        "ca4cd26ecf283ec7d2b2e9498d4e2463e2f5e52ff20ec5d4f83ad7f4449423a3",
}
PHASE_CASES = {
    "doubling-zero": ((-8 - 8j, 8 + 8j), 65, 65, "doubling"),
    "steep-rings": ((-11 - 9j, 13 + 15j), 61, 47, "steep"),
    "paper2": ((-30 - 30j, 30 + 30j), 41, 41, "paper2"),
    # more than two evaluation chunks in one band, the last one ragged
    "steep-chunks": ((-11 - 9j, 13 + 15j), 160, 120, "steep"),
}


@pytest.mark.parametrize("case", sorted(PHASE_CASES))
def test_phase_bytes_are_pinned(case):
    rect, nx, ny, profile = PHASE_CASES[case]
    ppm = render_phase(rect, nx, ny, make_toy(profile), threads=1)
    assert hashlib.sha256(ppm).hexdigest() == PHASE_DIGESTS[case]


# SHA-256 of phase_shade on a synthetic field, recorded before the shader
# was computed one channel at a time.  The field covers hue sectors 0 to 4,
# sector 5 (|arg| == pi exactly, at +-pi), the sector edges, and logmod
# -inf (a zero), +inf and 0.
SHADE_DIGEST = (
    "eb40c62a391e49f3782d3dbb0d2c90ca05a711ddb30f9835df6ea75ff31828d5")


def _shade_field():
    rng = np.random.default_rng(5)
    edges = np.pi * np.arange(6) / 5.0
    arg = np.concatenate([rng.uniform(-np.pi, np.pi, 2000), edges, -edges])
    logmod = rng.normal(0.0, 60.0, arg.size)
    logmod[::7] = -np.inf
    logmod[1::7] = np.inf
    logmod[2::7] = 0.0
    return logmod, arg


def test_phase_shade_bytes_are_pinned():
    logmod, arg = _shade_field()
    sector = np.floor(np.abs(arg) / np.pi * 5.0)
    assert np.unique(sector).tolist() == [0, 1, 2, 3, 4, 5]
    px = phase_shade(logmod, arg)
    assert (px.shape, px.dtype) == ((arg.size, 3), np.uint8)
    assert hashlib.sha256(px.tobytes()).hexdigest() == SHADE_DIGEST
