"""PPM rendering: format, palette rules, and byte-level determinism."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from bakerlab import render
from bakerlab._kernels import h_field
from bakerlab.dynamics import Grid, axis_coords, classify_grid
from bakerlab.params import make_toy, params_digest
from bakerlab.render import (
    phase_shade,
    ppm_bytes,
    render_escape,
    render_phase,
)

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


def test_phase_render_deterministic_across_threads():
    a = render_phase((-6 - 6j, 6 + 6j), 48, 48, DOUBLING, threads=1)
    b = render_phase((-6 - 6j, 6 + 6j), 48, 48, DOUBLING, threads=5)
    assert a == b


def test_phase_render_mirror_symmetric():
    # h commutes with conjugation and the hue folds |arg|, so a rectangle
    # symmetric about the real axis renders to a vertically mirrored image
    ppm = render_phase((-6 - 6j, 6 + 6j), 32, 32, DOUBLING, threads=4)
    px = _pixels(ppm, 32, 32)
    assert np.array_equal(px, px[::-1])


def test_phase_render_hits_stored_zero_pixel():
    # 65 samples across [-8, 8] place a sample exactly at 2i
    ppm = render_phase((-8 - 8j, 8 + 8j), 65, 65, DOUBLING, threads=1)
    px = _pixels(ppm, 65, 65)
    ys = axis_coords(-8.0, 8.0, 65)
    row = int(np.nonzero(ys == 2.0)[0][0])
    col = int(np.nonzero(axis_coords(-8.0, 8.0, 65) == 0.0)[0][0])
    assert np.array_equal(px[row, col], [0, 0, 0])


@pytest.mark.parametrize("nx, ny, threads", [
    pytest.param(181, 137, 1, id="1"),
    pytest.param(181, 137, 2, id="2"),
    # rows wider than PHASE_CHUNK: three calls of 8192, 8192 and 16 points
    pytest.param(8200, 2, 1, id="wide-row"),
])
def test_phase_render_is_batching_invariant(nx, ny, threads):
    # chunked evaluation gives the bytes of one whole-grid h_field call;
    # at 181 wide one band holds three full chunks and a ragged fourth
    p = make_toy("steep")
    assert nx * ny > 2 * render.PHASE_CHUNK
    zx = np.tile(axis_coords(-20.0, 20.0, nx), ny)
    zy = np.repeat(axis_coords(-20.0, 20.0, ny), nx)
    code, lm, ag = h_field(zx, zy, p)
    whole = ppm_bytes(phase_shade(lm, ag).reshape(ny, nx, 3))
    assert render_phase((-20 - 20j, 20 + 20j), nx, ny, p,
                        threads=threads) == whole


def test_phase_render_memory_is_bounded():
    # one band of 262144 pixels; unchunked, its full-size temporaries peak
    # near 50 MiB, also when the band is one row longer than the chunk
    for p, nx, ny in ((DOUBLING, 512, 512), (make_toy("steep"), 262144, 1)):
        tracemalloc.start()
        try:
            render_phase((-6 - 6j, 6 + 6j), nx, ny, p, threads=1)
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
# "steep-rings" straddles every ring, so all three magnitude regimes show.
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
