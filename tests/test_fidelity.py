"""Estimator checks: exactness, draw-layout reconstruction, quadrature oracle,
golden regressions, and stderr scaling."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from geomgate import chebyshev, fidelity
from geomgate.evolve import ideal_gate_u1, one_cycle_gate
from geomgate.fidelity import estimate_single, estimate_two_qubit
from geomgate.model import (
    DriveParams,
    TwoQubitParams,
    blocks,
    chi_angle,
    cycle_entries,
    omega_for_beta,
    shifted_target,
    two_qubit_from_alpha,
    two_qubit_geometric_point,
    zero_dynamic_omega1,
)
from geomgate.noise import (
    NoiseSpec,
    RngStream,
    _input_amplitudes,
    relative_draws,
    sample_input_state,
    sample_two_qubit_input,
)

SQRT3 = math.sqrt(3.0)

# fixed-seed references computed once at m = n = 5000 (large-sample runs of
# this estimator); tests compare small runs against them within 3 sigma
GOLDEN_SINGLE = (9.999241027050384e-01, 4.198988763029546e-07)
GOLDEN_TWO_QUBIT = (9.998055838138622e-01, 1.828752647305019e-06)


def pinned_single():
    w0 = 1e5
    w1 = zero_dynamic_omega1(w0, 1.5)
    return DriveParams(omega_for_beta(w0, w1, 1.5), w0, w1)


# --- shot_fidelity: the per-shot oracle of the reconstructions below -------


def shot_fidelity(psi_in, u_ideal, u_noisy):
    """Squared overlap |<psi_in| U_ideal^dag U_noisy |psi_in>|^2, capped at 1."""
    amp = np.vdot(u_ideal @ psi_in, u_noisy @ psi_in)
    return float(min(abs(amp) ** 2, 1.0))


def block_diag(a, b):
    """4x4 gate: block a on the control-0 sector (|00>, |01>), b on control-1."""
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2], out[2:, 2:] = a, b
    return out


def test_shot_fidelity_identical_gates():
    p = pinned_single()
    u = one_cycle_gate(p)
    psi = sample_input_state(RngStream(1, (0,)))
    assert shot_fidelity(psi, u, u) == pytest.approx(1.0, abs=1e-12)


def test_shot_fidelity_global_phase_invariance():
    p = pinned_single()
    u = one_cycle_gate(p)
    psi = sample_input_state(RngStream(2, (0,)))
    for phi in (0.3, -1.7, math.pi):
        assert shot_fidelity(psi, u, np.exp(1j * phi) * u) == pytest.approx(1.0, abs=1e-12)
        assert shot_fidelity(psi, np.exp(1j * phi) * u, u) == pytest.approx(1.0, abs=1e-12)


def test_shot_fidelity_orthogonal_outcome():
    psi = np.array([1.0, 0.0], dtype=complex)
    assert shot_fidelity(psi, np.eye(2), np.array([[0, 1], [1, 0]])) == 0.0


def test_shot_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        shot_fidelity(np.array([1, 0], dtype=complex), np.eye(2), np.eye(4))


# --- noiseless exactness ---------------------------------------------------


@pytest.mark.parametrize("gate_model", ["phase", "propagator"])
@pytest.mark.parametrize("m,n", [(1, 1), (3, 7), (40, 11)])
def test_single_noiseless_is_one(gate_model, m, n):
    est = estimate_single(pinned_single(), NoiseSpec(0.0, 0.0), m, n,
                          RngStream(5).child(1), gate_model=gate_model)
    assert abs(est.mean - 1.0) <= 1e-12
    # one state gives no error estimate
    assert est.stderr <= 1e-12 if n > 1 else math.isnan(est.stderr)
    assert est.n_states == n


@pytest.mark.parametrize("gate_model", ["phase", "propagator"])
@pytest.mark.parametrize("mode", ["fixed0", "fixed1", "unfixed"])
def test_two_qubit_noiseless_is_one(gate_model, mode):
    p2 = two_qubit_geometric_point(30.0, SQRT3)
    est = estimate_two_qubit(p2, NoiseSpec(0.0, 0.0), 5, 9, RngStream(6).child(2),
                             control_mode=mode, gate_model=gate_model)
    assert abs(est.mean - 1.0) <= 1e-12


def strong_drives():
    """Points with omega0/omega ~ 1e9: one rounding step in the field magnitude
    moves the phase by ~1e-7, which shows in F, so a noisy magnitude that
    rounds apart from the ideal one leaves F below 1."""
    return [DriveParams(1.0, 1e9 * (1.0 + k / 7.0), 3e8 * (k - 11.5)) for k in range(24)]


def test_phase_noiseless_is_exactly_one():
    # under either model no noise gives rows equal bit for bit to those at u = 0,
    # so the change e is 0 and F == 1 exactly, on the per-shot kernel (m = 3) and
    # on the fit (every point resolves a change of 0), whatever the control weights
    zero = NoiseSpec(0.0, 0.0)
    for model in ("phase", "propagator"):
        for m in (3, fidelity._FIT_MIN_SHOTS):
            for p in strong_drives():
                est = estimate_single(p, zero, m, 2, RngStream(5).child(1), gate_model=model)
                assert est.mean == 1.0
                p2 = TwoQubitParams(target=p, coupling_j=0.3 * p.omega0)
                for mode in ("fixed0", "fixed1", "unfixed"):
                    est = estimate_two_qubit(p2, zero, m, 2, RngStream(6).child(2),
                                             control_mode=mode, gate_model=model)
                    assert est.mean == 1.0


def test_cos_sin_half_angle_matches_libm():
    rng = np.random.default_rng(11)
    a = np.concatenate([rng.uniform(-1e4, 1e4, 100_000),
                        [(2 * k + 1) * math.pi for k in range(-20, 21)],
                        [0.0, 1e-300, -1e-300, 1e-20, -1e-20]])
    cos_a, sin_a = fidelity._cos_sin(a)
    assert np.isfinite(cos_a).all() and np.isfinite(sin_a).all()
    tol = 4 * 2.0**-52
    assert np.max(np.abs(cos_a - [math.cos(x) for x in a])) <= tol
    assert np.max(np.abs(sin_a - [math.sin(x) for x in a])) <= tol


@pytest.mark.parametrize("gate_model", ["phase", "propagator"])
def test_kernel_calls_no_libm_per_shot(gate_model, monkeypatch):
    # numpy's float64 hypot, sin and cos can run through scalar libm, so the
    # per-shot kernel must not call them. The state map and the ideal entries
    # may, once per input state or per point
    sizes = []

    def counted(ufunc):
        def call(*args, **kwargs):
            sizes.append(max(np.size(x) for x in args))
            return ufunc(*args, **kwargs)
        return call

    for name in ("hypot", "sin", "cos"):
        monkeypatch.setattr(np, name, counted(getattr(np, name)))
    m, n = 64, 4
    estimate_two_qubit(two_qubit_geometric_point(30.0, SQRT3), NoiseSpec(0.05, 0.05), m, n,
                       RngStream(4).child(2), control_mode="unfixed", gate_model=gate_model)
    # above the crossover: the fit, its tables and the power sums
    estimate_two_qubit(two_qubit_geometric_point(30.0, SQRT3), NoiseSpec(0.05, 0.05),
                       fidelity._FIT_MIN_SHOTS + 64, n, RngStream(4).child(2),
                       control_mode="unfixed", gate_model=gate_model)
    estimate_single(pinned_single(), NoiseSpec(0.1, 0.1), m, n, RngStream(4).child(1),
                    gate_model=gate_model)
    assert sizes and max(sizes) <= n


def test_estimates_within_unit_interval():
    p = pinned_single()
    for seed in range(4):
        est = estimate_single(p, NoiseSpec(0.3, 0.3), 50, 50, RngStream(seed).child(1))
        assert 0.0 <= est.mean <= 1.0
        assert est.stderr >= 0.0


def test_argument_validation():
    # the messages of EstimatorConfig, the check sweep_generic runs as well
    p = pinned_single()
    with pytest.raises(ValueError, match="m must be >= 1, got 0"):
        estimate_single(p, NoiseSpec(0.1, 0.1), 0, 5, RngStream(0))
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        estimate_single(p, NoiseSpec(0.1, 0.1), 5, 0, RngStream(0))
    with pytest.raises(ValueError, match="gate_model must be one of"):
        estimate_single(p, NoiseSpec(0.1, 0.1), 5, 5, RngStream(0), gate_model="exact")
    p2 = two_qubit_geometric_point(30.0, SQRT3)
    with pytest.raises(ValueError, match="control_mode must be one of"):
        estimate_two_qubit(p2, NoiseSpec(0.1, 0.1), 5, 5, RngStream(0), control_mode="both")


@pytest.mark.parametrize("key,value", [
    ("m", 2.5), ("n", 3.0), ("workers", 1.5), ("m", np.float64(4.0)), ("n", True),
    ("workers", "2"), ("seed", 1.5), ("seed", True),
], ids=["m-float", "n-float", "workers-float", "m-numpy-float", "n-bool", "workers-str",
        "seed-float", "seed-bool"])
def test_counts_must_be_integers(key, value):
    # a float m or n used to fail deep in the estimator, a float workers to run
    with pytest.raises(ValueError) as err:
        fidelity.EstimatorConfig(**{key: value})
    assert str(err.value) == f"{key} must be an integer, got {value!r}"


def test_seed_must_fit_64_bits():
    # the streams keep a seed's low 64 bits, so a seed outside would alias another
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        assert fidelity.EstimatorConfig(seed=seed).seed == seed
    for seed in (-1, 2**64, 2**64 + 1):
        with pytest.raises(ValueError) as err:
            fidelity.EstimatorConfig(seed=seed)
        assert str(err.value) == f"seed must lie in [0, 2**64), got {seed}"


def test_counts_accept_numpy_integers():
    p = pinned_single()
    plain = estimate_single(p, NoiseSpec(0.1, 0.1), 5, 4, RngStream(3))
    assert estimate_single(p, NoiseSpec(0.1, 0.1), np.int64(5), np.int32(4),
                           RngStream(3)) == plain


@pytest.mark.parametrize("gate_model", ["phase", "propagator"])
@pytest.mark.parametrize("omega,omega0,omega1", [
    (1.0, 1e-100, 1.0), (1.0, 1e100, 1e100), (1e-100, 1e100, 1e100),
    (1e100, 1e-100, -1e100), (1e-100, 1e-100, -1e100),
], ids=["resonant", "strong", "slow-strong", "fast-weak", "slow-weak"])
def test_estimates_finite_at_the_field_range_edges(gate_model, omega, omega0, omega1):
    # no square or sum of squares leaves the normal doubles (RuntimeWarnings
    # fail the suite), so the estimate is a real fidelity; above the crossover
    # "propagator" fits these rows or refuses them
    for m in (16, fidelity._FIT_MIN_SHOTS):
        est = estimate_single(DriveParams(omega, omega0, omega1), NoiseSpec(0.3, 0.3), m, 4,
                              RngStream(5).child(1), gate_model=gate_model)
        assert 0.0 <= est.mean <= 1.0 and math.isfinite(est.stderr)


def test_one_state_gives_no_stderr():
    # a single state has no spread to estimate the error from
    est = estimate_single(pinned_single(), NoiseSpec(0.1, 0.1), 10, 1, RngStream(3).child(1))
    assert 0.0 < est.mean <= 1.0 and math.isnan(est.stderr)
    est = estimate_two_qubit(two_qubit_geometric_point(30.0, SQRT3), NoiseSpec(0.05, 0.05),
                             10, 1, RngStream(3).child(2), gate_model="propagator")
    assert 0.0 < est.mean <= 1.0 and math.isnan(est.stderr)
    assert estimate_single(pinned_single(), NoiseSpec(0.1, 0.1), 10, 2,
                           RngStream(3).child(1)).stderr > 0.0


# --- the shared kernel: plain allocating expressions --------------------------


def allocating_propagator_estimates(params, cfg, rng, matmul=True):
    """(mean, stderr) per point (all single-qubit or all two-qubit) under
    cfg.gate_model, from arrays built whole.

    matmul=True transcribes the kernel both models share, in its change form.
    Each block's basis rows are r = 1/(1 + t*t), s*det, s*w0 and sigma = t*r,
    with t = tan(a/2) and s = sigma/big. The same rows at u = 0 are taken off,
    and one matmul sums the rest into e, with the coefficients 2*c_1 (for r),
    2i*c_z and 2i*c_x (for a noisy axis, "propagator") and 2i*(c_z*cos(chi) +
    c_x*sin(chi)) (for sigma, the axis "phase" holds). Each state's mean of
    2*Re(e) + |e|^2 is added to 1 and clamped at 1.
    matmul=False is the per-shot sum each model computed before, clamped per
    shot, which rounds otherwise: c_1*cos(a) + sin(a)/big*(c_z*det + c_x*w0)
    under "propagator", the closed form cos(d) + i*z*sin(d) under "phase",
    d = pi*(big0 - big)/omega and z the target's Bloch vector on the block axis.

    Reads the estimator's draws all at once: both streams are read in order,
    so its chunks of states see the same doubles.
    """
    m, n, spec, phase = cfg.m, cfg.n, cfg.spec, cfg.gate_model == "phase"
    single = isinstance(params[0], DriveParams)
    weights = (1.0,) if single else {"fixed0": (1.0, 0.0), "fixed1": (0.0, 1.0)}.get(
        cfg.control_mode)

    def column(values):
        return np.array(values, dtype=float)[:, None, None]

    targets = [getattr(p, "target", p) for p in params]
    omega, omega0, omega1 = (column([getattr(t, f) for t in targets])
                             for f in ("omega", "omega0", "omega1"))
    u = rng.child(0).generator.random((n, 3 if weights else 6))
    t0, t1 = (a[None, :, None] for a in _input_amplitudes(u[:, -3:], cfg.haar))
    w = weights or [abs(a[None, :, None]) ** 2 for a in _input_amplitudes(u[:, :3], cfg.haar)]
    draws = relative_draws(rng.child(1), n * m * (1 + spec.independent)).reshape(1, n, -1)
    u0, u1 = draws[..., :m], draws[..., -m:]
    bz, bx = abs(t0) ** 2 - abs(t1) ** 2, 2.0 * (t0.conjugate() * t1).real
    re = im = 0.0
    rows, coefficients = [], []
    for k, sign in enumerate((-1.0,) if single else (-1.0, 1.0)):
        if weights is not None and weights[k] == 0.0:
            continue
        shift = column([sign * getattr(p, "coupling_j", 0.0) for p in params])
        # "phase" scales the block frequency omega1 +- J, "propagator" shifts omega1*scale
        gain, offset = (omega1 + shift, -omega) if phase else (omega1, shift - omega)
        det0 = gain + offset
        big0 = np.sqrt(omega0 * omega0 + det0 * det0)
        cos_chi, sin_chi = det0 / big0, omega0 / big0
        i00, i01, i11 = (np.array(e)[:, None, None] for e in zip(
            *(cycle_entries(blocks(p)[k]) for p in params)))
        q0 = w[k] * (i00 * t0 + i01 * t1).conjugate()
        q1 = w[k] * (i01 * t0 + i11 * t1).conjugate()
        q0t0, q1t1 = q0 * t0, q1 * t1

        def fields(d0, d1):
            w0 = omega0 * (1.0 + spec.delta0 * d0)
            det = gain * (1.0 + spec.delta1 * d1) + offset
            big = np.sqrt(w0 * w0 + det * det)
            return w0, det, big

        w0, det, big = fields(u0, u1)
        if matmul:
            at = []
            for w0_, det_, big_ in ((w0, det, big), fields(0.0, 0.0)):
                t = np.tan(0.5 * (np.pi / omega) * big_)
                r = 1.0 / (1.0 + t * t)
                sigma = t * r
                s = sigma / big_
                at.append((r, s * det_, s * w0_, sigma))
            rows.append([x - x0 for x, x0 in zip(*at)])
            c_z, c_x = q0t0 - q1t1, q0 * t1 + q1 * t0
            zero = np.zeros_like(c_z)
            coefficients.append((-2.0 * (q0t0 + q1t1), zero if phase else 2j * c_z,
                                 zero if phase else 2j * c_x,
                                 2j * (c_z * cos_chi + c_x * sin_chi) if phase else zero))
            continue
        if phase:
            cos_d, sin_d = fidelity._cos_sin(np.pi / omega * (big0 - big))
            re = re + w[k] * cos_d
            im = im + (w[k] * (cos_chi * bz + sin_chi * bx)) * sin_d
            continue
        c_1, c_z, c_x = -(q0t0 + q1t1), 1j * (q0t0 - q1t1), 1j * (q0 * t1 + q1 * t0)
        cos_a, sin_a = fidelity._cos_sin(np.pi / omega * big)
        sin_a = sin_a / big
        re = re + c_1.real * cos_a + sin_a * (c_z.real * det + c_x.real * w0)
        im = im + c_1.imag * cos_a + sin_a * (c_z.imag * det + c_x.imag * w0)
    if matmul:
        # grouped by kind: every block's r, then s*det, then s*w0, then sigma
        c = np.concatenate([x for kind in zip(*coefficients) for x in kind], axis=-1)
        basis = np.stack([x for kind in zip(*rows) for x in kind], axis=-2)
        e = np.matmul(np.stack((c.real, c.imag), axis=-2), basis)
        re, im = e[..., 0, :], e[..., 1, :]
        per_state = np.minimum(1.0 + ((re + re) + (re * re + im * im)).sum(axis=-1) / m, 1.0)
    else:
        per_state = np.minimum(re * re + im * im, 1.0).mean(axis=-1)
    return [(row.mean(), row.std(ddof=1) / np.sqrt(n)) for row in per_state]


@pytest.mark.parametrize("gate_model,mode,spec,haar,elements", [
    pytest.param(model, mode, spec, haar, elements,
                 id=f"{mode}-spec{j}-{haar}-{elements}" if model == "propagator"
                 else f"phase-{mode}-spec{j}-{haar}-{elements}")
    for model in ("propagator", "phase")
    for j, (mode, spec, haar, elements) in enumerate([
        ("unfixed", NoiseSpec(0.05, 0.05), False, None),
        ("fixed1", NoiseSpec(0.1, 0.1, True), True, None),
        ("unfixed", NoiseSpec(0.1, 0.05, True), True, 3 * 7),  # three states, one point a chunk
        ("fixed1", NoiseSpec(0.05, 0.05), False, 2 * 11 * 7),  # all states, two points a chunk
    ])])
def test_propagator_kernel_equals_the_allocating_expression(gate_model, mode, spec, haar,
                                                            elements, monkeypatch):
    # the kernel both models share writes into work buffers and coefficient tables
    # and must round exactly as the plain basis-row matmul does, in full chunks and
    # in shorter trailing ones; each model's former per-shot sum agrees to the last digits
    if elements is not None:
        monkeypatch.setattr(fidelity, "_CHUNK_ELEMENTS", elements)
    params = [two_qubit_from_alpha(w0, 60.0, math.sqrt(a))
              for w0, a in ((2.0, 3), (10.0, 8), (21.0, 15), (33.0, 35), (40.0, 143))]
    cfg = fidelity.EstimatorConfig(m=7, n=11, spec=spec, gate_model=gate_model, haar=haar,
                                   control_mode=mode)
    got = [(e.mean, e.stderr) for e in fidelity._estimate(params, cfg, RngStream(8).child(2))]
    assert got == allocating_propagator_estimates(params, cfg, RngStream(8).child(2))
    before = allocating_propagator_estimates(params, cfg, RngStream(8).child(2), matmul=False)
    for (mean, stderr), (mean0, stderr0) in zip(got, before):
        assert abs(mean - mean0) <= 1e-15
        assert abs(stderr - stderr0) <= 1e-11 * stderr0


def fit_points(mode, family):
    """Points the fit resolves at the noise widths they are used with, single-qubit
    (mode None) or two-qubit: the geometric points of fig1 and fig4 at narrow widths,
    fast drives (omega well above the fields) at wide ones."""
    if family == "fast":
        drives = [DriveParams(40.0, w0, w1)
                  for w0, w1 in ((1.0, 0.5), (0.5, 2.0), (2.0, 1.0), (1.5, -1.0))]
        if mode is None:
            return drives
        return [TwoQubitParams(target=d, coupling_j=j)
                for d, j in zip(drives, (0.3, 1.0, 0.5, 0.8))]
    if mode is None:
        return [pinned_single()] + [DriveParams(omega_for_beta(1e5, w1, 1.5), 1e5, w1)
                                    for w1 in (zero_dynamic_omega1(1e5, 1.5) + d * 1e5
                                               for d in (0.4, 1.3))]
    return [two_qubit_from_alpha(w0, 60.0, math.sqrt(a))
            for w0, a in ((2.0, 3), (10.0, 8), (21.0, 15), (33.0, 35), (40.0, 143))]


@pytest.mark.parametrize("gate_model,mode,family,spec,haar", [
    pytest.param("propagator", "unfixed", "geometric", NoiseSpec(0.05, 0.05), False, id="unfixed"),
    pytest.param("propagator", "unfixed", "fast", NoiseSpec(0.5, 0.9), True,
                 id="unfixed-wide-haar"),
    pytest.param("propagator", "fixed0", "geometric", NoiseSpec(0.05, 0.05), False, id="fixed0"),
    pytest.param("propagator", "fixed1", "fast", NoiseSpec(0.5, 0.9), True, id="fixed1-haar"),
    pytest.param("propagator", None, "geometric", NoiseSpec(0.02, 0.02), False, id="single"),
    pytest.param("propagator", None, "fast", NoiseSpec(0.5, 0.9), True, id="single-wide-haar"),
    # "phase" fluctuates the coupling too: 8 nodes resolve none of fig4's geometric
    # points, and at fig1's, where its loss is O(delta^4), sigma is too small for
    # the relative bound, so it takes fast drives, some at narrower widths
    pytest.param("phase", "unfixed", "fast", NoiseSpec(0.5, 0.5), False, id="phase-unfixed"),
    pytest.param("phase", "unfixed", "fast", NoiseSpec(0.3, 0.5), True, id="phase-unfixed-haar"),
    pytest.param("phase", "fixed0", "fast", NoiseSpec(0.5, 0.9), False, id="phase-fixed0"),
    pytest.param("phase", "fixed1", "fast", NoiseSpec(0.5, 0.5), True, id="phase-fixed1-haar"),
    pytest.param("phase", None, "fast", NoiseSpec(0.5, 0.5), False, id="phase-single"),
    pytest.param("phase", None, "fast", NoiseSpec(0.5, 0.9), True, id="phase-single-wide-haar"),
])
@pytest.mark.parametrize("m", [fidelity._FIT_MIN_SHOTS, 1000])
def test_propagator_fit_equals_the_per_shot_sum(gate_model, mode, family, spec, haar, m,
                                                monkeypatch):
    # lock-step points above the crossover sum their shots through the Chebyshev
    # fit and the power sums of the draws; they must agree with each model's
    # per-shot sum within the bounds the kernel meets
    params = fit_points(mode, family)
    cfg = fidelity.EstimatorConfig(m=m, n=9, spec=spec, gate_model=gate_model, haar=haar,
                                   control_mode=mode or "unfixed")
    live = [0] if mode is None else [k for k in (0, 1) if mode != f"fixed{1 - k}"]
    resolved, _ = chebyshev.fits(params, live, cfg, fidelity._CHUNK_ELEMENTS)
    assert resolved.all() and len(resolved) == len(params)
    sums, power_sums = [], chebyshev.power_sums
    monkeypatch.setattr(chebyshev, "power_sums", lambda u, k: sums.append(k) or power_sums(u, k))
    got = [(e.mean, e.stderr) for e in fidelity._estimate(params, cfg, RngStream(8).child(2))]
    assert sums  # the estimate took the fitted sum
    want = allocating_propagator_estimates(params, cfg, RngStream(8).child(2), matmul=False)
    for (mean, stderr), (mean0, stderr0) in zip(got, want):
        assert abs(mean - mean0) <= 1e-15
        assert abs(stderr - stderr0) <= 1e-11 * stderr0


def unresolved_point():
    """A drive point whose rows the fit does not resolve at delta = 0.3."""
    return DriveParams(1.0, 100.0, 100.0)


def test_unresolved_point_takes_the_per_shot_kernel(monkeypatch):
    # the fit's error at u values between its nodes refuses the point, which then
    # gets the per-shot kernel's result bit for bit, alone and beside a resolved
    # point, under either model
    params = [unresolved_point(), fit_points(None, "fast")[0]]
    for model in ("propagator", "phase"):
        cfg = fidelity.EstimatorConfig(m=fidelity._FIT_MIN_SHOTS + 72, n=6,
                                       spec=NoiseSpec(0.3, 0.3), gate_model=model)
        resolved, _ = chebyshev.fits(params, [0], cfg, fidelity._CHUNK_ELEMENTS)
        assert list(resolved) == [False, True]
        got = fidelity._estimate(params, cfg, RngStream(4).child(1))
        assert fidelity._estimate(params[:1], cfg, RngStream(4).child(1)) == got[:1]
        with monkeypatch.context() as patch:
            patch.setattr(fidelity, "_FIT_MIN_SHOTS", cfg.m + 1)
            assert fidelity._estimate(params[:1], cfg, RngStream(4).child(1)) == got[:1]


@pytest.mark.parametrize("spec", [NoiseSpec(0.0, 0.0), NoiseSpec(1e-9, 1e-9)],
                         ids=["noiseless", "tiny-noise"])
@pytest.mark.parametrize("mode", ["unfixed", "fixed0", "fixed1", None],
                         ids=["unfixed", "fixed0", "fixed1", "single"])
def test_propagator_mean_never_exceeds_one(mode, spec):
    # near the ideal gate a shot's |amplitude|^2 and a state's mean of them
    # round up to 4.4e-16 above 1 at these points; the clamp keeps F <= 1
    # at m = 40 the per-shot kernel runs, above the crossover the Chebyshev sum
    for m in (40, fidelity._FIT_MIN_SHOTS + 32):
        if mode is None:
            est = estimate_single(pinned_single(), spec, m, 9, RngStream(7).child(1),
                                  gate_model="propagator")
        else:
            est = estimate_two_qubit(two_qubit_geometric_point(30.0, SQRT3), spec, m, 9,
                                     RngStream(7).child(2), control_mode=mode,
                                     gate_model="propagator")
        assert 1.0 - 1e-12 <= est.mean <= 1.0


def test_fit_module_loads_only_when_a_point_may_fit():
    # runs that fit nothing (independent draws, m below the crossover) never
    # compile or load the chebyshev module under either model, nor does a 2-worker
    # sweep below the crossover, which looks up the points' paths to size its pool
    code = ("import os, sys; os.cpu_count = lambda: 4; "
            "from geomgate.fidelity import estimate_single; "
            "from geomgate.model import DriveParams; from geomgate.noise import NoiseSpec, RngStream; "
            "from geomgate.sweep import EstimatorConfig, single_point, sweep_generic; "
            "sweep_generic([single_point(1e5, d, 1.5, 'minus') for d in (0.0, 0.5, 1.0)], "
            "EstimatorConfig(m=100, n=2, workers=2)); "
            "p = DriveParams(40.0, 1.0, 0.5); "
            "runs = [('phase', NoiseSpec(0.1, 0.1, True), 200), "
            "('propagator', NoiseSpec(0.1, 0.1, True), 200), ('phase', NoiseSpec(0.1, 0.1), 100), "
            "('propagator', NoiseSpec(0.1, 0.1), 100), ('phase', NoiseSpec(0.1, 0.1), 200)]; "
            "print(['geomgate.chebyshev' in sys.modules] + "
            "[estimate_single(p, spec, m, 2, RngStream(1), gate_model=model) and "
            "'geomgate.chebyshev' in sys.modules for model, spec, m in runs])")
    src = os.path.dirname(os.path.dirname(fidelity.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "[False, False, False, False, False, True]"


def test_propagator_digits_do_not_depend_on_blas_threads():
    # at m = 30000 OpenBLAS splits the per-shot kernel's (2 x 6) @ (6 x m) matmul
    # (independent draws) across its threads, and lock-step draws take the
    # Chebyshev sum's small matmuls; no digit may change with their number
    code = ("import math; from geomgate import fidelity; "
            "from geomgate.model import two_qubit_from_alpha; "
            "from geomgate.noise import NoiseSpec, RngStream; "
            "params = [two_qubit_from_alpha(w0, 60.0, math.sqrt(a)) "
            "for w0, a in ((2.0, 3), (21.0, 15), (40.0, 143))]; "
            "cfgs = [fidelity.EstimatorConfig(m=30000, n=2, spec=NoiseSpec(0.05, 0.05, i), "
            "gate_model='propagator') for i in (False, True)]; "
            "print([fidelity._estimate(params, c, RngStream(3).child(2)) for c in cfgs])")
    src = os.path.dirname(os.path.dirname(fidelity.__file__))
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("gate_model", ["phase", "propagator"])
def test_propagator_memory_is_bounded_on_a_large_grid(gate_model):
    # 400 points at m = 4, n = 1000: a coefficient table over every (point,
    # state) pair would hold 400 * 1000 * 16 doubles (51 MB); the bounded one
    # holds at most 16 * _CHUNK_ELEMENTS, next to the (points, n) means (3.2 MB)
    params = [two_qubit_from_alpha(2.0 + 0.1 * i, 60.0, SQRT3) for i in range(400)]
    cfg = fidelity.EstimatorConfig(m=4, n=1000, spec=NoiseSpec(0.05, 0.05),
                                   gate_model=gate_model)
    tracemalloc.start()
    try:
        fidelity._estimate(params, cfg, RngStream(2).child(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


@pytest.mark.parametrize("gate_model", ["phase", "propagator"])
def test_propagator_fit_memory_is_bounded_on_a_large_grid(gate_model):
    # 400 points at the crossover, n = 1000: the Chebyshev sum takes at most
    # _CHUNK_ELEMENTS // 16 (point, state) pairs at a time, and each point's rows
    # hold 8 * 2 * 8 doubles, next to the (points, n) means (3.2 MB). "phase" runs
    # fast drives: its 8-node fit resolves none of fig4's geometric points
    params = [two_qubit_from_alpha(2.0 + 0.1 * i, 60.0, SQRT3) for i in range(400)]
    if gate_model == "phase":
        params = [TwoQubitParams(target=DriveParams(40.0, 0.5 + 0.005 * i, 1.0), coupling_j=0.5)
                  for i in range(400)]
    cfg = fidelity.EstimatorConfig(m=fidelity._FIT_MIN_SHOTS, n=1000, spec=NoiseSpec(0.05, 0.05),
                                   gate_model=gate_model)
    assert chebyshev.fits(params, [0, 1], cfg, fidelity._CHUNK_ELEMENTS)[0].all()
    tracemalloc.start()
    try:
        fidelity._estimate(params, cfg, RngStream(2).child(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


# --- draw-layout reconstruction oracle -------------------------------------
# rebuild the estimator from scalar primitives, walking the documented
# stream layout: one state stream child(0) and one noise stream child(1),
# each read in order, one input state after another


def reconstruct_single(p, spec, m, n, rng, gate_model):
    """Per-state mean fidelities of the first n input states."""
    ideal = one_cycle_gate(p)
    chi = chi_angle(p)
    states, noise = rng.child(0), rng.child(1)
    per_state = []
    for j in range(n):
        psi = sample_input_state(states)
        u0 = relative_draws(noise, m)
        u1 = relative_draws(noise, m) if spec.independent else u0
        shots = []
        for i in range(m):
            w0 = p.omega0 * (1.0 + spec.delta0 * u0[i])
            w1 = p.omega1 * (1.0 + spec.delta1 * u1[i])
            if gate_model == "propagator":
                noisy = one_cycle_gate(DriveParams(p.omega, w0, w1))
            else:
                gamma = -math.pi * (1.0 + math.hypot(w0, w1 - p.omega) / p.omega)
                noisy = ideal_gate_u1(gamma, chi)
            shots.append(shot_fidelity(psi, ideal, noisy))
        per_state.append(np.mean(shots))
    return per_state


@pytest.mark.parametrize("gate_model", ["phase", "propagator"])
@pytest.mark.parametrize("independent", [False, True])
def test_single_matches_scalar_reconstruction(gate_model, independent):
    p = pinned_single()
    spec = NoiseSpec(0.1, 0.05, independent=independent)
    rng = RngStream(321).child(1)
    est = estimate_single(p, spec, 6, 9, rng, gate_model=gate_model)
    want = reconstruct_single(p, spec, 6, 9, RngStream(321).child(1), gate_model)
    assert est.mean == pytest.approx(float(np.mean(want)), abs=1e-12)


@pytest.mark.parametrize("gate_model,independent", [("phase", False), ("propagator", True)])
def test_estimate_is_prefix_stable_in_n(gate_model, independent, monkeypatch):
    # state j reads row j of each block whatever n is: an estimate over n
    # states is the reconstruction over the first n rows of a longer block,
    # also when the states are read in chunks of two
    monkeypatch.setattr(fidelity, "_CHUNK_ELEMENTS", 2 * 6)
    p = pinned_single()
    spec = NoiseSpec(0.1, 0.05, independent=independent)
    rows = reconstruct_single(p, spec, 6, 9, RngStream(808).child(1), gate_model)
    for n in (1, 4, 5, 9):
        est = estimate_single(p, spec, 6, n, RngStream(808).child(1), gate_model=gate_model)
        assert est.mean == pytest.approx(float(np.mean(rows[:n])), abs=1e-12)
        if n > 1:
            want = float(np.std(rows[:n], ddof=1) / math.sqrt(n))
            assert est.stderr == pytest.approx(want, abs=1e-12)


def test_two_qubit_matches_scalar_reconstruction():
    p2 = two_qubit_from_alpha(20.0, 50.0, SQRT3)
    t = p2.target
    spec = NoiseSpec(0.1, 0.1)
    est = estimate_two_qubit(p2, spec, 5, 8, RngStream(99).child(2), control_mode="fixed0")
    ideal = block_diag(one_cycle_gate(shifted_target(p2, 0)),
                       one_cycle_gate(shifted_target(p2, 1)))
    chi0 = chi_angle(shifted_target(p2, 0))
    chi1 = chi_angle(shifted_target(p2, 1))
    states, noise = RngStream(99).child(2).child(0), RngStream(99).child(2).child(1)
    per_state = []
    for j in range(8):
        target = sample_input_state(states)
        psi = np.kron(np.array([1.0, 0.0], dtype=complex), target)
        u = relative_draws(noise, 5)
        shots = []
        for i in range(5):
            w0 = t.omega0 * (1.0 + 0.1 * u[i])
            blocks = []
            for sign, chi in ((-1.0, chi0), (+1.0, chi1)):
                wl = (t.omega1 + sign * p2.coupling_j) * (1.0 + 0.1 * u[i])
                gamma = -math.pi * (1.0 + math.hypot(w0, wl - t.omega) / t.omega)
                blocks.append(ideal_gate_u1(gamma, chi))
            shots.append(shot_fidelity(psi, ideal, block_diag(*blocks)))
        per_state.append(np.mean(shots))
    assert est.mean == pytest.approx(float(np.mean(per_state)), abs=1e-12)



@pytest.mark.parametrize("mode,gate_model", [
    ("unfixed", "phase"), ("unfixed", "propagator"), ("fixed1", "propagator"),
])
def test_two_qubit_modes_match_4x4_reconstruction(mode, gate_model):
    # full 4x4 products on kron input states: checks the control weighting,
    # the sampled-control draw order and where each model puts the +-J shift
    p2 = two_qubit_from_alpha(20.0, 50.0, SQRT3)
    t, j_c = p2.target, p2.coupling_j
    spec = NoiseSpec(0.1, 0.05, independent=True)
    base = RngStream(55).child(2)
    est = estimate_two_qubit(p2, spec, 5, 8, base, control_mode=mode, gate_model=gate_model)
    lo, hi = shifted_target(p2, 0), shifted_target(p2, 1)
    ideal = block_diag(one_cycle_gate(lo), one_cycle_gate(hi))
    states, noise = base.child(0), base.child(1)
    per_state = []
    for j in range(8):
        if mode == "unfixed":
            psi = sample_two_qubit_input(states)
        else:
            psi = np.kron(np.array([0.0, 1.0], dtype=complex), sample_input_state(states))
        u0 = relative_draws(noise, 5)
        u1 = relative_draws(noise, 5)
        shots = []
        for i in range(5):
            w0 = t.omega0 * (1.0 + 0.1 * u0[i])
            blocks = []
            for blk, sign in ((lo, -1.0), (hi, 1.0)):
                if gate_model == "propagator":
                    wl = t.omega1 * (1.0 + 0.05 * u1[i]) + sign * j_c
                    blocks.append(one_cycle_gate(DriveParams(t.omega, w0, wl)))
                else:
                    wl = blk.omega1 * (1.0 + 0.05 * u1[i])
                    gamma = -math.pi * (1.0 + math.hypot(w0, wl - t.omega) / t.omega)
                    blocks.append(ideal_gate_u1(gamma, chi_angle(blk)))
            shots.append(shot_fidelity(psi, ideal, block_diag(*blocks)))
        per_state.append(np.mean(shots))
    assert est.mean == pytest.approx(float(np.mean(per_state)), abs=1e-12)

def test_loop_order_exchange_bit_identical():
    # per-(state, shot) fidelities depend only on the rows read from the two
    # streams, so the noise-outer iteration reproduces the state-outer matrix
    # bit for bit
    p = pinned_single()
    spec = NoiseSpec(0.1, 0.1)
    m, n = 7, 5
    base = RngStream(2468).child(1)

    def shot_matrix(noise_outer):
        states, noise = base.child(0), base.child(1)
        psis = [sample_input_state(states) for j in range(n)]
        draws = [relative_draws(noise, m) for j in range(n)]
        i00, i01, i11 = one_cycle_gate(p).ravel()[[0, 1, 3]]
        chi = chi_angle(p)
        c2, s2 = math.cos(chi / 2) ** 2, math.sin(chi / 2) ** 2
        out = np.empty((n, m))
        pairs = (
            [(j, i) for i in range(m) for j in range(n)]
            if noise_outer
            else [(j, i) for j in range(n) for i in range(m)]
        )
        for j, i in pairs:
            w0 = p.omega0 * (1.0 + spec.delta0 * draws[j][i])
            w1 = p.omega1 * (1.0 + spec.delta1 * draws[j][i])
            gamma = -np.pi * (1.0 + np.hypot(w0, w1 - p.omega) / p.omega)
            g00 = np.exp(1j * gamma) * c2 + np.exp(-1j * gamma) * s2
            g01 = 1j * math.sin(chi) * np.sin(gamma)
            g11 = np.exp(1j * gamma) * s2 + np.exp(-1j * gamma) * c2
            psi = psis[j]
            q0 = i00 * psi[0] + i01 * psi[1]
            q1 = i01 * psi[0] + i11 * psi[1]
            amp = np.conj(q0) * (g00 * psi[0] + g01 * psi[1]) + np.conj(q1) * (
                g01 * psi[0] + g11 * psi[1])
            out[j, i] = min(abs(amp) ** 2, 1.0)
        return out

    a = shot_matrix(noise_outer=False)
    b = shot_matrix(noise_outer=True)
    np.testing.assert_array_equal(a, b)


# --- regression against large-sample references ----------------------------


def test_single_golden_regression():
    est = estimate_single(pinned_single(), NoiseSpec(0.1, 0.1), 500, 500,
                          RngStream(31337).child(1))
    band = 3.0 * math.hypot(est.stderr, GOLDEN_SINGLE[1])
    assert abs(est.mean - GOLDEN_SINGLE[0]) <= band


def test_two_qubit_golden_regression():
    p2 = two_qubit_from_alpha(20.0, 50.0, SQRT3)
    est = estimate_two_qubit(p2, NoiseSpec(0.1, 0.1), 500, 500,
                             RngStream(7777).child(2), control_mode="fixed0")
    band = 3.0 * math.hypot(est.stderr, GOLDEN_TWO_QUBIT[1])
    assert abs(est.mean - GOLDEN_TWO_QUBIT[0]) <= band


def test_byte_reproducibility():
    p = pinned_single()
    a = estimate_single(p, NoiseSpec(0.1, 0.1), 64, 64, RngStream(1).child(1))
    b = estimate_single(p, NoiseSpec(0.1, 0.1), 64, 64, RngStream(1).child(1))
    assert a == b


# --- deterministic quadrature oracle ----------------------------------------


def quadrature_fixed0(p2, delta0, delta1, nu=64, ntheta=24, nphi=24):
    """Exact average fidelity for a fixed-|0> control: averages the squared
    block-0 overlap over the shared relative deviation (Gauss-Legendre), a
    flat theta grid (Gauss-Legendre) and periodic phi (trapezoid), both
    orthogonal input forms weighted 1/2."""
    t = p2.target
    lo = shifted_target(p2, 0)
    ideal = one_cycle_gate(lo)
    chi = chi_angle(lo)
    c2, s2 = math.cos(chi / 2) ** 2, math.sin(chi / 2) ** 2
    xu, wu = np.polynomial.legendre.leggauss(nu)
    w0 = t.omega0 * (1.0 + delta0 * xu)
    wl = lo.omega1 * (1.0 + delta1 * xu)
    gamma = -np.pi * (1.0 + np.hypot(w0, wl - t.omega) / t.omega)
    g00 = np.exp(1j * gamma) * c2 + np.exp(-1j * gamma) * s2
    g01 = 1j * math.sin(chi) * np.sin(gamma)
    g11 = np.exp(1j * gamma) * s2 + np.exp(-1j * gamma) * c2

    xt, wt = np.polynomial.legendre.leggauss(ntheta)
    theta = 0.5 * math.pi * (xt + 1.0)
    phi = 2.0 * math.pi * np.arange(nphi) / nphi
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    wstate = np.outer(0.5 * wt, np.full(nphi, 1.0 / nphi)).ravel()
    c, s = np.cos(th.ravel() / 2.0), np.sin(th.ravel() / 2.0)
    em, ep = np.exp(-0.5j * ph.ravel()), np.exp(0.5j * ph.ravel())
    total = 0.0
    for p0, p1 in ((c * em, s * ep), (-s * em, c * ep)):
        q0 = ideal[0, 0] * p0 + ideal[0, 1] * p1
        q1 = ideal[1, 0] * p0 + ideal[1, 1] * p1
        amp = (np.conj(q0)[None, :] * (g00[:, None] * p0[None, :] + g01[:, None] * p1[None, :])
               + np.conj(q1)[None, :] * (g01[:, None] * p0[None, :] + g11[:, None] * p1[None, :]))
        total += 0.5 * float(((0.5 * wu)[:, None] * np.abs(amp) ** 2 * wstate[None, :]).sum())
    return total


def test_two_qubit_fixed0_matches_quadrature():
    p2 = two_qubit_from_alpha(20.0, 50.0, SQRT3)
    exact = quadrature_fixed0(p2, 0.1, 0.1)
    # quadrature must be self-converged well below the MC band
    assert abs(exact - quadrature_fixed0(p2, 0.1, 0.1, nu=48, ntheta=20, nphi=16)) <= 1e-9
    est = estimate_two_qubit(p2, NoiseSpec(0.1, 0.1), 500, 500,
                             RngStream(424242).child(2), control_mode="fixed0")
    assert abs(est.mean - exact) <= 3.0 * est.stderr


# --- convergence -------------------------------------------------------------


def test_stderr_scaling_slope():
    # two-level averaging: stderr is measured across per-state means, so with
    # m fixed it falls as 1/sqrt(n) = 1/sqrt(m*n)
    p = pinned_single()
    m = 10
    ns = [10, 100, 1000, 10000]
    errs = [
        estimate_single(p, NoiseSpec(0.1, 0.1), m, n, RngStream(13).child(1)).stderr
        for n in ns
    ]
    slope = np.polyfit(np.log10([m * n for n in ns]), np.log10(errs), 1)[0]
    assert -0.6 <= slope <= -0.4

