"""The numpy-only numerical kernels of degenstein.coeffs.

The package imports no scipy: the monotone cubic `_Pchip` and the
Gauss-Kronrod integrators (`_quad_segments`, one K21 pass over all segments
that hands the segments missing the tolerance to the adaptive
`_quad_segment`) replace `scipy.interpolate.PchipInterpolator` and
`scipy.integrate.quad`.  scipy stays a test-time oracle here: the
interpolant must match PchipInterpolator to 1e-13 of the data scale, the
quadrature must match quad on the catalog integrands, and whole tables built
through the numpy kernels must match tables built with PchipInterpolator and
with every segment integrated by quad, the G pass's two K21 columns
included (1e-13 relative on the catalog, 1e-8 on the quadrature-built
exp_zeta rate, inside its 10*QUAD_TOL build tolerance).  The one-pass integrator is also checked against the
per-segment loop it replaced, and whole tables against that loop plus the
15-point Gauss-Legendre G pass it replaced (1e-13 relative).  The import
guard and the QuadratureError paths need no scipy.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import degenstein
from degenstein import coeffs
from degenstein.checker import PROFILES, _zeta_slow
from degenstein.coeffs import (COLUMNS, LambdaChoice, _gauss_kronrod, _Pchip,
                               _quad_segment, _quad_segments, build_table,
                               exp_zeta_profile, power_profile)
from degenstein.errors import QuadratureError


# ----------------------------------------------------------- import guard

def _scipy_modules_after(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(degenstein.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = (code + "\nimport sys\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


class TestImportGuard:
    def test_import_pulls_in_no_scipy(self):
        # resolving every re-export runs the lazily loaded modules too
        code = ("import degenstein\n"
                "for name in degenstein.__all__:\n"
                "    getattr(degenstein, name)\n")
        assert _scipy_modules_after(code) == "[]"

    def test_cli_help_pulls_in_no_scipy(self):
        code = ("import runpy, sys\n"
                "sys.argv = ['degenstein', '--help']\n"
                "try:\n"
                "    runpy.run_module('degenstein.cli', run_name='__main__')\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0\n")
        assert _scipy_modules_after(code) == "[]"


# ------------------------------------------------------------- quadrature

class TestGaussKronrod:
    @pytest.mark.parametrize("degree", range(0, 32))
    def test_rules_exact_on_polynomials(self, degree):
        # K21 integrates degree <= 31 exactly and G10 degree <= 19, so the
        # error estimate vanishes exactly where G10 is exact too
        a, b = np.array([-0.5]), np.array([1.5])
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        val, err = _gauss_kronrod(lambda x: x ** degree, a, b)
        scale = max(abs(float(exact[0])), 1.0)
        assert abs(val[0] - exact[0]) <= 1e-13 * scale
        if degree <= 19:
            assert err[0] <= 1e-13 * scale
        else:
            assert err[0] > 0.0

    def test_adaptive_bisection_resolves_a_sharp_peak(self):
        # one K21 panel cannot resolve a peak of width 1e-3; bisection must
        c = 1e-3
        val, err = _quad_segment(lambda x: 1.0 / (c * c + x * x), -1.0, 1.0,
                                 1e-10)
        exact = 2.0 / c * np.arctan(1.0 / c)
        assert abs(val / exact - 1.0) <= 1e-10
        assert err <= 1e-10 * val

    def test_scalar_valued_integrand_is_broadcast(self):
        val, _ = _quad_segment(lambda x: 2.0, 0.0, 3.0, 1e-10)
        assert val == pytest.approx(6.0, rel=1e-15)

    def test_overflow_asks_for_larger_s_min(self):
        with pytest.raises(QuadratureError, match="raise s_min"):
            _quad_segment(np.exp, 0.0, 1000.0, 1e-8)

    def test_non_finite_value_diverges(self):
        with pytest.raises(QuadratureError, match="diverged"):
            _quad_segment(lambda x: np.full_like(x, np.nan), 0.0, 1.0, 1e-8)

    def test_non_integrable_singularity_stalls(self):
        # 1/x on (0, 1]: every bisection of the first panel adds ln 2, so
        # the error estimate never falls below the tolerance
        with pytest.raises(QuadratureError, match="stalled"):
            _quad_segment(lambda x: 1.0 / x, 0.0, 1.0, 1e-8)


# ---------------------------------------------------------- scipy oracles

@pytest.fixture(scope="module")
def scipy_interpolate():
    return pytest.importorskip("scipy.interpolate")


@pytest.fixture(scope="module")
def scipy_integrate():
    return pytest.importorskip("scipy.integrate")


def _nodes(kind, n=24):
    if kind == "uniform":
        return np.linspace(-3.0, 2.0, n)
    rng = np.random.default_rng(7)
    return np.cumsum(rng.uniform(0.05, 1.0, n)) - 4.0


def _data(kind, x):
    if kind == "monotone":
        return np.exp(0.7 * x) + x
    if kind == "non_monotone":
        return np.sin(1.7 * x) + 0.3 * x ** 2
    # flat segments and a sign change of the secants
    y = np.round(np.sin(x), 1)
    y[5:9] = y[5]
    return y


def _queries(x):
    inner = np.linspace(x[0], x[-1], 1001)
    outside = np.array([x[0] - 0.3, x[0] - 1e-12, x[-1] + 1e-12, x[-1] + 0.3])
    return np.concatenate([x, inner, outside])


class TestPchipMatchesScipy:
    @pytest.mark.parametrize("nodes", ["uniform", "non_uniform"])
    @pytest.mark.parametrize("data", ["monotone", "non_monotone", "flat"])
    def test_values_and_node_slopes(self, scipy_interpolate, nodes, data):
        x = _nodes(nodes)
        y = _data(data, x)
        ref = scipy_interpolate.PchipInterpolator(x, y)
        ours = _Pchip(x, y)
        q = _queries(x)
        got = ours(q)
        want = ref(q)
        scale = np.max(np.abs(y))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        # nodes are reproduced and the end slopes are PCHIP's
        assert np.max(np.abs(got[:x.size] - y)) <= 1e-13 * scale
        slopes = ref.derivative()(x)
        assert np.max(np.abs(ours.slopes - slopes)) \
            <= 1e-13 * max(np.max(np.abs(slopes)), 1.0)

    def test_shape_contract(self):
        x = _nodes("uniform")
        itp = _Pchip(x, _data("monotone", x))
        assert itp(np.full((4, 5), 0.25)).shape == (4, 5)
        assert itp(0.25).shape == ()


def _clamp_path(itp, x, q):
    """_Pchip's earlier call, kept as the bit-for-bit reference: the
    segment index of a search in all nodes clamped to [0, nseg - 1] on both
    sides, the left nodes and the coefficient rows gathered apart, on a
    raveled query."""
    nseg = x.size - 1
    c = itp._block[1:]
    q = np.asarray(q, dtype=float)
    qf = q.ravel()
    i = np.clip(x.searchsorted(qf, side="right") - 1, 0, nseg - 1)
    dx = qf - x.take(i)
    c = c.take(i, axis=1)
    out = ((c[0] * dx + c[1]) * dx + c[2]) * dx + c[3]
    return out.reshape(q.shape)


class TestPchipGather:
    """One gather per call against the clamp path, bit for bit."""

    @pytest.mark.parametrize("nodes", ["uniform", "non_uniform"])
    def test_matches_the_clamp_path(self, nodes):
        x = _nodes(nodes)
        itp = _Pchip(x, _data("non_monotone", x))
        below, above = np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf)
        q = np.concatenate([
            x, 0.5 * (x[1:] + x[:-1]),                   # every node, midpoints
            [x[0], x[-1], below, above,                  # the ends, roundoff
             x[0] - 1e-12, x[-1] + 1e-12,                # slack
             x[0] - 0.3, x[-1] + 0.3, x[0] - 50.0, x[-1] + 50.0]])
        for qs in (q, q[:q.size // 2 * 2].reshape(2, -1)):
            got = itp(qs)
            want = _clamp_path(itp, x, qs)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        for point in (x[0], x[-1], below, 0.37):
            assert np.array_equal(itp(point), _clamp_path(itp, x, point))

    # two stored columns, F and h, whose quotient is the profile's P
    @pytest.mark.parametrize("column", ["F", "h"])
    def test_table_evaluation_at_the_domain_edges(self, beta1_table, column):
        tab = beta1_table
        lo, hi = tab.s_min, tab.M
        s = np.concatenate([tab.s, np.geomspace(lo, hi, 777),
                            [lo * (1.0 - 5e-13), hi * (1.0 + 5e-13)]])
        _, itp = tab._interpolator(column)
        want = np.exp(_clamp_path(itp, np.log(tab.s),
                                  np.log(np.clip(s, lo, hi))))
        assert np.array_equal(tab.eval(column, s), want)


class TestPchipNodes:
    """A query at node x[i], i < nseg, lands in segment i at dx = 0 and
    returns y[i] exactly, on uniform nodes as on others; x[-1] is the right
    end of the last cubic, which returns y[-1] to roundoff."""

    @pytest.mark.parametrize("nodes", ["uniform", "non_uniform"])
    @pytest.mark.parametrize("data", ["monotone", "non_monotone", "flat"])
    def test_exact_at_every_node_but_the_last(self, nodes, data):
        x = _nodes(nodes)
        y = _data(data, x)
        itp = _Pchip(x, y)
        assert np.array_equal(itp(x[:-1]), y[:-1])
        assert itp(x[-1]) == pytest.approx(y[-1], rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("column", COLUMNS[1:])
    def test_table_interpolants_on_their_log_nodes(self, beta1_table, column):
        # the table's uniform log grid; positive columns in log value
        log, itp = beta1_table._interpolator(column)
        y = beta1_table.column(column)
        y = np.log(y) if log else y
        assert np.array_equal(itp(np.log(beta1_table.s[:-1])), y[:-1])


class _ScipyPchip:
    """PchipInterpolator behind _Pchip's call contract."""

    def __init__(self, x, y):
        from scipy.interpolate import PchipInterpolator
        self._itp = PchipInterpolator(x, y)
        self.slopes = self._itp.derivative()(x)

    def __call__(self, x):
        return self._itp(x)


def _scipy_quad_segment(fn, a, b, tol):
    """QUADPACK reference with _quad_segment's error contract."""
    from scipy import integrate
    with np.errstate(over="raise"):
        try:
            val, err = integrate.quad(lambda t: float(fn(t)), a, b,
                                      epsabs=0.0, epsrel=tol, limit=200)
        except FloatingPointError as exc:
            raise QuadratureError("overflow; raise s_min") from exc
    if not np.isfinite(val) or err > 10.0 * tol * max(abs(val), 1e-300):
        raise QuadratureError("reference quadrature failed")
    return val, err


def _scipy_quad_segments(fn, edges, tol):
    """QUADPACK on every segment, in place of the one K21 pass."""
    return np.array([_scipy_quad_segment(fn, a, b, tol)[0]
                     for a, b in zip(edges[:-1], edges[1:])])


@pytest.fixture
def scipy_kernels(monkeypatch, scipy_interpolate, scipy_integrate):
    """Route coeffs through PchipInterpolator and quad while active: the
    profile, I and G integrals all come from QUADPACK.  use() returns the
    segment counts of the calls build_table's G pass made to
    `_gauss_kronrod`, so a test can check that G really went through quad,
    and the query sizes of every call the oracle interpolant served, so a
    path that bypassed it would fail instead of checking nothing."""
    g_calls, pchip_calls = [], []

    class CountingPchip(_ScipyPchip):
        def __call__(self, x):
            pchip_calls.append(np.size(x))
            return super().__call__(x)

    def gauss_kronrod(fn, a, b):
        # QUADPACK on every [a_j, b_j] behind _gauss_kronrod's contract
        g_calls.append(a.size)
        return (np.array([_scipy_quad_segment(fn, x, y, 1e-13)[0]
                          for x, y in zip(a, b)]), np.zeros(a.size))

    def use():
        monkeypatch.setattr(coeffs, "_Pchip", CountingPchip)
        monkeypatch.setattr(coeffs, "_quad_segments", _scipy_quad_segments)
        monkeypatch.setattr(coeffs, "_gauss_kronrod", gauss_kronrod)
        return g_calls, pchip_calls
    return use


def _max_rel(a, b):
    return max(float(np.max(np.abs(a.column(c) / b.column(c) - 1.0)))
               for c in COLUMNS if c != "s")


class TestQuadratureMatchesScipy:
    @pytest.mark.parametrize("entry", PROFILES.values(), ids=lambda e: e.name)
    def test_catalog_integrands(self, scipy_integrate, entry):
        prof = entry.make_profile()
        edges = np.linspace(np.log(prof.s_min_hint), np.log(prof.M), 9)

        def inv_sP(t):
            return 1.0 / prof(np.exp(t))

        for a, b in zip(edges, edges[1:]):
            got, _ = _quad_segment(inv_sP, a, b, 1e-10)
            want, _ = scipy_integrate.quad(lambda t: float(inv_sP(t)), a, b,
                                           epsabs=0.0, epsrel=1e-12)
            assert abs(got / want - 1.0) <= 1e-13


class TestTablesMatchScipyPath:
    @pytest.mark.parametrize("entry", PROFILES.values(), ids=lambda e: e.name)
    def test_catalog_tables(self, scipy_kernels, entry):
        lam = LambdaChoice(1.0)
        ours = build_table(entry.make_profile(), lam)
        g_calls, pchip_calls = scipy_kernels()
        ref = build_table(entry.make_profile(), lam)
        # sqrt(F') and F' over every segment, both through quad, with the
        # F' model read through PchipInterpolator
        assert g_calls == [ref.s.size - 1] * 2
        assert pchip_calls
        assert np.array_equal(ours.s, ref.s)
        assert _max_rel(ours, ref) <= 1e-13

    def test_quadrature_built_rate(self, scipy_kernels):
        # no closed form for int zeta(r)/r dr: the profile itself is built
        # by quadrature on 2048 log nodes and read back through the cubic
        def make():
            prof = exp_zeta_profile(_zeta_slow, kind="exp_zeta_slow",
                                    s_min_hint=1e-8)
            return build_table(prof, LambdaChoice(1.0))

        ours = make()
        g_calls, pchip_calls = scipy_kernels()
        ref = make()
        assert g_calls == [ref.s.size - 1] * 2
        assert pchip_calls
        assert _max_rel(ours, ref) <= 1e-8


# ------------------------------------------- one pass against the loops

_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)


def _segment_loop(fn, edges, tol):
    """Reference: `_quad_segment` on each segment in turn."""
    return np.array([_quad_segment(fn, a, b, tol)[0]
                     for a, b in zip(edges[:-1], edges[1:])])


def _gauss_legendre_G(tab):
    """Reference G: build_table's endpoint piece, then per segment the
    15-point Gauss-Legendre integrals of sqrt(F') and F' of the F'
    interpolant, rescaled to the exact F increment and added in order."""
    s, F, Fp = tab.s, tab.F, tab.Fprime
    _, itp = tab._interpolator("Fprime")
    q0 = float(itp.slopes[0])
    G = np.empty(s.size)
    G[0] = np.sqrt(F[0] * (q0 + 1.0) / (Fp[0] * s[0]) * Fp[0]) * s[0] \
        / (q0 / 2.0 + 1.0)
    for i in range(s.size - 1):
        mid, half = 0.5 * (s[i] + s[i + 1]), 0.5 * (s[i + 1] - s[i])
        log_fp = itp(np.log(mid + half * _GL_X))
        raw_g = half * float(np.sum(_GL_W * np.exp(0.5 * log_fp)))
        raw_f = half * float(np.sum(_GL_W * np.exp(log_fp)))
        G[i + 1] = G[i] + np.sqrt((F[i + 1] - F[i]) / raw_f) * raw_g
    return G


def _zeta_slow_by_quadrature():
    return exp_zeta_profile(_zeta_slow, kind="exp_zeta_slow", s_min_hint=1e-8)


_TABLE_CASES = [pytest.param(e.make_profile, 1.0, {},
                             id=e.name) for e in PROFILES.values()] + [
    pytest.param(lambda: power_profile(2.0), 1.0, {}, id="power_beta2"),
    pytest.param(_zeta_slow_by_quadrature, 1.0, {},
                 id="exp_zeta_slow_quadrature"),
]


class TestOnePassMatchesSegmentLoops:
    @pytest.mark.parametrize("make, Lambda, opts", _TABLE_CASES)
    def test_tables(self, monkeypatch, make, Lambda, opts):
        ours = build_table(make(), LambdaChoice(Lambda), **opts)
        # the profile (for the rate kind without a closed form) and I
        # through the per-segment loop, G through the Gauss-Legendre loop
        monkeypatch.setattr(coeffs, "_quad_segments", _segment_loop)
        ref = build_table(make(), LambdaChoice(Lambda), **opts)
        ref.G = _gauss_legendre_G(ref)
        assert np.array_equal(ours.s, ref.s)
        assert _max_rel(ours, ref) <= 1e-13

    def test_sharp_peak_is_bisected_where_it_misses(self, monkeypatch):
        c, tol = 1e-3, 1e-10

        def peak(x):
            return 1.0 / (c * c + x * x)

        edges = np.linspace(-1.0, 1.0, 9)
        want = _segment_loop(peak, edges, tol)
        refined = []

        def spy(fn, a, b, tol):
            refined.append((a, b))
            return _quad_segment(fn, a, b, tol)

        monkeypatch.setattr(coeffs, "_quad_segment", spy)
        got = _quad_segments(peak, edges, tol)
        # only the two segments at the peak miss the one-panel test
        assert refined == [(-0.25, 0.0), (0.0, 0.25)]
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13
        exact = 2.0 / c * np.arctan(1.0 / c)
        assert abs(got.sum() / exact - 1.0) <= 1e-10

    @pytest.mark.parametrize("fn, edges, match", [
        (np.exp, [0.0, 100.0, 200.0, 300.0, 800.0],
         r"integrand overflow on \[300, 800\]; raise s_min"),
        # an overflow that leaves no trace in the values: min(inf, 1) = 1
        (lambda x: np.minimum(np.exp(x), 1.0),
         [0.0, 100.0, 200.0, 300.0, 800.0],
         r"integrand overflow on \[300, 800\]; raise s_min"),
        (lambda x: np.where((x > 0.5) & (x < 0.75), np.nan, 1.0),
         [0.0, 0.25, 0.5, 0.75, 1.0], r"diverged on \[0\.5, 0\.75\]"),
    ], ids=["overflow", "hidden-overflow", "nan"])
    def test_failure_names_the_segment(self, fn, edges, match):
        edges = np.array(edges)
        with pytest.raises(QuadratureError, match=match) as want:
            _segment_loop(fn, edges, 1e-8)
        with pytest.raises(QuadratureError, match=match) as got:
            _quad_segments(fn, edges, 1e-8)
        assert str(got.value) == str(want.value)
