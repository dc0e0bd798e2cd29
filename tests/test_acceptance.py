"""Acceptance suite: one test per certified criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines.  Every tolerance is pinned here, not configurable.
"""

import time

import numpy as np

from liemetric import (
    DoubleExtensionSpec,
    Tolerance,
    catalog,
    central_extension_metric,
    change_basis,
    check_parallel_conditions,
    classify_ricci,
    complexify,
    connection,
    decompose_double_extension,
    double_extension,
    extension_invariants,
    is_einstein,
    is_ricci_flat,
    is_ricci_parallel,
    killing_form,
    metric_adjoint,
    ricci,
    ricci_structural,
    two_step_parallel,
    type_I_decomposition,
    type_I_metric,
    verify_isometry,
)
from sampling import (
    ABELIAN_FAMILIES,
    NILPOTENT_FAMILIES,
    random_abelian_extension_spec,
    random_general_extension_spec,
    random_metric_lie_algebra,
    random_nilpotent_extension_spec,
)

from conftest import make_affine, make_heisenberg, make_sl2


def _criterion(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# closed-form oracles for the double-extension connection and Ricci operator
# ---------------------------------------------------------------------------


def closed_form_connection(spec):
    base = spec.base
    n, dim = base.dim, base.dim + 2
    g0 = base.gram
    d, k, lv = spec.D, spec.K, spec.L
    ds = metric_adjoint(d, base.metric)
    out = np.zeros((dim, dim, dim))
    out[0, 0, 2:] = -lv
    out[0, 2:, 2:] = (0.5 * (d - ds - k)).T
    out[0, 2:, 1] = g0 @ lv
    out[2:, 0, 2:] = (-0.5 * (d + ds + k)).T
    out[2:, 2:, 2:] = connection(base)
    out[2:, 2:, 1] = 0.5 * ((d + ds + k).T @ g0)
    return out


def closed_form_ricci_operator(spec):
    base = spec.base
    dim = base.dim + 2
    inv = extension_invariants(spec)
    out = np.zeros((dim, dim))
    out[2:, 0] = inv.delta
    out[1, 0] = inv.gamma
    out[2:, 2:] = ricci(base).operator
    out[1, 2:] = base.gram @ inv.delta
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_heisenberg_nilsoliton():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 6):
        m = catalog("heisenberg", n=n)
        op = ricci(m).operator
        eig = np.sort(np.linalg.eigvalsh(0.5 * (op + op.T)))
        expected = np.sort([-1.0 / (n + 2)] * (2 * n) + [n / (n + 2.0)])
        worst = max(worst, float(np.max(np.abs(eig - expected))))
    elapsed = time.perf_counter() - t0
    _criterion(1, "Heisenberg nilsoliton spectrum for n = 1..5",
               worst <= 1e-9 and elapsed < 1.0,
               f"worst eigenvalue error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_rank_one_einstein_extension():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 5):
        m = catalog("einstein_solvable", n=n)
        worst = max(worst, float(np.max(np.abs(ricci(m).tensor + m.gram))))
    elapsed = time.perf_counter() - t0
    _criterion(2, "rank-one Einstein extension has ric = -metric for n = 1..4",
               worst <= 1e-9 and elapsed < 1.0,
               f"worst |ric + G| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_ad_invariant_specialization():
    worst_ric = worst_conn = 0.0
    parallel_ok = True
    for n in (2, 3):
        m = catalog("sl_killing", n=n)
        dim = m.dim
        worst_ric = max(worst_ric, float(np.max(np.abs(ricci(m).operator + 0.25 * np.eye(dim)))))
        worst_conn = max(worst_conn, float(np.max(np.abs(connection(m) - 0.5 * m.algebra.tensor))))
        parallel_ok = parallel_ok and is_ricci_parallel(m).ok
    _criterion(3, "sl(n) with Killing metric: Ric = -Id/4, nabla = ad/2, parallel",
               worst_ric <= 1e-9 and worst_conn <= 1e-12 and parallel_ok,
               f"|Ric + I/4| {worst_ric:.2e}, |nabla - ad/2| {worst_conn:.2e}")


def test_criterion_04_ricci_oracle_equivalence():
    rng = np.random.default_rng(20240404)
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    while count < 200:
        dim = int(rng.integers(2, 7))
        sigs = [(0, dim), (1, dim - 1), (2, dim - 2)]
        sig = sigs[count % 3]
        m = random_metric_lie_algebra(rng, dim, sig)
        res = float(np.max(np.abs(ricci(m).tensor - ricci_structural(m))))
        worst = max(worst, res / m.residual_scale())
        count += 1
    elapsed = time.perf_counter() - t0
    _criterion(4, "trace-path and orthonormal-formula Ricci agree on 200 random inputs",
               worst <= 1e-9 and elapsed < 10.0,
               f"worst scaled residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_closed_form_connection_and_ricci():
    rng = np.random.default_rng(20240405)
    worst = 0.0
    for _ in range(100):
        spec = random_general_extension_spec(rng)
        m = double_extension(spec)
        worst = max(worst, float(np.max(np.abs(connection(m) - closed_form_connection(spec)))))
        worst = max(worst, float(np.max(np.abs(ricci(m).operator - closed_form_ricci_operator(spec)))))
    _criterion(5, "closed-form connection and Ricci match computed ones on 100 specs",
               worst <= 1e-9, f"worst residual {worst:.2e}")


def test_criterion_06_abelian_extensions_parallel_and_type_ii():
    rng = np.random.default_rng(20240406)
    tol = Tolerance(abs=1e-8, rel=1e-9, rank=1e-8)
    worst = 0.0
    type_ii_checked = 0
    all_type_ii = True
    for i in range(100):
        dim = int(rng.integers(2, 7))
        spec = random_abelian_extension_spec(rng, dim, ABELIAN_FAMILIES[i % 3], tol)
        m = double_extension(spec)
        check = is_ricci_parallel(m)
        worst = max(worst, check.residual)
        gamma = extension_invariants(spec).gamma
        if abs(gamma) > 1e-6:
            type_ii_checked += 1
            all_type_ii = all_type_ii and classify_ricci(m).tag == "type_II"
    _criterion(6, "100 abelian-base extensions are Ricci-parallel; nonzero-Gamma ones are type II",
               worst <= 1e-8 and all_type_ii and type_ii_checked >= 30,
               f"worst parallel residual {worst:.2e}, {type_ii_checked} type-II checks")


def test_criterion_07_condition_certificate_equivalence():
    rng = np.random.default_rng(20240407)
    tol = Tolerance(abs=1e-8, rel=1e-9, rank=1e-8)
    affine = catalog("affine_plane", tol)
    h1 = catalog("heisenberg", tol, n=1)

    specs = []
    for i in range(50):
        specs.append(random_abelian_extension_spec(rng, int(rng.integers(2, 6)), ABELIAN_FAMILIES[i % 3], tol))
    specs.append(DoubleExtensionSpec(affine, np.diag([0.0, 1.0]), np.zeros((2, 2)), np.zeros(2)))
    specs.append(DoubleExtensionSpec(affine, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2)))

    violators = []
    for _ in range(25):
        t = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        s = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        violators.append(DoubleExtensionSpec(affine, t * np.diag([0.0, 1.0]), np.zeros((2, 2)), [s, 0.0]))
    for _ in range(25):
        x = rng.normal(size=3)
        lvec = np.zeros(3)
        lvec[:2] = rng.normal(size=2)  # orthogonal to the derived line span(Z)
        violators.append(DoubleExtensionSpec(h1, h1.algebra.ad(x), np.zeros((3, 3)), lvec))

    agreements = satisfied = violated = 0
    total = 0
    delta_example_ok = False
    for spec in specs + violators:
        report = check_parallel_conditions(spec)
        direct = is_ricci_parallel(double_extension(spec))
        total += 1
        if report.ok == direct.ok:
            agreements += 1
        if report.ok:
            satisfied += 1
        else:
            violated += 1
    inv = extension_invariants(specs[50])  # the affine D = diag(0,1) instance
    delta_example_ok = np.allclose(inv.delta, [-1.0, 0.0], atol=1e-12)
    _criterion(7, "five-condition certificate agrees with the direct parallel check",
               agreements == total and satisfied >= 50 and violated >= 50 and delta_example_ok,
               f"{agreements}/{total} agree, {satisfied} satisfying, {violated} violating")


def test_criterion_08_type_I_round_trip():
    base = catalog("affine_plane")
    ok = True
    details = []
    for lam, mu in [(0.0, 1.0), (1.0, 1.0), (-3.0, 5.0), (2.0, -7.0)]:
        m = type_I_metric(base, lam, mu)
        cls = classify_ricci(m)
        ok = ok and cls.tag == "type_I"
        ok = ok and abs(cls.lam - lam) <= 1e-7 and abs(cls.mu - abs(mu)) <= 1e-7
        dec = type_I_decomposition(m)
        res = dec.residuals
        ok = ok and res["reconstruction"] <= 1e-8
        ok = ok and res["einstein_constant"] <= 1e-8
        ok = ok and res["complex_structure"] <= 1e-9
        ok = ok and res["parallel"] <= 1e-8
        details.append(f"({lam:g},{mu:g}): recon {res['reconstruction']:.1e}")
    _criterion(8, "type-I metrics round-trip through classification and decomposition",
               ok, "; ".join(details))


def test_criterion_09_complexification():
    sl2 = catalog("sl_killing", n=2)
    m1, _ = complexify(sl2)
    p1 = is_ricci_parallel(m1)
    ok = p1.ok and p1.residual <= 1e-8

    base2 = central_extension_metric(make_affine())
    c2, _ = is_einstein(base2)
    m2, _ = complexify(base2)
    p2 = is_ricci_parallel(m2)
    ok = ok and c2 is None  # a Ricci-parallel but non-Einstein base
    ok = ok and p2.ok and p2.residual <= 1e-8

    m3, _ = complexify(catalog("affine_plane"))
    c3, _ = is_einstein(m3)
    ok = ok and c3 is not None and abs(c3 + 2.0) <= 1e-9
    _criterion(9, "complexification preserves parallelism and doubles the Einstein constant",
               ok, f"doubled constant {c3}")


def test_criterion_10_lorentz_type_ii_decomposition():
    rng = np.random.default_rng(20240410)
    worst = 0.0
    done = 0
    attempts = 0
    while done < 50 and attempts < 500:
        attempts += 1
        dim = int(rng.integers(2, 7))
        spec = random_nilpotent_extension_spec(rng, dim, NILPOTENT_FAMILIES[attempts % 3])
        m = double_extension(spec)
        if classify_ricci(m).tag != "type_II":
            continue
        dec = decompose_double_extension(m)
        rebuilt = double_extension(dec.spec)
        mc = change_basis(m, dec.basis)
        worst = max(worst, float(np.max(np.abs(mc.algebra.tensor - rebuilt.algebra.tensor))))
        worst = max(worst, float(np.max(np.abs(mc.gram - rebuilt.gram))))
        worst = max(worst, 0.0 if verify_isometry(dec.basis, rebuilt, m).ok else np.inf)
        done += 1

    # dimensions 3 and 4: non-nilpotent instances must also decompose
    small_ok = True
    for spec in (
        DoubleExtensionSpec(catalog("abelian", p=0, q=1), [[1.3]], [[0.0]], [0.4]),
        DoubleExtensionSpec(catalog("abelian", p=0, q=2), 0.8 * np.eye(2), np.zeros((2, 2)), np.zeros(2)),
    ):
        m = double_extension(spec)
        dec = decompose_double_extension(m)
        rebuilt = double_extension(dec.spec)
        small_ok = small_ok and verify_isometry(dec.basis, rebuilt, m).ok
    _criterion(10, "50 nilpotent Lorentz type-II metrics decompose and rebuild exactly",
               done == 50 and worst <= 1e-8 and small_ok,
               f"worst rebuild residual {worst:.2e}, dims 3-4 ok: {small_ok}")


def test_criterion_11_split_central_extension_identities():
    ok = True
    details = []
    for name, alg in (("H1", make_heisenberg(1)), ("sl2", make_sl2()), ("affine", make_affine())):
        m = central_extension_metric(alg)
        kg = killing_form(m.algebra)
        res = float(np.max(np.abs(ricci(m).tensor + 0.5 * kg)))
        flat, _ = is_ricci_flat(m)
        k_zero = float(np.max(np.abs(kg))) <= 1e-9
        ok = ok and res <= 1e-9 and is_ricci_parallel(m).ok and (flat == k_zero)
        details.append(f"{name}: |ric + K/2| {res:.1e}, flat={flat}")
    _criterion(11, "split central extensions satisfy ric = -K/2, parallel, flat iff K = 0",
               ok, "; ".join(details))


def test_criterion_12_two_step_parallel_witnesses():
    # minimal presentation of H_1 (dimension 3)
    theta1 = np.zeros((2, 2, 1))
    theta1[0, 1, 0] = 1.0
    theta1[1, 0, 0] = -1.0
    h1_min = two_step_parallel(1, (0, 1), [np.zeros((1, 1))], theta=theta1)

    # presentation of H_1 with its bracket realised by a derivation
    d = np.zeros((2, 2))
    d[1, 0] = 1.0
    h1_der = two_step_parallel(2, (0, 2), [d])

    # presentation of H_2: two commuting derivations hitting a common centre
    d1 = np.zeros((3, 3))
    d1[2, 0] = 1.0
    d2 = np.zeros((3, 3))
    d2[2, 1] = 1.0
    h2_der = two_step_parallel(3, (0, 3), [d1, d2])

    ok = True
    max_ric = 0.0
    for m in (h1_min, h1_der, h2_der):
        check = is_ricci_parallel(m)
        ok = ok and check.ok and check.residual <= 1e-8
        max_ric = max(max_ric, float(np.max(np.abs(ricci(m).operator))))
    ok = ok and max_ric > 1e-3
    _criterion(12, "two-step presentations of H_1 and H_2 are Ricci-parallel, one non-flat",
               ok, f"largest |Ric| {max_ric:.3f}")
