"""End-to-end acceptance gate: nine numbered criteria, one verdict line each.

Each test prints "criterion N: PASS/FAIL -- description (elapsed)"; the
conftest terminal-summary hook repeats all lines after the run.
"""

import json
import math
import time

import numpy as np

from spinbench.channel_lab import (
    ProgramChannel,
    average_fidelity_mc,
    entanglement_fidelity,
    haar_state,
)
from spinbench.closed_forms import (
    coupling_angle,
    mo_benchmark,
    optimal_fidelity,
)
from spinbench.cli import main
from spinbench.covariant_opt import locate_transition, maximize_covariant_fidelity
from spinbench.protocols import (
    heisenberg_gate,
    simulate_mo_strategy,
    simulate_optimal_qubit_strategy,
    simulate_spin_k,
    simulate_spin_k_mo,
)
from spinbench.recycling import ProgramDistribution, advantage_longevity, complementary_step
from spinbench.spin_algebra import (
    Direction,
    HalfInteger,
    make_spin_operators,
    rotation_unitary,
    spin_coherent_state,
)

PI = math.pi
RESULTS = []


def _check(num, desc, ok, t0):
    line = "criterion %d: %s -- %s (%.1fs)" % (
        num, "PASS" if ok else "FAIL", desc, time.perf_counter() - t0)
    RESULTS.append(line)
    print(line)
    assert ok, line


def test_criterion_1_headline_numbers():
    t0 = time.perf_counter()
    ok = abs(optimal_fidelity(1.5, PI).value - 17 / 24) < 1e-12
    ok &= abs(mo_benchmark(1.5, PI).value - 29 / 45) < 1e-12
    sim = simulate_optimal_qubit_strategy(1.5, PI)
    ok &= abs(sim.average - 17 / 24) < 1e-9
    ok &= abs(simulate_mo_strategy(1.5, PI) - 29 / 45) < 1e-15
    _check(1, "headline fidelities 17/24 and 29/45, exact and simulated", ok, t0)


def test_criterion_2_simulation_matches_closed_form():
    t0 = time.perf_counter()
    thetas = np.linspace(0.0, PI, 26)[1:]
    worst = 0.0
    for two_j in range(3, 21):
        j = HalfInteger(two_j)
        for theta in thetas:
            got = simulate_optimal_qubit_strategy(j, float(theta)).average
            worst = max(worst, abs(got - optimal_fidelity(j, float(theta)).value))
    ok = worst <= 1e-9
    _check(2, "closed form vs channel simulation, 18 spins x 25 angles "
              "(max dev %.1e)" % worst, ok, t0)


def test_criterion_3_covariant_machinery():
    t0 = time.perf_counter()
    ok = True
    for j, theta in ((1.5, PI), (2.0, 2.0), (2.5, 1.2), (3.0, 2.6)):
        fe, _, _ = maximize_covariant_fidelity(j, theta)
        ok &= abs((2 * fe + 1) / 3 - optimal_fidelity(j, theta).value) < 1e-12
    fe_half, _, _ = maximize_covariant_fidelity(0.5, PI)
    ok &= abs((2 * fe_half + 1) / 3 - 5.0 / 9.0) < 1e-12
    theta_half = PI - locate_transition(0.5)
    ok &= abs(math.cos(theta_half) + (4.0 + math.sqrt(7.0)) / 9.0) < 1e-10
    disp_one = locate_transition(1.0)
    # where the coherent branch meets the central one: 49c^2 + 2c - 26 = 0
    ok &= abs(disp_one - math.acos((1.0 + math.sqrt(1275.0)) / 49.0)) < 1e-12
    _check(3, "covariant optimizer reproduces closed forms and both program "
              "transitions", ok, t0)


def test_criterion_4_asymptotic_slopes():
    t0 = time.perf_counter()
    ok = True
    for theta in (PI / 2, PI):
        drop = 1.0 - math.cos(theta)
        f_opt = optimal_fidelity(200.0, theta).value
        f_mo = mo_benchmark(200.0, theta).value
        ok &= abs((1.0 - f_opt) * 600.0 / drop - 1.0) < 0.05
        ok &= abs((1.0 - f_mo) / (1.0 - f_opt) - 2.0) < 0.1
    _check(4, "large-j error slope 1/(3j) and factor-2 MO penalty at j=200", ok, t0)


def test_criterion_5_worst_case_slope():
    t0 = time.perf_counter()
    fw = simulate_optimal_qubit_strategy(100.0, PI).worst_case
    slope = (1.0 - fw) * 100.0 / 2.0
    ok = abs(slope - 1.0) < 0.1
    _check(5, "worst-case infidelity slope 1/j at j=100 (got %.4f)" % slope, ok, t0)


def test_criterion_6_recycling_longevity():
    t0 = time.perf_counter()
    ok = True
    for j in (100.0, 200.0, 400.0):
        steps = advantage_longevity(j, PI).steps
        ok &= steps is not None and abs(steps - j / 2) <= 1
    steps40 = advantage_longevity(40.0, PI).steps
    ok &= steps40 is not None and abs(steps40 - 20) <= 2
    _check(6, "advantage survives j/2 uses at theta=pi (exact per-use fidelities, "
              "j=40/100/200/400)", ok, t0)


def test_criterion_7_spin_k_slopes():
    t0 = time.perf_counter()
    j, theta = 150.0, PI
    drop = 1.0 - math.cos(theta)
    sim = simulate_spin_k(j, 1.0, theta)
    avg_slope = (1.0 - sim.average) * 3.0 * j / drop
    worst_slope = (1.0 - sim.worst_case) * j / drop
    mo = simulate_spin_k_mo(j, 1.0, theta)
    mo_slope = (1.0 - mo) * 3.0 * j / drop
    ok = abs(avg_slope - 3.0) < 0.3
    ok &= abs(mo_slope - 6.0) < 0.6
    ok &= abs(worst_slope - 2.0) < 0.2
    _check(7, "spin-1 target slopes at j=150: avg %.3f/3, MO %.3f/6, worst "
              "%.3f/2" % (avg_slope, mo_slope, worst_slope), ok, t0)


def test_criterion_8_property_suites(tmp_path):
    t0 = time.perf_counter()
    checks = []
    rng = np.random.default_rng(11)

    # spin-algebra invariants: commutators, Casimir, coherent overlap law
    for j in (2.5, 3.5):
        ops = make_spin_operators(j)
        for a, b, c in ((ops.jx, ops.jy, ops.jz), (ops.jy, ops.jz, ops.jx),
                        (ops.jz, ops.jx, ops.jy)):
            checks.append(np.abs(a @ b - b @ a - 1j * c).max() < 1e-12)
        casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
        checks.append(np.abs(casimir - j * (j + 1) * np.eye(ops.dim)).max() < 1e-12)
    jh = HalfInteger(7)
    for _ in range(4):
        n1 = Direction.normalized(*rng.standard_normal(3))
        n2 = Direction.normalized(*rng.standard_normal(3))
        ov = abs(np.vdot(spin_coherent_state(jh, n1), spin_coherent_state(jh, n2))) ** 2
        angle = math.acos(np.clip(np.dot(n1.as_array(), n2.as_array()), -1, 1))
        checks.append(abs(ov - math.cos(angle / 2.0) ** (4 * jh.value)) < 1e-12)

    # channel CPTP invariants
    j3 = HalfInteger(6)
    u = heisenberg_gate(j3, 0.5, coupling_angle(j3, 2.0))
    ch = ProgramChannel(u, spin_coherent_state(j3, Direction.normalized(0, 0, 1)), j3, HalfInteger(1))
    k = ch.kraus_operators()
    checks.append(np.abs(np.einsum("aji,ajl->il", k.conj(), k) - np.eye(2)).max() < 1e-12)
    psi = haar_state(rng, 2)
    out = np.einsum("aij,j,akl,l->ik", k, psi, k.conj(), psi.conj())  # sum_a K_a psi psi^dag K_a^dag
    checks.append(abs(np.trace(out).real - 1.0) < 1e-12)
    checks.append(np.linalg.eigvalsh(out).min() > -1e-12)

    # covariance: with the program and the target rotation along any axis n,
    # the dense channel has the entanglement fidelity of the z-frame strategy
    base = simulate_optimal_qubit_strategy(2.0, 2.1).entanglement
    j2 = HalfInteger(4)
    u2 = heisenberg_gate(j2, 0.5, coupling_angle(2.0, 2.1))
    for _ in range(6):
        n = Direction.normalized(*rng.standard_normal(3))
        ch2 = ProgramChannel(u2, spin_coherent_state(j2, n), j2, HalfInteger(1))
        got = entanglement_fidelity(ch2, rotation_unitary(make_spin_operators(0.5), n, 2.1))
        checks.append(abs(got - base) < 1e-10)

    # Markov kernel stochasticity
    for j in (2.5, 8.0):
        dim = int(2 * j) + 1
        for theta in (0.7, PI):
            for _ in range(25):
                d = ProgramDistribution(j, rng.dirichlet(np.ones(dim)))
                stepped = complementary_step(j, theta, d)
                checks.append(abs(stepped.probs.sum() - 1.0) < 1e-12)
                checks.append(stepped.probs.min() >= 0.0)

    # Monte Carlo vs exact at 1e5 samples
    j32 = HalfInteger(3)
    u32 = heisenberg_gate(j32, 0.5, coupling_angle(j32, 2.0))

    def builder(n):
        return ProgramChannel(u32, spin_coherent_state(j32, n), j32, HalfInteger(1))

    mean, stderr = average_fidelity_mc(builder, 2.0, 100_000, seed=11)
    checks.append(abs(mean - optimal_fidelity(1.5, 2.0).value) < 4 * stderr)

    # byte-deterministic sweeps: one argv run twice, and --threads changes no byte
    args = ["sweep", "--two-j-range", "3:6", "--thetas", "pi/2,pi",
            "--methods", "opt_exact,heisenberg_sim"]
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        path = tmp_path / (name + ".csv")
        main(args + ["--threads", threads, "--out", str(path)])
        outputs.append(path.read_bytes())
    checks.append(outputs[0] == outputs[1] == outputs[2])

    ok = all(checks)
    _check(8, "property suites: algebra, CPTP, covariance, kernel, Monte Carlo, "
              "determinism (%d checks)" % len(checks), ok, t0)


def test_criterion_9_certification_verdicts(tmp_path, capsys):
    t0 = time.perf_counter()
    path = tmp_path / "exp.csv"
    path.write_text(
        "label,two_j,theta_rad,measured_avg_fidelity,std_err\n"
        "enhanced,3,3.141592653589793,0.69,0.005\n"
        "flat,3,3.141592653589793,0.64444,0.01\n"
        "too-good,3,3.141592653589793,0.95,0.01\n"
    )
    code = main(["certify", "--input", str(path)])
    doc = json.loads(capsys.readouterr().out)
    verdicts = [r["verdict"] for r in doc["results"]]
    ok = code == 0 and verdicts == [
        "quantum-enhanced", "inconclusive", "suspect-above-quantum-bound"]
    _check(9, "certification verdicts on the three reference experiments", ok, t0)
