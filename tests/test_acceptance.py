"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every check is seeded and deterministic.
"""

import math
import random
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from gossip_sim.analysis import (
    chain_span_presence,
    ph_bound_check,
    ph_recurrence,
    smallest_untouched_cut,
)
from gossip_sim.generators import (
    cycle_graph,
    directed_strong_lb,
    directed_weak_lb,
    path_graph,
    random_connected_graph,
)
from gossip_sim.graph import UndirectedGraph, transitive_closure
from gossip_sim.harness import ExperimentSpec, run_sweep
from gossip_sim.oracle import (
    connected_graphs_upto,
    empirical_vs_exact,
    nonmonotone_search,
    single_round_distribution,
)
from gossip_sim.process import (
    ProcessConfig,
    ProcessKind,
    round_function,
    run_to_convergence,
    trial_seed,
    triangulation_round,
)

TRI = ProcessKind.TRIANGULATION
HOP = ProcessKind.TWOHOP_UNDIRECTED
DHOP = ProcessKind.TWOHOP_DIRECTED

UND_SIZES = [16, 32, 64, 128]
UND_TRIALS = 100
SWEEP_SEED = 1009
JOBS = 2


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _rounds_by_size(rows):
    by_n: dict[int, list[int]] = {}
    for r in rows:
        by_n.setdefault(r.n, []).append(r.rounds)
    return dict(sorted(by_n.items()))


def _medians_by_size(rows):
    return {n: statistics.median(v) for n, v in _rounds_by_size(rows).items()}


BOOTSTRAP_RESAMPLES = 4000
LOWER_BOUND_LEVEL = 0.001  # one-sided 99.9% lower confidence bound


def _limit_fit(rounds_by_n, seed, norm, second):
    """Fit ``median/norm(n) = a + b*second(n)``; return ``(a, b, lower bound on a)``.

    ``a`` is the least-squares intercept over the given sizes, the model's
    limit of median/norm(n) when ``second(n)`` tends to 0.  The lower bound
    is the 0.1% quantile of ``a`` over a seeded percentile bootstrap that
    resamples the trials at each size independently.
    """
    sizes = sorted(rounds_by_n)
    scale = norm(np.array(sizes))
    design = np.column_stack([np.ones(len(sizes)), second(np.array(sizes))])
    coef = np.linalg.pinv(design)  # (a, b) = coef @ ratios
    medians = np.array([statistics.median(rounds_by_n[n]) for n in sizes])
    a, b = coef @ (medians / scale)
    rng = np.random.default_rng(seed)
    boot = np.empty((BOOTSTRAP_RESAMPLES, len(sizes)))
    for j, n in enumerate(sizes):
        rounds = np.asarray(rounds_by_n[n])
        picks = rng.integers(0, len(rounds), size=(BOOTSTRAP_RESAMPLES, len(rounds)))
        boot[:, j] = np.median(rounds[picks], axis=1) / scale[j]
    lower = np.quantile(boot @ coef[0], LOWER_BOUND_LEVEL)
    return float(a), float(b), float(lower)


def _nlogn_limit(rounds_by_n, seed):
    """Criterion 03's model: ``median/(n ln n) = a + b/ln n``."""
    return _limit_fit(rounds_by_n, seed, lambda n: n * np.log(n), lambda n: 1 / np.log(n))


def _n2_limit(rounds_by_n, seed):
    """Criterion 07's model: ``median/n^2 = a + b ln(n)/n``."""
    return _limit_fit(rounds_by_n, seed, lambda n: n * n, lambda n: np.log(n) / n)


@pytest.fixture(scope="module")
def undirected_sweeps():
    start = time.time()
    sweeps = {}
    for family in ("path", "cycle"):
        for kind in (TRI, HOP):
            spec = ExperimentSpec(
                family=family,
                kind=kind,
                sizes=UND_SIZES,
                trials=UND_TRIALS,
                master_seed=SWEEP_SEED,
                jobs=JOBS,
            )
            rows = run_sweep(spec)
            assert not any(r.capped for r in rows)
            sweeps[(family, kind.value)] = rows
    return sweeps, time.time() - start


def _round0_chi_square_pvalue(g, kind, trials, seed) -> float:
    from scipy.stats import chi2

    dist = single_round_distribution(g, kind)
    step = round_function(kind)
    counts: Counter = Counter()
    for i in range(trials):
        gi = g.copy()
        outcome = step(gi, random.Random(trial_seed(seed, i)))
        counts[frozenset(outcome.edges_added)] += 1
    assert set(counts) <= set(dist)
    if len(dist) == 1:
        return 1.0
    stat = sum(
        (counts.get(edges, 0) - float(p) * trials) ** 2 / (float(p) * trials)
        for edges, p in dist.items()
    )
    return float(chi2.sf(stat, len(dist) - 1))


def test_criterion_01_exact_oracle_anchors():
    start = time.time()
    trials = 100_000
    details = []
    ok = True

    tri_report = empirical_vs_exact(path_graph(3), TRI, trials=trials, seed=20260809)
    hop_report = empirical_vs_exact(path_graph(3), HOP, trials=trials, seed=20260810)
    for label, report, exact in (
        ("tri", tri_report, 2.0),
        ("twohop", hop_report, 4 / 3),
    ):
        assert report["exact_rounds"] == pytest.approx(exact)
        ok &= abs(report["z"]) <= 3.0
        details.append(f"P3 {label} mean={report['mean_rounds']:.4f} z={report['z']:.2f}")

    worst_p = 1.0
    for n, edges in connected_graphs_upto(4):
        g = UndirectedGraph(n, edges)
        for kind in (TRI, HOP):
            p = _round0_chi_square_pvalue(g, kind, trials, seed=20260811)
            worst_p = min(worst_p, p)
            ok &= p > 0.001
    details.append(f"worst chi^2 p={worst_p:.4f} over {len(connected_graphs_upto(4))} graphs x 2 kinds")

    elapsed = time.time() - start
    ok &= elapsed < 60
    details.append(f"{elapsed:.1f}s < 60s")
    _report(1, "exact oracle anchors", ok, "; ".join(details))


def test_criterion_02_upper_bound_ratio_stability(undirected_sweeps):
    sweeps, elapsed = undirected_sweeps
    ok = True
    details = []
    for (family, kind), rows in sorted(sweeps.items()):
        med = _medians_by_size(rows)
        ratios = [med[n] / (n * math.log(n) ** 2) for n in UND_SIZES]
        spread = max(ratios) / min(ratios)
        ok &= spread <= 3.0
        details.append(f"{family}/{kind} spread={spread:.2f}")
    ok &= elapsed < 600
    details.append(f"sweeps took {elapsed:.0f}s < 600s")
    _report(2, "upper-bound ratio stability", ok, "; ".join(details))


def test_criterion_03_lower_bound_direction(undirected_sweeps):
    """Rounds grow at least like n log n: the limit of median/(n ln n) is > 0.

    The paper's Omega(n log n) bound says median/(n log n) stays above some
    c > 0; it does not say the ratio rises with n.  The coupon collector is
    Theta(n log n), yet its mean ratio n*H_n/(n ln n) = H_n/ln n falls at
    every step of n = 16, 32, 64, 128 (by factors 0.960, 0.974, 0.982),
    because n*H_n = n ln n + 0.577...*n + O(1) has a linear term.  A ratio
    of the form ``a + b/ln n`` with b > 0 dips the same way, so for each
    sweep the criterion fits that model to the four median ratios and
    requires the one-sided 99.9% bootstrap lower bound on the limit ``a``
    to exceed 0.  A linear-time process has a = 0 and fails (see the
    self-check below).

    Limit of the check: four sizes up to 128 cannot tell n log n apart
    from, say, n log n / log log n, whose ratio tends to 0 too slowly to
    show here.  The criterion checks the limit of the two-term model, not
    the asymptotics beyond it.
    """
    sweeps, _ = undirected_sweeps
    ok = True
    details = []
    for (family, kind), rows in sorted(sweeps.items()):
        a, b, lower = _nlogn_limit(_rounds_by_size(rows), seed=SWEEP_SEED)
        sweep_ok = lower > 0
        ok &= sweep_ok
        details.append(f"{family}/{kind} a={a:.3f} b={b:.3f} a_lo={lower:.3f} {'ok' if sweep_ok else 'FAIL'}")
    _report(3, "lower-bound direction", ok, "; ".join(details))


def test_criterion_03_rule_self_check():
    """Criterion 03's rule accepts a Theta(n log n) process and rejects a Theta(n) one.

    Both are sums of independent geometric draws, sampled exactly at
    UND_SIZES with UND_TRIALS trials each: collecting all n coupons takes
    n*H_n draws on average, and flipping a fair coin until n heads come up
    takes 2n flips.
    """
    rng = np.random.default_rng(SWEEP_SEED)

    def sample(success_probs):
        return {
            n: rng.geometric(success_probs(n), size=(UND_TRIALS, n)).sum(axis=1).tolist()
            for n in UND_SIZES
        }

    coupon = _nlogn_limit(sample(lambda n: (n - np.arange(n)) / n), seed=SWEEP_SEED)
    coins = _nlogn_limit(sample(lambda n: np.full(n, 0.5)), seed=SWEEP_SEED)
    print(
        f"\ncriterion 03 self-check: coupon a_lo={coupon[2]:.3f} (must be > 0); "
        f"n heads a_lo={coins[2]:.3f} (must be <= 0)"
    )
    assert coupon[2] > 0, f"coupon collector rejected: a, b, a_lo = {coupon}"
    assert coins[2] <= 0, f"linear-time process accepted: a, b, a_lo = {coins}"


def test_criterion_04_min_degree_growth():
    n = 64
    budget = int(50 * n * math.log(n))
    g0 = cycle_graph(n)
    delta0 = g0.min_degree()
    target = min(math.ceil((1 + 1 / 12) * delta0), n - 1)
    assert delta0 == 2 and target == 3
    successes = 0
    for trial in range(100):
        g = cycle_graph(n)
        rng = random.Random(trial_seed(64, trial))
        for _ in range(budget):
            if g.min_degree() >= target:
                successes += 1
                break
            triangulation_round(g, rng)
        else:
            if g.min_degree() >= target:
                successes += 1
    ok = successes >= 95
    _report(4, "min-degree growth", ok, f"{successes}/100 trials reached delta>={target} within {budget} rounds")


def test_criterion_05_degree_doubling():
    violations = 0
    rounds_checked = 0
    # full runs to completeness on a mid-size cycle
    for trial in range(30):
        g = cycle_graph(16)
        rng = random.Random(trial_seed(505, trial))
        while not g.is_complete():
            before = [g.degree(u) for u in range(g.n)]
            triangulation_round(g, rng)
            rounds_checked += 1
            violations += sum(g.degree(u) > 2 * before[u] for u in range(g.n))
    # assorted random connected graphs, few rounds each
    for trial in range(200):
        rng = random.Random(trial_seed(707, trial))
        g = random_connected_graph(12, 0.2, seed=trial)
        for _ in range(5):
            before = [g.degree(u) for u in range(g.n)]
            triangulation_round(g, rng)
            rounds_checked += 1
            violations += sum(g.degree(u) > 2 * before[u] for u in range(g.n))
    ok = violations == 0
    _report(5, "triangulation degree doubling", ok, f"0 violations required; saw {violations} over {rounds_checked} rounds")


def test_criterion_06_directed_termination_exact():
    ok = True
    checked = 0
    for build, sizes in ((directed_weak_lb, (8, 16)), (directed_strong_lb, (4, 8, 16))):
        for n in sizes:
            closure_edges = set(transitive_closure(build(n)).edges())
            for trial in range(10):
                g = build(n)
                config = ProcessConfig(kind=DHOP, seed=trial_seed(606 + n, trial))
                _, capped = run_to_convergence(g, config)
                ok &= not capped and set(g.edges()) == closure_edges
                checked += 1
    _report(6, "directed termination at closure", ok, f"{checked} trials, exact edge-set equality")


DWEAK_SIZES = [8, 16, 32]
DWEAK_TRIALS = 50
DWEAK_SEED = 8


def test_criterion_07_directed_weak_lower_bound():
    """Rounds on the weak lower-bound family grow like n^2: the limit of
    median/n^2 is > 0.

    As in criterion 03, a ratio need not rise with n to have a positive
    limit, and at 50 trials the three medians are too noisy to order: with
    the reference kernels the ratios are monotone for only 19 of the master
    seeds 100-139.  So the criterion fits ``median/n^2 = a + b ln(n)/n``,
    whose second term is the next order of growth, n ln n, and requires the
    one-sided 99.9% bootstrap lower bound on ``a`` to exceed 0.  A
    Theta(n log n) process has a = 0 and fails (see the self-check below).
    """
    spec = ExperimentSpec(
        family="dweak",
        kind=DHOP,
        sizes=DWEAK_SIZES,
        trials=DWEAK_TRIALS,
        master_seed=DWEAK_SEED,
        jobs=JOBS,
    )
    a, b, lower = _n2_limit(_rounds_by_size(run_sweep(spec)), seed=DWEAK_SEED)

    dist = single_round_distribution(directed_weak_lb(8), DHOP)
    from fractions import Fraction

    p = sum(p for edges, p in dist.items() if (0, 2) in edges)
    exact_ok = p == Fraction(1, 9) and p <= Fraction(16, 64)

    ok = lower > 0 and exact_ok
    _report(
        7,
        "directed weak lower bound",
        ok,
        f"median/n^2 -> a={a:.3f} b={b:.3f} a_lo={lower:.3f}; round-0 P[(0,2)]={p} <= 16/n^2",
    )


def test_criterion_07_rule_self_check():
    """Criterion 07's rule accepts a Theta(n^2) process and rejects a
    Theta(n log n) one, sampled exactly at its sizes and trials: n
    successes at probability 1/n each take n^2 draws on average, and
    collecting all n coupons takes n*H_n."""
    rng = np.random.default_rng(DWEAK_SEED)

    def sample(success_probs):
        return {
            n: rng.geometric(success_probs(n), size=(DWEAK_TRIALS, n)).sum(axis=1).tolist()
            for n in DWEAK_SIZES
        }

    quadratic = _n2_limit(sample(lambda n: np.full(n, 1 / n)), seed=DWEAK_SEED)
    coupon = _n2_limit(sample(lambda n: (n - np.arange(n)) / n), seed=DWEAK_SEED)
    print(
        f"\ncriterion 07 self-check: n^2 process a_lo={quadratic[2]:.3f} (must be > 0); "
        f"coupon a_lo={coupon[2]:.3f} (must be <= 0)"
    )
    assert quadratic[2] > 0, f"Theta(n^2) process rejected: a, b, a_lo = {quadratic}"
    assert coupon[2] <= 0, f"Theta(n log n) process accepted: a, b, a_lo = {coupon}"


def test_criterion_08_directed_strong_lower_bound():
    ok = True
    details = []
    for n in (8, 16, 32):
        rounds = []
        cuts_ok = True
        for trial in range(50):
            g = directed_strong_lb(n)
            cuts_ok &= smallest_untouched_cut(g, n // 2) == n // 2
            config = ProcessConfig(kind=DHOP, seed=trial_seed(808 + n, trial))
            r, capped = run_to_convergence(g, config)
            assert not capped
            rounds.append(r)
        med = statistics.median(rounds)
        ok &= med >= 0.05 * n * n and cuts_ok
        details.append(f"n={n} median={med} (>= {0.05 * n * n}), cut starts at {n // 2}: {cuts_ok}")
    _report(8, "directed strong lower bound", ok, "; ".join(details))


def test_criterion_09_recurrence_majorant():
    table100 = ph_recurrence(100, 100, 8)
    bound_ok = ph_bound_check(table100)

    n = 32
    t_max = math.floor(0.01 * n * n)
    table = ph_recurrence(n, t_max, 8)
    freqs = chain_span_presence(n, rounds=t_max, trials=10_000, master_seed=77)
    empirical_ok = True
    worst = math.inf
    for h in (2, 3):
        for t in range(1, t_max + 1):
            mean, se = freqs[(h, t)]
            slack = table.q(h, t) + 3 * se - mean
            worst = min(worst, slack)
            empirical_ok &= mean <= table.q(h, t) + 3 * se
    ok = bound_ok and empirical_ok
    _report(
        9,
        "recurrence majorant",
        ok,
        f"bound check n=100: {bound_ok}; empirical n=32 t<={t_max} min slack={worst:.5f}",
    )


def test_criterion_10_nonmonotonicity():
    start = time.time()
    pairs = nonmonotone_search(4, TRI)
    from fractions import Fraction

    ok = bool(pairs)
    for pair in pairs:
        ok &= set(pair.h_edges) < set(pair.g_edges)
        ok &= isinstance(pair.g_expected, Fraction)
        ok &= pair.g_expected > pair.h_expected
    elapsed = time.time() - start
    ok &= elapsed < 300
    detail = (
        f"{len(pairs)} witness pair(s); first: E[G]={pairs[0].g_expected} > "
        f"E[H]={pairs[0].h_expected}; {elapsed:.1f}s < 300s"
        if pairs
        else "no witness found"
    )
    _report(10, "non-monotonicity witness", ok, detail)


def test_criterion_11_invariant_property_suites():
    from test_properties import CRITERION_SUITES

    names = []
    for suite in CRITERION_SUITES:
        suite()  # hypothesis runs 1000 derandomized examples
        names.append(suite.__name__)
    _report(11, "invariant property suites", True, f"1000 cases each: {', '.join(names)}")
