"""README: "Everything is a pure function of immutable data and safe to use
from multiple threads."  The same calls, run serially and then concurrently
from a small thread pool, must give equal results."""

import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product

from gammacert import (
    GammaVector,
    PathConfig,
    SymmetricPolynomial,
    build_certificate,
    check_transfer,
    coeff_table,
    diagonal,
    gamma_to_h,
    h_to_gamma,
    is_log_concave,
    is_ultra_log_concave,
    lhs_by_formula,
    rhs_by_formula,
)
from gammacert.render import format_quadratic_form, format_regrouped
from gammacert.sweeps import sweep_path_identities


def _readme_examples():
    """The library calls behind the README's command-line examples."""
    return [
        (gamma_to_h, GammaVector(6, (1, 1, 1, 1))),
        (h_to_gamma, SymmetricPolynomial(6, (1, 6, 15, 20, 15, 6, 1))),
        (is_log_concave, (1, 1, 2)),
        (is_ultra_log_concave, (1, 3, 3, 1), 3),
        (check_transfer, GammaVector(6, (1, 1, 1, 1))),
        (lambda n, i: format_quadratic_form(coeff_table(n, i)), 16, 5),
        (lambda n, i: format_regrouped(coeff_table(n, i)), 8, 3),
        (diagonal, 16, 5, 3, "even"),
        (build_certificate, PathConfig(6, 2, 2)),
        (lambda cfg: (lhs_by_formula(cfg), rhs_by_formula(cfg)), PathConfig(40, 12, 14)),
        (sweep_path_identities, 8),
    ]


def _tasks():
    grid = [
        (check_transfer, GammaVector(n, entries))
        for n in range(9)
        for entries in product(range(3), repeat=n // 2 + 1)
    ]
    families = [(n, i, r) for n in range(11) for i in range(n // 2 + 1) for r in range(i, 2 * i + 3)]
    certificates = [(build_certificate, PathConfig(*f)) for f in families + [(14, 5, 5)]]
    return _readme_examples() + grid + certificates


def _call(task):
    func, *args = task
    return func(*args)


def test_concurrent_results_equal_serial():
    tasks = _tasks()
    serial = [_call(task) for task in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so the calls interleave
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(_call, tasks, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert len(concurrent) == len(serial) == len(tasks)
    for task, alone, together in zip(tasks, serial, concurrent):
        assert together == alone, task
