"""README: "Everything is a pure function of immutable data and safe to use
from multiple threads."  The same calls, run serially and then concurrently
from a small thread pool, must give equal results."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path

import gammacert

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


# Each thread's first access to a lazily imported public name, and one call.
FIRST_USE = {
    "build_certificate": "gc.build_certificate(gc.PathConfig(6, 2, 2))",
    "coeff_table": "gc.coeff_table(16, 5)",
    "check_transfer": "gc.check_transfer(gc.GammaVector(6, (1, 1, 1, 1)))",
    "GammaVector": "gc.GammaVector(8, (1, 3, 2, 1, 1))",
}

_FIRST_USE_RACE = """
import json, sys, threading
import gammacert as gc
assert not [m for m in sys.modules if m.startswith("gammacert.")]
calls = json.loads(sys.argv[1])
start = threading.Barrier(len(calls), timeout=60)
results = {}
def first_use(name):
    start.wait()
    results[name] = repr(eval(calls[name]))
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_use, args=(name,)) for name in calls]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(json.dumps({"alive": sum(t.is_alive() for t in threads), "results": results}))
"""


def test_concurrent_first_use_of_lazy_names():
    """Four threads of a fresh interpreter make the first access to different
    lazily imported names at once; each gets the same result as a serial call."""
    src = str(Path(gammacert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_USE_RACE, json.dumps(FIRST_USE)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    race = json.loads(proc.stdout)
    assert race["alive"] == 0
    serial = {name: repr(eval(call, {"gc": gammacert})) for name, call in FIRST_USE.items()}
    assert race["results"] == serial
