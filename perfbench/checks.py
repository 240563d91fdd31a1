"""Output checks, written from the equations in PAPER.md and independent of
the package's own numerics.

Every check returns a list of failure messages; an empty list is a pass.
Tolerances:

- solve / transform: the finite-difference residual of every written grid
  (interior points, 4th-order 5-point stencil) is below the config's
  ``tolerances.residual_pass``; the report flags every element as passing;
  closed-form seeds are reported as fixed points and reproduce the closed
  form to 1e-10 relative.
- verify: the report is complete and every identity check passes.
- wavefunction: |psi| equals the modulus column and is the same at every t;
  on seeds that start on the closed form, r matches the closed form to
  1e-8 relative and the phase matches c (G(x) - G(x_min)) / (n v^2) + theta0
  to 1e-8; on generic seeds, r and the phase match a fixed-step RK4
  reference to 1e-6.
- every CSV value is finite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads

CLOSED_FORM_RTOL = 1e-10
ON_CURVE_TOL = 1e-8
GENERIC_TOL = 1e-6
RK4_SUBSTEPS = 16


def read_csv(path: Path, header: list[str]) -> tuple[np.ndarray, list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != header:
        return np.empty((0, len(header))), [f"{path.name}: header is not {header}"]
    data = np.array([[float(tok) for tok in line.split(",")]
                     for line in lines[1:]]).reshape(-1, len(header))
    if not np.all(np.isfinite(data)):
        return data, [f"{path.name}: non-finite values"]
    return data, []


def closed_form(values: dict, x):
    return workloads.closed_form(values["params.n"], values["params.eta"],
                                 values["params.v"], x)[0]


def rhs(values: dict, x, r):
    """r'' of the reduced amplitude equation."""
    n, eta = values["params.n"], values["params.eta"]
    b, c = values["params.b"], values["params.c"]
    s = 1.0 + 2.0 * eta * x ** n
    lin = (n * n - 1) / (4.0 * x * x) + 3.0 * x ** (2 * n - 2) * eta * eta \
        * n * n / (s * s)
    return c * c / r ** 3 + lin * r + b * x ** (3 * n - 3) * s ** 3 * r ** 3


def fd_residual(values: dict, xs: np.ndarray, rs: np.ndarray) -> float:
    """Max interior |r''_FD - rhs| on a uniform grid."""
    h = (xs[-1] - xs[0]) / (xs.size - 1)
    if np.max(np.abs(np.diff(xs) - h)) > 1e-8 * h:
        return math.inf
    d2 = (-rs[:-4] + 16.0 * rs[1:-3] - 30.0 * rs[2:-2] + 16.0 * rs[3:-1]
          - rs[4:]) / (12.0 * h * h)
    return float(np.max(np.abs(d2 - rhs(values, xs[2:-2], rs[2:-2]))))


def check_solution_csv(values: dict, path: Path, grid=None) -> list[str]:
    """Residual and closed-form checks; ``grid``, when given, is the x
    column the file must hold."""
    data, errors = read_csv(path, ["x", "r", "r_prime"])
    if errors:
        return errors
    if data.shape[0] < 7:
        return [f"{path.name}: only {data.shape[0]} rows"]
    if grid is not None and (data.shape[0] != grid.size
                             or not np.allclose(data[:, 0], grid, rtol=1e-15,
                                                atol=0.0)):
        errors.append(f"{path.name}: x column is not the config grid")
    res = fd_residual(values, data[:, 0], data[:, 1])
    limit = values.get("tolerances.residual_pass", 1e-5)
    if not res < limit:
        errors.append(f"{path.name}: residual {res:.3e} >= {limit:.0e}")
    if values["seed.kind"] == "closed_form":
        want = closed_form(values, data[:, 0])
        dev = float(np.max(np.abs(data[:, 1] / want - 1.0)))
        if not dev < CLOSED_FORM_RTOL:
            errors.append(f"{path.name}: off the closed form by {dev:.3e}")
    return errors


def check_solve(values: dict, out_dir: Path) -> list[str]:
    grid = np.linspace(values["grid.x_min"], values["grid.x_max"],
                       values["grid.points"])
    return check_solution_csv(values, out_dir / "solution.csv", grid)


def check_transform(values: dict, out_dir: Path) -> list[str]:
    report = json.loads((out_dir / "report.json").read_text())
    elements = report.get("elements", [])
    errors = []
    if len(elements) != len(values["k_schedule"]):
        errors.append(f"report has {len(elements)} elements, expected "
                      f"{len(values['k_schedule'])}")
    for j, element in enumerate(elements, start=1):
        if not element["residual_pass"]:
            errors.append(f"element {j}: report residual fails")
        if values["seed.kind"] == "closed_form" and not element["fixed_point"]:
            errors.append(f"element {j}: closed form is not a fixed point")
        errors += check_solution_csv(values, out_dir / element["csv"])
    return errors


def check_verify(values: dict, out_dir: Path) -> list[str]:
    report = json.loads((out_dir / "report.json").read_text())
    errors = [] if report.get("complete") else ["verify report incomplete"]
    checks = report.get("checks", [])
    if len(checks) != 9:
        errors.append(f"verify ran {len(checks)} checks, expected 9")
    errors += [f"{c['name']} failed: deviation {c['deviation']:.3e}"
               for c in checks if not c["pass"]]
    return errors


def reference_wave(values: dict, xs: np.ndarray):
    """(r, theta) at xs by classical RK4 on (r, r', theta) with
    theta' = c / r^2, from the config's initial data at xs[0], in
    RK4_SUBSTEPS steps per grid interval."""
    c, theta0 = values["params.c"], values["params.theta0"]

    def f(x, y):
        r, rp, _ = y
        return (rp, rhs(values, x, r), c / (r * r))

    y = (values["seed.r0"], values["seed.rp0"], theta0)
    rs, thetas = [y[0]], [y[2]]
    for x_a, x_b in zip(xs[:-1], xs[1:]):
        h = (x_b - x_a) / RK4_SUBSTEPS
        for i in range(RK4_SUBSTEPS):
            x = x_a + i * h
            k1 = f(x, y)
            k2 = f(x + h / 2, [a + h / 2 * b for a, b in zip(y, k1)])
            k3 = f(x + h / 2, [a + h / 2 * b for a, b in zip(y, k2)])
            k4 = f(x + h, [a + h * b for a, b in zip(y, k3)])
            y = [a + h / 6 * (p + 2 * q + 2 * s + t)
                 for a, p, q, s, t in zip(y, k1, k2, k3, k4)]
        rs.append(y[0])
        thetas.append(y[2])
    return np.array(rs), np.array(thetas)


def on_curve(values: dict) -> bool:
    """Whether the integrated seed starts on the closed form."""
    r = float(closed_form(values, values["seed.x0"]))
    return abs(values["seed.r0"] / r - 1.0) < 1e-14


def analytic_phase(values: dict, xs: np.ndarray) -> np.ndarray:
    n = values["params.n"]
    g = workloads.g(n, values["params.eta"], xs)
    scale = values["params.c"] / (n * values["params.v"] ** 2)
    return values["params.theta0"] + scale * (g - g[0])


def check_wave(values: dict, out_dir: Path, t_samples: list[float],
               phase_err: list[float]) -> list[str]:
    """``phase_err`` receives the phase error of on-curve seeds."""
    data, errors = read_csv(out_dir / "wave.csv",
                            ["x", "t", "re", "im", "modulus"])
    if errors:
        return errors
    m = len(t_samples)
    if data.shape[0] != values["grid.points"] * m:
        return [f"wave.csv has {data.shape[0]} rows"]
    x, t, re, im, mod = (data[:, k].reshape(-1, m) for k in range(5))
    xs = x[:, 0]
    if not (np.all(x == xs[:, None]) and np.allclose(t[0], t_samples)):
        return ["wave.csv rows are not the (x, t) grid"]
    if not np.allclose(mod, np.hypot(re, im), rtol=1e-14, atol=0.0):
        errors.append("modulus differs from |re + i im|")
    if not np.allclose(mod, mod[:, :1], rtol=1e-14, atol=0.0):
        errors.append("modulus changes with t")
    if on_curve(values):
        r_ref, theta_ref, tol = (closed_form(values, xs),
                                 analytic_phase(values, xs), ON_CURVE_TOL)
    else:
        r_ref, theta_ref = reference_wave(values, xs)
        tol = GENERIC_TOL
    r_dev = float(np.max(np.abs(mod[:, 0] / r_ref - 1.0)))
    angle = np.arctan2(im, re) - (theta_ref[:, None]
                                  - values["params.mu"] * t)
    phase_dev = float(np.max(np.abs(np.angle(np.exp(1j * angle)))))
    if not r_dev < tol:
        errors.append(f"modulus off the reference by {r_dev:.3e}")
    if not phase_dev < tol:
        errors.append(f"phase off the reference by {phase_dev:.3e}")
    if on_curve(values):
        phase_err.append(phase_dev)
    return errors
