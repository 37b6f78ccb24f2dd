"""Workload definitions and the correctness gate.

A workload is a fixed list of `cwspheres verify` calls.  Each call
belongs to one pipeline family, whose time the benchmark reports as its
own metric, and carries what its report must show.  The gate reads the
CSV the program wrote and checks it against those expectations from
outside the program: the exit code, every verdict column, the number of
trial rows, the README accuracy thresholds of the oracle, and the exact
displacement of a solved Clifford-Wolf flow.

No numpy here: `prepare` imports this module before it caps the BLAS
threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

WORKLOADS = ("montecarlo", "oracle", "oracle-scaled")
# Workloads whose calls build the README-size S^3 graph.
GRAPH_WORKLOADS = ("oracle", "oracle-scaled")
FAMILIES = ("eigenlemma", "orbit", "spectral", "oracle", "displacement")

# Oracle thresholds stated in the README (acceptance criterion 09).
ANTIPODE_TOL = 0.05
SYMMETRY_TOL = 0.01
SPREAD_TOL = 0.07
# A displacement mean further than this from t*L is a wrong answer; it
# reuses the antipode's relative tolerance.
DISPLACEMENT_MEAN_TOL = ANTIPODE_TOL
ORBIT_TOL_FACTOR = 1e-8
ENDPOINT_TOLS = {"endpoint_spread": 1e-10, "endpoint_identity": 1e-12}
WITNESS_TOL = 1e-12

FLOW_T = 0.3
SCALED_L = 2.0


# Default symplectic-family metric of the sp-central and sp-witness checks.
SP_SPEC = {"family": "sp_sphere", "n": 2, "a1": 1.2, "a2": 1.5, "b": 1.0,
           "c": 0.3}


def solved_spec(l, m, x1, x2, L):
    """The u_sphere metric that gives the two-eigenvalue generator
    i*(x1 I + x2 diag(-m I_l, l I_m)) constant length L.

    Closed form written out here rather than taken from the program, so
    the spec files are inputs the program does not produce itself.
    """
    center = 0.5 * (l - m) * x2 + x1
    radius = 0.5 * (l + m) * abs(x2)
    b = L * L / (radius * radius - center * center)
    c = -(b / L) * center
    return {"family": "u_sphere", "n": l + m - 1, "a": b + c * c, "b": b,
            "c": c}


@dataclass(frozen=True)
class Call:
    """One `cwspheres verify` call: `family` names the metric its time
    counts toward ("gate" for none), `config` the spec file it reads."""

    family: str
    check: str
    args: tuple = ()
    config: str | None = None
    expect: dict = field(default_factory=dict)

    def argv(self, seed, spec_paths, out_path):
        argv = ["verify", self.check, *self.args, "--seed", str(seed),
                "--out", out_path]
        if self.config:
            argv += ["--config", spec_paths[self.config]]
        return argv

    @property
    def trials(self):
        """The --trials count asked for, 0 when the call takes none."""
        args = list(self.args)
        return int(args[args.index("--trials") + 1]) if "--trials" in args else 0


def spec_docs(workload):
    """Spec files the workload passes through --config, by name."""
    if workload == "montecarlo":
        return {"orbit_s3": solved_spec(1, 1, 0.5, 1.0, 1.0),
                "orbit_s15": solved_spec(3, 5, 0.5, 1.0, 1.0),
                "sp": SP_SPEC}
    if workload == "oracle":
        return {"disp_l1": solved_spec(1, 1, 0.5, 1.0, 1.0)}
    if workload == "oracle-scaled":
        return {"disp_l2": solved_spec(1, 1, 0.5, 1.0, SCALED_L)}
    raise ValueError(f"unknown workload {workload!r}")


def _trials(n):
    return ("--trials", str(n))


def workload_calls(workload, tiny=False):
    """The calls of one timed pass.  `tiny` shrinks trial and point
    counts for the self-test; the graph keeps the README size, below
    which the oracle's accuracy thresholds no longer hold."""
    if workload == "montecarlo":
        eig, orb, sp, com, nonint, ends = \
            (20, 100, 100, 10, 20, 10) if tiny else (400, 1250, 250, 50, 250, 25)
        calls = [Call("eigenlemma", "eigenlemma", ("--n", str(n), *_trials(eig)))
                 for n in (2, 4, 6)]
        calls += [
            Call("orbit", "orbit", _trials(orb), "orbit_s3", {"L": 1.0}),
            Call("orbit", "orbit", ("--l", "3", "--m", "5", *_trials(orb)),
                 "orbit_s15", {"L": 1.0}),
            Call("orbit", "sp-central", _trials(sp), "sp",
                 {"verdicts": ("constant", "non-constant", "non-constant")}),
        ]
        calls += [Call("spectral", "commutator",
                       ("--l", str(k), "--m", str(k), *_trials(com)))
                  for k in (2, 4)]
        calls += [
            Call("spectral", "nonintersection", _trials(nonint)),
            Call("spectral", "endpoints", _trials(ends)),
        ]
        return calls
    if workload == "oracle":
        points = 3 if tiny else 50
        return [Call("oracle", "oracle"),
                Call("displacement", "displacement",
                     ("--t", str(FLOW_T), "--points", str(points)), "disp_l1",
                     {"points": points, "exact": FLOW_T})]
    if workload == "oracle-scaled":
        points = 2 if tiny else 4
        return [Call("displacement", "displacement",
                     ("--t", str(FLOW_T), "--L", str(SCALED_L),
                      "--points", str(points)), "disp_l2",
                     {"points": points, "exact": FLOW_T * SCALED_L})]
    raise ValueError(f"unknown workload {workload!r}")


def gate_calls(workload):
    """Calls run once per run, after the timed passes, for the gate only."""
    if workload == "montecarlo":
        return [Call("gate", "sp-witness", config="sp")]
    return []


# --------------------------------------------------------------------------
# the correctness gate
# --------------------------------------------------------------------------

@dataclass
class Outcome:
    """What the gate found in one report: reasons it failed (empty when
    correct), oracle answers as relative errors against exact values, and
    the relative spreads of displacement profiles."""

    failures: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    spreads: list = field(default_factory=list)

    def require(self, cond, reason):
        if not cond:
            self.failures.append(reason)


def _table(text, header):
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[:1]} != {header}")
    return rows[1:]


def _check_trial_rows(call, text, out):
    rows = _table(text, ["trial_id", "inputs_hash", "verdict", "worst_residual"])
    out.require(len(rows) == call.trials,
                f"{len(rows)} trial rows for {call.trials} trials")
    out.require([r[0] for r in rows] == [str(k) for k in range(len(rows))],
                "trial ids out of order")
    bad = sum(r[2] != "true" for r in rows)
    out.require(bad == 0, f"{bad} trials with a false verdict")


def _check_orbit(call, text, out):
    (row,) = _table(text, ["candidate_id", "min", "max", "mean", "stddev", "verdict"])
    lo, hi, mean = (float(v) for v in row[1:4])
    L = call.expect["L"]
    out.require(row[5] == "constant", f"orbit verdict {row[5]}")
    out.require(hi - lo <= ORBIT_TOL_FACTOR * L, f"orbit spread {hi - lo:.3g}")
    out.require(abs(mean - L) <= ORBIT_TOL_FACTOR * L,
                f"orbit length {mean!r} != {L}")


def _check_sp_central(call, text, out):
    rows = _table(text, ["candidate_id", "min", "max", "mean", "stddev", "verdict"])
    got = tuple(r[5] for r in rows)
    out.require(got == call.expect["verdicts"], f"verdicts {got}")


def _check_nonintersection(call, text, out):
    (row,) = _table(text, ["check", "min_spectral_distance", "trials", "verdict"])
    out.require(row[2] == str(call.trials), f"{row[2]} trials for {call.trials}")
    out.require(row[3] == "true", f"verdict {row[3]}")


def _threshold_rows(text, limits, out):
    rows = {r[0]: r for r in _table(text, ["check", "value", "threshold", "verdict"])}
    out.require(sorted(rows) == sorted(limits), f"checks {sorted(rows)}")
    for name, limit in limits.items():
        if name in rows:
            value = float(rows[name][1])
            out.require(value <= limit and rows[name][3] == "true",
                        f"{name} {value:.3g} (limit {limit:g})")
    return rows


def _check_endpoints(call, text, out):
    _threshold_rows(text, ENDPOINT_TOLS, out)


def _check_oracle(call, text, out):
    rows = _threshold_rows(text, {"antipodal_rel_error": ANTIPODE_TOL,
                                  "symmetry_rel_dev": SYMMETRY_TOL,
                                  "hopf_rel_spread": SPREAD_TOL}, out)
    if "antipodal_rel_error" in rows:
        out.answers.append(float(rows["antipodal_rel_error"][1]))
    if "hopf_rel_spread" in rows:
        out.spreads.append(float(rows["hopf_rel_spread"][1]))


def _check_sp_witness(call, text, out):
    rows = _table(text, ["case", "gap", "expected", "residual", "verdict"])
    out.require([r[0] for r in rows] == ["n1", "n2", "n3"], "witness cases")
    for r in rows:
        out.require(float(r[3]) <= WITNESS_TOL and r[4] == "true",
                    f"witness {r[0]} residual {r[3]}")


def _check_displacement(call, text, out):
    rows = _table(text, ["point", "displacement"])
    summary = dict(kv.split("=", 1) for kv in rows[-1][1:])
    points = rows[:-1]
    want = call.expect["points"]
    out.require(rows[-1][0] == "summary", "no summary row")
    out.require([r[0] for r in points] == [str(k) for k in range(want)],
                f"{len(points)} point rows for {want} points")
    disp = [float(r[1]) for r in points]
    exact = call.expect["exact"]
    mean = sum(disp) / len(disp)
    spread = (max(disp) - min(disp)) / mean
    out.answers += [abs(d - exact) / exact for d in disp]
    out.spreads.append(spread)
    out.require(math.isclose(float(summary["rel_spread"]), spread, rel_tol=1e-9),
                "summary rel_spread disagrees with the point rows")
    out.require(summary["verdict"] == "constant", f"verdict {summary['verdict']}")
    out.require(spread <= SPREAD_TOL, f"rel_spread {spread:.3g}")
    out.require(abs(mean - exact) <= DISPLACEMENT_MEAN_TOL * exact,
                f"mean displacement {mean!r} != {exact}")


_CHECKERS = {
    "eigenlemma": _check_trial_rows,
    "commutator": _check_trial_rows,
    "orbit": _check_orbit,
    "sp-central": _check_sp_central,
    "nonintersection": _check_nonintersection,
    "endpoints": _check_endpoints,
    "sp-witness": _check_sp_witness,
    "oracle": _check_oracle,
    "displacement": _check_displacement,
}


def check_report(call, code, text):
    """Gate one call: exit code 0 and a report that meets `call.expect`."""
    out = Outcome()
    out.require(code == 0, f"exit code {code}")
    try:
        _CHECKERS[call.check](call, text, out)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        out.failures.append(f"unreadable report: {exc!r}")
    return out
