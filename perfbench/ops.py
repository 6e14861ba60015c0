"""In-process operations: one runner and one check per op kind.

A runner calls the public voablocks API and returns its result; only the
runner is timed.  A check compares that result with an oracle from
``oracles`` and returns (passed, canonical text of the output); the text
feeds the run's output digest.  Library functions are looked up on their
modules at call time, so a traced run sees every call.
"""

from __future__ import annotations

import importlib
from fractions import Fraction as F

import oracles


class Session:
    """The voablocks modules plus any long-lived objects of the workload."""

    def __init__(self, workload: str, session_params: dict):
        # the package namespace re-exports functions that shadow some
        # submodule names (voablocks.schwarzian), so fetch modules directly
        for name in ("blocks", "coordchange", "models", "odepole", "schwarzian",
                     "series", "sewing"):
            setattr(self, name, importlib.import_module(f"voablocks.{name}"))
        self.phi = None
        if workload == "blocks-warm":
            self.H = self.models.heisenberg_model()
            self.phi = self.blocks.identity_hom(self.H, session_params["cap"])

    def model(self, p: dict):
        m = self.models
        if p["model"] == "virasoro":
            return m.virasoro_model(p["c"])
        H = m.heisenberg_model()
        return m.fock_module(H, p["mu"]) if p["model"] == "fock" else H

    def tail(self, t):
        var, floor, coeffs, order = t
        return self.series.TruncSeries(var, floor, coeffs, order)

    def rational_function(self, poly, poles):
        return self.blocks.RationalFunction(poly, poles)


def _nonzero(vec: dict) -> dict:
    return {k: v for k, v in vec.items() if v}


# ---------------------------------------------------------------------------
# modes-cold


def run_heis_trace(s: Session, p):
    H = s.models.heisenberg_model()
    M = s.models.fock_module(H, p["mu"]) if p["mu"] else H
    return s.sewing.torus_character(M, {(1, 1): F(1, 2)}, p["K"])


def check_heis_trace(p, out):
    want = oracles.heisenberg_omega_trace(p["K"], p["mu"])
    return list(out.coeffs) == want and out.delta == p["mu"] ** 2 / 2, repr(out.coeffs)


def run_vir_trace(s: Session, p):
    return s.sewing.torus_character(s.models.virasoro_model(p["c"]), {(2,): F(1)}, p["K"])


def check_vir_trace(p, out):
    return list(out.coeffs) == oracles.virasoro_omega_trace(p["K"]), repr(out.coeffs)


def run_graded_char(s: Session, p):
    return s.sewing.torus_character(s.model(p), (), p["K"])


def check_graded_char(p, out):
    delta = p["mu"] ** 2 / 2 if p["model"] == "fock" else F(0)
    ok = list(out.coeffs) == oracles.graded_character(p["K"], p["model"]) and out.delta == delta
    return ok, repr(out.coeffs)


def run_dual_sweep(s: Session, p):
    phi = s.blocks.identity_hom(s.model(p), p["cap"])
    return [phi(u, v) for u, v in p["probes"]]


def check_dual_sweep(p, out):
    return out == [oracles.pairing(u, v) for u, v in p["probes"]], repr(out)


def run_jacobi(s: Session, p):
    M = s.model(p)
    return [bool(s.models.jacobi_check(M, *c)) for c in p["checks"]]


def run_two_sided(s: Session, p):
    M = s.model(p)
    BivarSeries = s.series.BivarSeries
    return [s.sewing.two_sided_identity_check(
                u, BivarSeries.from_monomials(("xi", "w"), monos, (p["K"] + 1, p["K"] + 1)),
                M, p["K"])
            for u, monos in p["checks"]]


def check_all_true(p, out):
    return all(out) and len(out) > 0, repr(out)


# ---------------------------------------------------------------------------
# series-kernels


def run_extract(s: Session, p):
    rho = s.series.TruncSeries.from_coeff_map("z", p["poly"], p["count"] + 2)
    return s.coordchange.extract_coeffs(rho, p["count"])


def check_extract(p, out):
    ok = len(out) == p["count"] + 1 and out[:3] == oracles.extraction_closed_forms(p["poly"])
    return ok, repr(out)


def run_compinv(s: Session, p):
    f = s.series.TruncSeries.from_coeff_map("z", p["poly"], p["order"])
    return s.series.series_comp_inverse(f)


def check_compinv(p, out):
    n = p["order"]
    f = oracles.poly_list(p["poly"], n)
    g = [out.coeff(k) for k in range(n)] if out.order == n else None
    if g is None:
        return False, repr(out)
    z = [F(0), F(1)] + [F(0)] * (n - 2)
    ok = oracles.ps_compose(f, g, n) == z and oracles.ps_compose(g, f, n) == z
    return ok, repr(g)


def run_group_law(s: Session, p):
    M = s.model({**p, "mu": F(0)})
    cc = s.coordchange
    r1, r2 = cc.CoordChange(p["r1"]), cc.CoordChange(p["r2"])
    comp = cc.CoordChange(cc.poly_compose(p["r1"], p["r2"]))
    return cc.U_apply(comp, p["w"], M), cc.U_apply(r1, cc.U_apply(r2, p["w"], M), M), comp.poly


def check_group_law(p, out):
    lhs, rhs, comp = out
    ok = _nonzero(lhs) == _nonzero(rhs) and comp == oracles.poly_compose(p["r1"], p["r2"])
    return ok, repr(sorted(_nonzero(lhs).items()))


def run_huang(s: Session, p):
    cc = s.coordchange
    H = s.models.heisenberg_model()
    return bool(cc.huang_conjugation_check(cc.CoordChange(p["alpha"]), (1,), p["w"], H,
                                           p["z_order"]))


def check_true(p, out):
    return out is True, repr(out)


def run_cocycle(s: Session, p):
    mk = s.series.TruncSeries.from_coeff_map
    return [s.schwarzian.cocycle_check(mk("z", f, p["order"]), mk("z", g, p["order"]))
            for f, g in p["pairs"]]


def run_uniformize(s: Session, p):
    Q = s.series.TruncSeries.from_coeff_map("z", p["Q"], p["order"])
    return s.schwarzian.uniformize(Q)


def check_uniformize(p, out):
    # S f = Q on the window the result certifies: f has order Q.order + 2
    # and the Schwarzian uses three derivatives
    n = p["order"] - 1
    if out.floor < 0 or out.order != p["order"] + 2:
        return False, repr(out)
    f = [out.coeff(k) for k in range(out.order)]
    ok = oracles.schwarzian(f, n) == oracles.poly_list(p["Q"], n)
    return ok, repr(f)


def _pole_ode(s: Session, avals, order):
    TS = s.series.TruncSeries
    dim = len(avals)
    zero = TS.zero("q", order)
    entries = [[TS.from_coeff_map("q", {k: a for k in range(1, order)}, order) if i == j else zero
                for j in range(dim)] for i, a in enumerate(avals)]
    return s.odepole.PoleODE(entries)


def run_formal(s: Session, p):
    ode = _pole_ode(s, p["avals"], p["K"] + 1)
    sol = s.odepole.formal_solve(ode, {0: [F(1)] * len(p["avals"])}, p["K"])
    est = s.odepole.radius_estimate(ode, p["r1"], majorant=(max(p["avals"]), F(1)),
                                    solution=sol)
    return sol.modes, est.growth_checked, est.M, est.r0


def check_formal(p, out):
    modes, growth_checked, M, r0 = out
    want = [oracles.pochhammer_modes(a, p["K"]) for a in p["avals"]]
    ok = (all([m[i] for m in modes] == w for i, w in enumerate(want))
          and growth_checked == p["K"] - M and r0 > 0)
    return ok, repr((modes, growth_checked, r0))


def run_numeric(s: Session, p):
    ode = _pole_ode(s, [p["a"]], 60)
    start = [oracles.pole_ode_value(p["a"], p["path"][0])]
    return s.odepole.numeric_continue(ode, start, p["path"], steps=p["steps"])


def check_numeric(p, out):
    (val,), err = out
    want = oracles.pole_ode_value(p["a"], p["path"][-1])
    return abs(val - want) <= 1e-8 * abs(want) and err < 1e-8, f"{val!r} {err!r}"


# ---------------------------------------------------------------------------
# blocks-warm


def run_nested(s: Session, p):
    b = s.blocks
    py = b.propagate_block(s.phi, p["y"], 4)
    px = b.propagate_block(s.phi, p["x"], 4)
    A = b.propagate_eval(py, p["u_ins"], p["x"], [p["w1"], {p["v_ins"]: F(1)}, p["w2"]])
    B = b.propagate_eval(px, p["v_ins"], p["y"], [p["w1"], {p["u_ins"]: F(1)}, p["w2"]])
    return A, B


def check_nested(p, out):
    return out[0] == out[1], repr(out)


def run_vacuum(s: Session, p):
    return [s.blocks.propagate_eval(s.phi, (), y, [u, v]) for y, u, v in p["cases"]]


def check_vacuum(p, out):
    return out == [oracles.pairing(u, v) for _, u, v in p["cases"]], repr(out)


def run_glue(s: Session, p):
    t0, tz, tinf = (s.tail(t) for t in p["tails"])
    return s.blocks.rational_glue(t0, tz, tinf, p["z0"])


def _section_matches(section, p) -> bool:
    return section.poly == p["poly"] and section.poles == {q: part for q, part in
                                                           p["poles"].items() if part}


def check_glue(p, rep):
    if p["perturbed"]:
        ok = not rep.passed and rep.witness is not None and rep.witness.residue != 0
        text = repr((rep.witness.kind, rep.witness.point, rep.witness.order,
                     rep.witness.residue)) if rep.witness else "no witness"
    else:
        ok = rep.passed and _section_matches(rep.section, p)
        text = repr(rep.section)
    return ok, text


def run_residue(s: Session, p):
    tails = {(s.blocks.INFINITY if pt == "inf" else pt): s.tail(t) for pt, t in p["tails"]}
    return s.blocks.strong_residue_check(tails)


def check_residue(p, rep):
    return rep.passed and _section_matches(rep.section, p), repr(rep.section)


def run_block_property(s: Session, p):
    return [s.blocks.block_property_check(s.phi, v, s.rational_function(poly, poles), w_vecs)
            for v, poly, poles, w_vecs in p["cases"]]


RUNNERS = {
    "heis_trace": (run_heis_trace, check_heis_trace),
    "vir_trace": (run_vir_trace, check_vir_trace),
    "graded_char": (run_graded_char, check_graded_char),
    "dual_sweep": (run_dual_sweep, check_dual_sweep),
    "jacobi": (run_jacobi, check_all_true),
    "two_sided": (run_two_sided, check_all_true),
    "extract": (run_extract, check_extract),
    "compinv": (run_compinv, check_compinv),
    "group_law": (run_group_law, check_group_law),
    "huang": (run_huang, check_true),
    "cocycle": (run_cocycle, check_all_true),
    "uniformize": (run_uniformize, check_uniformize),
    "formal": (run_formal, check_formal),
    "numeric": (run_numeric, check_numeric),
    "nested": (run_nested, check_nested),
    "vacuum": (run_vacuum, check_vacuum),
    "glue": (run_glue, check_glue),
    "residue": (run_residue, check_residue),
    "block_property": (run_block_property, check_all_true),
}
