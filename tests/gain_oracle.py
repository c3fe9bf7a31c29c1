"""Straight-line transcription of the gain-function compositions, kept
independent of the package's implementation (the methods of
qrate.analysis.GainFunctions, which call one another).

Each function takes the scalar constants explicitly and spells the whole
formula chain out inline, so a disagreement with qrate.analysis.iss_gains
points at a wiring mistake on one of the two sides.
"""

import math


def eta_smooth(s, r_eps, margin):
    if s > 1.0:
        return math.log(r_eps * s) / math.log(1.0 + margin) + 1.0
    return math.log(r_eps) / math.log(1.0 + margin) * s


def oracle_values(c, s):
    """Evaluate the full gain stack at s.

    ``c`` carries: lam (effective per-period growth), lam_hat, r_eps,
    margin, phi_d, delta, e0, n, c1, c2, c3, kappa, nu, h (per-step
    visible growth), gamma_esc, h_tilde.
    """
    lam = c["lam"]
    lam_hat = c["lam_hat"]
    r_eps = c["r_eps"]
    margin = c["margin"]
    phi_d = c["phi_d"]
    delta = c["delta"]
    e0 = c["e0"]
    n = c["n"]
    c12 = c["c1"] * c["c2"]
    kappa = c["kappa"]
    h = c["h"]
    gamma_esc = c["gamma_esc"]
    h_tilde = c["h_tilde"]
    expo = kappa * (math.log(h) / math.log(c["nu"])) + 1.0

    def gamma0(sv, rv):
        m = eta_smooth(sv / e0, r_eps, margin) + eta_smooth(rv / delta, r_eps, margin)
        pw = lam**m
        return pw * sv + (pw - 1.0) / (lam - 1.0) * phi_d * rv

    def chi_e0(ev, sv, rv):
        m = eta_smooth(sv / ev, r_eps, margin) + eta_smooth(rv / delta, r_eps, margin)
        pw = lam_hat**m
        return pw * ev + (pw - 1.0) / (lam_hat - 1.0) * phi_d * delta

    def gamma_re(sv, rv):
        m = 2.0 * eta_smooth(rv / delta, r_eps, margin) + 1.0
        pw = lam**m
        return pw * sv + (pw - 1.0) / (lam - 1.0) * phi_d * rv

    def chi_e(ev, sv):
        m = 2.0 * eta_smooth(sv / delta, r_eps, margin) + 1.0
        pw = lam_hat**m
        return pw * lam / n * ev + (pw - 1.0) / (lam_hat - 1.0) * phi_d * delta

    def chi_x(ev, sv):
        return max(c12 * sv ** (kappa / 2.0) * (sv + ev),
                   h / (h - 1.0) * sv**expo)

    def chi_d(ev, sv):
        return max(c12 * sv ** (kappa / 2.0) * (phi_d * sv + ev),
                   h / (h - 1.0) * phi_d * sv**expo)

    cap0 = lambda sv: gamma0(sv, sv)
    cap = lambda sv: gamma_re(sv, sv)

    def chi_full(ev, sv, rv):
        e_cap = chi_e0(ev, sv, rv)
        return chi_x(e_cap, cap0(sv) + cap0(rv)) + chi_d(e_cap, rv)

    gamma_hat = cap(gamma_esc * s) + cap(s)
    e_cap = chi_e(gamma_esc * s, s)
    gamma_bar = chi_x(e_cap, gamma_hat) + chi_d(e_cap, s)
    first_stage = chi_full(e0, s, s)

    gamma1 = h_tilde * max(cap0(s), first_stage)
    gamma2 = h_tilde * max(cap0(s), first_stage, gamma_hat, gamma_bar) + phi_d * s
    gamma3 = h_tilde * max(phi_d * s, gamma_hat, gamma_bar) + phi_d * s

    return {
        "capture0": cap0(s),
        "capture": cap(s),
        "first_stage": first_stage,
        "post_escape": gamma_hat,
        "post_recapture": gamma_bar,
        "gamma1": gamma1,
        "gamma2": gamma2,
        "gamma3": gamma3,
    }


def constants_from(d, p, g):
    """Pull the scalar constants out of the package records."""
    return {
        "lam": d.growth_eff,
        "lam_hat": d.search_growth,
        "r_eps": d.search_ratio,
        "margin": p.search_margin,
        "phi_d": d.dist_gain,
        "delta": p.dist_level,
        "e0": p.radius0,
        "n": d.n_levels,
        "c1": g.c1,
        "c2": g.c2,
        "c3": g.c3,
        "kappa": g.kappa,
        "nu": g.nu,
        "h": g.step_gain,
        "gamma_esc": g.escape_gain,
        "h_tilde": d.intersample_gain,
    }
