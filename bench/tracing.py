"""Span tracing of the ellvar layers, installed from outside the package.

Functions are wrapped where their callers look them up: the module
attribute a caller reads at call time (``ellvar.student.reg_inc_beta``
inside ``student_big_g``, ``ellvar.elliptic.integrate_semi_infinite``
inside the quadrature routes, and so on).  Nothing under ``src/`` is
edited, and ``uninstall`` puts every original binding back, so an
untraced run executes the package untouched.

Each wrapped call increments ``<span>.calls`` and records a span
(name, start, end, parent span, request id).  A call nested inside an
open span of the same name is counted but not given a span of its own:
its time is part of the outer span's self time, which belongs to the same
layer anyway (the inner integrals of the double quadrature route, the
sign-folding recursion of ``big_g``).  Spans stay in memory until
``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# span name -> bindings "module:attribute" (or "module:Class.method") to wrap
SPANS = {
    "specfun.reg_inc_beta": ["ellvar.student:reg_inc_beta"],
    "specfun.hyp2f1": ["ellvar.student:hyp2f1_log", "ellvar.elliptic:hyp2f1"],
    "specfun.quad": ["ellvar.elliptic:integrate_semi_infinite"],
    "student.big_g": ["ellvar.student:student_big_g"],
    "student.quantile": ["ellvar.student:student_quantile", "ellvar.cli:student_quantile"],
    "elliptic.generator_ctor": ["ellvar.elliptic:DensityGenerator.__post_init__"],
    "elliptic.model_ctor": ["ellvar.elliptic:EllipticModel.__post_init__"],
    "elliptic.big_g": ["ellvar.elliptic:big_g"],
    "elliptic.solve_quantile": ["ellvar.elliptic:solve_quantile"],
    "elliptic.mte": [
        "ellvar.elliptic:marginal_tail_expectation",
        "ellvar.mixture:marginal_tail_expectation",
    ],
    "linalg.validate_symmetric": [
        "ellvar.linalg:validate_symmetric",
        "ellvar.elliptic:validate_symmetric",
        "ellvar.student:validate_symmetric",
    ],
    "linalg.cholesky": ["ellvar.linalg:cholesky", "ellvar.elliptic:cholesky", "ellvar.mc:cholesky"],
    "linalg.quadratic_form": [
        "ellvar.elliptic:quadratic_form",
        "ellvar.mixture:quadratic_form",
        "ellvar.portfolio:quadratic_form",
        "ellvar.student:quadratic_form",
    ],
    "linalg.estimate_moments": ["ellvar.linalg:estimate_moments", "ellvar.cli:estimate_moments"],
    "mixture.var": ["ellvar.mixture:mixture_var", "ellvar.mc:mixture_var"],
    "mixture.es": [
        "ellvar.mixture:mixture_expected_shortfall",
        "ellvar.mc:mixture_expected_shortfall",
    ],
    "portfolio.risk_report": ["ellvar.portfolio:risk_report", "ellvar.cli:risk_report"],
    "portfolio.incremental_var": ["ellvar.portfolio:incremental_var"],
    "mc.simulate": ["ellvar.mc:simulate_pnl"],
    "mc.empirical": ["ellvar.mc:empirical_var_es"],
    "mc.analytic": ["ellvar.mc:_analytic_var_es"],
    "cli.main": ["ellvar.cli:main"],
    "cli.read_portfolio": ["ellvar.cli:read_portfolio"],
    "cli.build_model": ["ellvar.cli:build_model"],
}

# wrapped for counting only: too fine-grained for a span of their own
COUNTERS = {
    "elliptic.quantile_multiplier": ["ellvar.elliptic:quantile_multiplier"],
    "mixture.marginal_tail": ["ellvar.mixture:marginal_tail"],
}


def _resolve(binding: str):
    module_name, _, path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class _QuadCounter:
    """Stands in for ``scipy.integrate`` inside ``ellvar.specfun``.

    ``integrate_semi_infinite`` asks QUADPACK for ``full_output``; the
    info dict carries the integrand evaluation count, read here without
    touching the integrand.
    """

    def __init__(self, integrate, counts: Counter):
        self._integrate = integrate
        self._counts = counts

    def quad(self, *args, **kwargs):
        out = self._integrate.quad(*args, **kwargs)
        if kwargs.get("full_output") and len(out) > 2:
            self._counts["specfun.quad.evals"] += int(out[2].get("neval", 0))
        return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        self.enabled = True
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list = []
        self.simulations: list[dict] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import ellvar.elliptic
        import ellvar.specfun

        for name, bindings in SPANS.items():
            self._patch(bindings, name, span=True)
        for name, bindings in COUNTERS.items():
            self._patch(bindings, name, span=False)
        self._cache = ellvar.elliptic._quantile_cache
        self._set(ellvar.specfun, "integrate", _QuadCounter(ellvar.specfun.integrate, self.counts))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, bindings, name: str, span: bool) -> None:
        wrappers = {}
        for binding in bindings:
            owner, attr = _resolve(binding)
            fn = getattr(owner, attr)
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, name, span)
            self._set(owner, attr, wrappers[fn])

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, fn, base: str, span: bool):
        before = getattr(self, "_before_" + base.replace(".", "_"), None)
        after = getattr(self, "_after_" + base.replace(".", "_"), None)
        counts, stack, open_, spans = self.counts, self._stack, self._open, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            name = base
            if base == "elliptic.big_g":
                name = base + "." + _arg(args, kwargs, 2, "route", "double")
            counts[name + ".calls"] += 1
            state = before(args, kwargs) if before else None
            own = span and open_[name] == 0
            open_[name] += 1
            if own:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
            start = clock()
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                open_[name] -= 1
                if own:
                    stack.pop()
                    spans[index] = (name, start, end, parent, self.request)
                if after:
                    after(state, args, kwargs, error, end - start)

        return wrapper

    # -- counters at the same boundaries ------------------------------------

    def _before_elliptic_quantile_multiplier(self, args, kwargs):
        # the outermost of quantile_multiplier/solve_quantile is the cache lookup
        outer = not (self._open["elliptic.quantile_multiplier"] or self._open["elliptic.solve_quantile"])
        return outer, len(self._cache)

    def _after_elliptic_quantile_multiplier(self, state, args, kwargs, error, elapsed):
        outer, size = state
        grew = len(self._cache) > size
        if outer:
            self.counts["elliptic.quantile_cache.lookups"] += 1
            self.counts["elliptic.quantile_cache.hits"] += error is None and not grew
        return grew

    _before_elliptic_solve_quantile = _before_elliptic_quantile_multiplier

    def _after_elliptic_solve_quantile(self, state, args, kwargs, error, elapsed):
        if self._after_elliptic_quantile_multiplier(state, args, kwargs, error, elapsed):
            self.counts["elliptic.solve_quantile.solves"] += 1

    def _before_elliptic_big_g(self, args, kwargs):
        if self._open["elliptic.solve_quantile"]:
            self.counts["elliptic.solve_quantile.g_evals"] += 1

    def _before_student_big_g(self, args, kwargs):
        return _arg(args, kwargs, 2, "method", "beta") == "hyp2f1" and not self._open["student.big_g"]

    def _after_student_big_g(self, route_check, args, kwargs, error, elapsed):
        if route_check:
            self.counts["student.hyp2f1_route.calls"] += 1
            if error is not None:
                self.counts["student.hyp2f1_route.fail"] += 1

    def _before_linalg_validate_symmetric(self, args, kwargs):
        if self._open["portfolio.risk_report"]:
            self.counts["linalg.validate_symmetric.in_report"] += 1

    def _before_mixture_marginal_tail(self, args, kwargs):
        if self._open["mixture.var"]:
            self.counts["mixture.var.tail_evals"] += 1

    def _before_mixture_var(self, args, kwargs):
        if self._open["portfolio.incremental_var"]:
            self.counts["portfolio.incremental_var.var_solves"] += 1

    def _before_portfolio_incremental_var(self, args, kwargs):
        from ellvar.mixture import MixtureModel

        if isinstance(args[0], MixtureModel):
            self.counts["portfolio.incremental_var.mixture_calls"] += 1

    def _after_mc_simulate(self, state, args, kwargs, error, elapsed):
        if error is None:
            self.simulations.append(simulation_draws(args[0], args[1], _arg(args, kwargs, 2, "spec")) | {"ns": elapsed})

    # -- results ------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        covered = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start - covered[i]) / 1e6
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request], separators=(",", ":")) + "\n")


def simulation_draws(model, delta, spec) -> dict:
    """Random numbers one ``simulate_pnl`` call draws, computed from array sizes.

    Per batch the sampler draws a (rows, n) block of normals, one
    chi-square variate per row of each Student component and, for a
    mixture, one component index per row; antithetic sampling halves the
    rows.  Mixture row counts use their expectation under the weights.
    """
    from ellvar.mixture import MixtureModel

    n = len(delta)
    components = model.components if isinstance(model, MixtureModel) else ((1.0, model),)
    student_share = sum(w for w, m in components if m.generator.family == "student")
    rows = 0
    for start in range(0, spec.paths, spec.batch_size):
        count = min(spec.batch_size, spec.paths - start)
        rows += (count + 1) // 2 if spec.antithetic else count
    normals = rows * n
    values = normals + rows * student_share + (rows if len(components) > 1 else 0)
    return {
        "paths": spec.paths,
        "workers": spec.workers,
        "normals": normals,
        "bytes": 8.0 * values,
    }


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values from one traced pass (see PER_LAYER in run.py)."""
    c = tracer.counts
    self_ms = tracer.self_ms()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sims = tracer.simulations

    def paths_per_s(workers: int) -> float:
        picked = [s for s in sims if s["workers"] == workers]
        return ratio(sum(s["paths"] for s in picked), sum(s["ns"] for s in picked) / 1e9)

    out = {
        "specfun.reg_inc_beta.calls": c["specfun.reg_inc_beta.calls"],
        "specfun.reg_inc_beta.self_ms": self_ms["specfun.reg_inc_beta"],
        "specfun.hyp2f1.calls": c["specfun.hyp2f1.calls"],
        "specfun.hyp2f1.self_ms": self_ms["specfun.hyp2f1"],
        "specfun.quad.calls": c["specfun.quad.calls"],
        "specfun.quad.evals": c["specfun.quad.evals"],
        "specfun.quad.evals_per_call": ratio(c["specfun.quad.evals"], c["specfun.quad.calls"]),
        "specfun.quad.self_ms": self_ms["specfun.quad"],
        "student.big_g.calls": c["student.big_g.calls"],
        "student.big_g.self_ms": self_ms["student.big_g"],
        "student.quantile.calls": c["student.quantile.calls"],
        "student.hyp2f1_route.calls": c["student.hyp2f1_route.calls"],
        "student.hyp2f1_route.fail": c["student.hyp2f1_route.fail"],
        "elliptic.generator_ctor.calls": c["elliptic.generator_ctor.calls"],
        "elliptic.generator_ctor.self_ms": self_ms["elliptic.generator_ctor"],
        "elliptic.model_ctor.calls": c["elliptic.model_ctor.calls"],
        "elliptic.model_ctor.self_ms": self_ms["elliptic.model_ctor"],
        "elliptic.big_g.double.calls": c["elliptic.big_g.double.calls"],
        "elliptic.big_g.double.self_ms": self_ms["elliptic.big_g.double"],
        "elliptic.big_g.kernel.calls": c["elliptic.big_g.kernel.calls"],
        "elliptic.big_g.kernel.self_ms": self_ms["elliptic.big_g.kernel"],
        "elliptic.solve_quantile.calls": c["elliptic.solve_quantile.calls"],
        "elliptic.solve_quantile.self_ms": self_ms["elliptic.solve_quantile"],
        "elliptic.solve_quantile.g_evals": ratio(
            c["elliptic.solve_quantile.g_evals"], c["elliptic.solve_quantile.solves"]
        ),
        "elliptic.quantile_cache.hit_ratio": ratio(
            c["elliptic.quantile_cache.hits"], c["elliptic.quantile_cache.lookups"]
        ),
        "elliptic.quantile_cache.lookups": c["elliptic.quantile_cache.lookups"],
        "elliptic.mte.calls": c["elliptic.mte.calls"],
        "elliptic.mte.self_ms": self_ms["elliptic.mte"],
        "linalg.validate_symmetric.calls": c["linalg.validate_symmetric.calls"],
        "linalg.validate_symmetric.self_ms": self_ms["linalg.validate_symmetric"],
        "linalg.validate_symmetric.per_report": ratio(
            c["linalg.validate_symmetric.in_report"], c["portfolio.risk_report.calls"]
        ),
        "linalg.cholesky.calls": c["linalg.cholesky.calls"],
        "linalg.cholesky.self_ms": self_ms["linalg.cholesky"],
        "linalg.quadratic_form.calls": c["linalg.quadratic_form.calls"],
        "linalg.quadratic_form.self_ms": self_ms["linalg.quadratic_form"],
        "linalg.estimate_moments.self_ms": self_ms["linalg.estimate_moments"],
        "mixture.var.calls": c["mixture.var.calls"],
        "mixture.var.self_ms": self_ms["mixture.var"],
        "mixture.var.tail_evals": ratio(c["mixture.var.tail_evals"], c["mixture.var.calls"]),
        "mixture.es.self_ms": self_ms["mixture.es"],
        "portfolio.risk_report.calls": c["portfolio.risk_report.calls"],
        "portfolio.risk_report.self_ms": self_ms["portfolio.risk_report"],
        "portfolio.incremental_var.self_ms": self_ms["portfolio.incremental_var"],
        "portfolio.incremental_var.var_solves": ratio(
            c["portfolio.incremental_var.var_solves"],
            c["portfolio.incremental_var.mixture_calls"],
        ),
        "mc.simulate.self_ms": self_ms["mc.simulate"],
        "mc.simulate.paths_per_s.w1": paths_per_s(1),
        "mc.simulate.paths_per_s.w2": paths_per_s(2),
        "mc.simulate.normals_per_path": ratio(
            sum(s["normals"] for s in sims), sum(s["paths"] for s in sims)
        ),
        "mc.simulate.bytes_drawn": ratio(sum(s["bytes"] for s in sims), len(sims)),
        "mc.empirical.calls": c["mc.empirical.calls"],
        "mc.empirical.self_ms": self_ms["mc.empirical"],
        "mc.analytic.self_ms": self_ms["mc.analytic"],
        "cli.main.self_ms": self_ms["cli.main"],
        "cli.read_portfolio.self_ms": self_ms["cli.read_portfolio"],
        "cli.build_model.self_ms": self_ms["cli.build_model"],
    }
    return out
