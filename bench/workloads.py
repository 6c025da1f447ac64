"""The three benchmark workloads: desk, generic and mc.

A workload builds its models and input files from the seed (``setup``),
plans a run of a fixed number of blocks (``plan``), makes request ``i``
of it from the seed alone (``request``), runs one request against the
package (``execute``, the only timed part) and checks the answer against
an independent oracle (``check``).  Each block is a fixed deck of request
kinds and book sizes, shuffled by the seed.  The mix of a run is
therefore the same for every seed and only the drawn parameters differ,
which keeps run-to-run spread down, and a seed always gives the same
requests.

The package is reached through module attributes (``portfolio.risk_report``,
not a name imported into this file) so that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import oracles as orc
from ellvar import cli, elliptic, linalg, mc, mixture, portfolio, student

ALPHAS = (0.05, 0.025, 0.01, 0.001)


class WrongAnswer(Exception):
    """An answer came back but failed its oracle gate; ``gross`` per oracles.GROSS."""

    def __init__(self, message: str, gross: bool):
        super().__init__(message)
        self.gross = gross


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message, gross=True)


def _miss(ratio: float, message: str) -> None:
    if ratio > 1.0:
        raise WrongAnswer(f"{message} ({ratio:.3g} x its gate)", gross=ratio > orc.GROSS)


def _close(value, reference, tol, what) -> None:
    _miss(
        orc.gap_ratio(float(value), float(reference), tol),
        f"{what}: {value!r} vs oracle {reference!r}, relative gate {tol:g}",
    )


def factor_cov(rng: np.random.Generator, n: int) -> np.ndarray:
    """Three-factor covariance plus idiosyncratic variance; SPD by construction."""
    loadings = rng.normal(size=(n, 3))
    cov = loadings @ loadings.T / 3.0 + np.diag(rng.uniform(0.5, 1.5, n))
    return 0.5 * (cov + cov.T)


def _family(model) -> tuple[str, float]:
    if isinstance(model, student.StudentParams):
        return "student", model.nu
    gen = model.generator
    return gen.family, (gen.family_params[0] if gen.family == "student" else math.inf)


def _mixture_rows(model, delta) -> list:
    rows = []
    for w, comp in model.components:
        family, nu = _family(comp)
        mean, vol = orc.linear_stats(delta, comp.mu, comp.sigma)
        rows.append((w, family, nu, mean, vol))
    return rows


def _check_report(model, delta, alpha: float, report) -> None:
    """VaR and ES of one report against scipy closed forms."""
    _gate(report.es >= report.var, f"ES {report.es!r} below VaR {report.var!r}")
    if isinstance(model, mixture.MixtureModel):
        rows = _mixture_rows(model, delta)
        _close(orc.mixture_tail(rows, report.var), alpha, orc.REL_TOL, "mixture tail at VaR")
        _close(report.es, orc.mixture_es(rows, report.var, alpha), orc.REL_TOL, "mixture ES")
        return
    family, nu = _family(model)
    mean, vol = orc.linear_stats(delta, model.mu, model.sigma)
    v, es = orc.elliptic_var_es(family, nu, mean, vol, alpha)
    _close(report.var, v, orc.REL_TOL, "VaR")
    _close(report.es, es, orc.REL_TOL, "ES")


def check_cli_reports(result, model, delta, alphas) -> None:
    """`ellvar var|es --format json` output equals the in-process reports."""
    code, out, err = result
    _gate(code == 0, f"cli exit code {code}: {err.strip()}")
    got = json.loads(out)
    _gate(len(got) == len(alphas), "cli printed the wrong number of reports")
    for row, alpha in zip(got, alphas):
        ref = portfolio.risk_report(model, delta, alpha)
        _check_report(model, delta, alpha, ref)
        for key, value in ref.to_dict().items():
            if isinstance(value, str):
                _gate(row[key] == value, f"cli {key}: {row[key]!r} vs {value!r}")
            elif row[key] != value:
                _close(row[key], value, orc.CLI_TOL, f"cli {key}")


def check_cli_table(result, nus, alphas) -> None:
    """`ellvar table` quantiles and ES multipliers against scipy."""
    code, out, err = result
    _gate(code == 0, f"cli exit code {code}: {err.strip()}")
    lines = out.strip().splitlines()
    _gate(len(lines) == len(nus) + 1, "table has the wrong number of rows")
    for nu, line in zip(nus, lines[1:]):
        cells = [float(c) for c in line.split()[1:]]
        for j, alpha in enumerate(alphas):
            q = orc.quantile("student", nu, alpha)
            _close(cells[j], q, orc.TABLE_TOL, f"table q({alpha:g}, {nu:g})")
            m = orc.tail_expectation("student", nu, q) / alpha
            _close(cells[len(alphas) + j], m, orc.TABLE_TOL, f"table es_mult({alpha:g}, {nu:g})")


class Workload:
    name = ""
    deck: tuple = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.setup(np.random.default_rng([seed, 0]))
        self.plan(1)

    def setup(self, rng) -> None:
        """Build the models and input files every request shares."""

    def plan(self, blocks: int) -> None:
        """Fix the requests of a run of ``blocks`` blocks.

        Each block is the deck in a seeded order.  The deck entries that
        share a kind and book size form a group, and across the run the
        group's occurrences split [0, 1) into equal strata, one each,
        independently for each of the two uniforms (a Latin hypercube).  A
        run then covers every group's continuous parameters evenly, so
        seeds move the parameters but not the mix, and the work of a run
        is nearly the same for every seed.
        """
        self.blocks = blocks
        self._orders = [
            np.random.default_rng([self.seed, 1, b]).permutation(len(self.deck)) for b in range(blocks)
        ]
        groups: dict = {}
        for j, entry in enumerate(self.deck):
            groups.setdefault(entry[:2], []).append(j)
        self._strata = {}
        for members in groups.values():
            size = len(members) * blocks
            for dim in (0, 1):
                perm = np.random.default_rng([self.seed, 4, members[0], dim]).permutation(size)
                for k, j in enumerate(members):
                    for b in range(blocks):
                        self._strata[j, dim, b] = (int(perm[k * blocks + b]), size)

    @property
    def size(self) -> int:
        """Requests in the planned run."""
        return self.blocks * len(self.deck)

    def request(self, i: int) -> dict:
        """Request i of the planned run: deck entry, two stratified uniforms, and a generator for the rest."""
        block, slot = divmod(i, len(self.deck))
        j = int(self._orders[block][slot])
        rng = np.random.default_rng([self.seed, 2, i])
        strata = (self._strata[j, dim, block] for dim in (0, 1))
        u = tuple((stratum + rng.random()) / size for stratum, size in strata)
        return self.make(rng, u, *self.deck[j])

    def out_of_loop(self) -> list:
        """(label, callable) operations run once per run, outside the timed loop."""
        return []


class Desk(Workload):
    """A day's risk run: many books priced against a few fitted models."""

    name = "desk"
    sizes = (2, 20, 100, 500)
    nu_grid = (3.0, 4.0, 5.0, 8.0)
    deck = (
        tuple(("report", n) for n in (2, 2, 2, 2, 2, 20, 20, 20, 20, 100, 100, 100, 500, 500))
        + (("incvar_mixture", 20), ("incvar_mixture", 100), ("incvar", 2), ("incvar", 500))
        + (("refit", 20), ("refit", 500))
        + (("cli", 2), ("cli", 20), ("cli", 100), ("cli_table", 0))
    )

    def setup(self, rng) -> None:
        self.cov, self.normal, self.students, self.mixtures = {}, {}, {}, {}
        for n in self.sizes:
            cov = factor_cov(rng, n)
            zero = np.zeros(n)
            self.cov[n] = cov
            self.normal[n] = elliptic.EllipticModel(
                mu=zero, sigma=cov, generator=student.gaussian_generator(n)
            )
            self.students[n] = {
                nu: elliptic.EllipticModel(
                    mu=zero,
                    sigma=student.dispersion_from_covariance(cov, nu),
                    generator=student.student_generator(n, nu),
                )
                for nu in self.nu_grid
            }

            def comp(scale, nu):
                return elliptic.EllipticModel(
                    mu=zero,
                    sigma=student.dispersion_from_covariance(scale * cov, nu),
                    generator=student.student_generator(n, nu),
                )

            self.mixtures[n] = (
                mixture.MixtureModel([(0.8, self.normal[n]), (0.2, comp(2.5, 4.0))]),
                mixture.MixtureModel(
                    [(0.6, self.normal[n]), (0.3, comp(2.0, 5.0)), (0.1, comp(4.0, 3.0))]
                ),
            )
        # model files for the CLI requests
        for n in (2, 20, 100):
            mu = rng.normal(0.0, 0.05, n)
            with open(self._path(f"model_{n}.json"), "w", encoding="utf-8") as fh:
                json.dump({"mu": mu.tolist(), "sigma": self.cov[n].tolist()}, fh)
            spec = {
                "components": [
                    {"beta": 0.75, "mu": mu.tolist(), "sigma": self.cov[n].tolist()},
                    {"beta": 0.25, "nu": 5.0, "sigma": (2.0 * self.cov[n]).tolist()},
                ]
            }
            with open(self._path(f"mixture_{n}.json"), "w", encoding="utf-8") as fh:
                json.dump(spec, fh)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _fitted(self, rng, u: float, n: int):
        if u < 0.2:
            return self.normal[n]
        if u < 0.65:
            return self.students[n][self.nu_grid[rng.integers(len(self.nu_grid))]]
        if u < 0.85:
            return self.mixtures[n][rng.integers(2)]
        return None  # a fresh nu, built inside the request

    def make(self, rng, u, kind: str, n: int) -> dict:
        req = {"kind": kind, "n": n}
        if kind == "cli_table":
            req["nus"] = [float(x) for x in rng.choice(self.nu_grid, 3, replace=False)]
            req["nus"].append(round(float(rng.uniform(2.5, 50.0)), 3))
            req["argv"] = ["table"]
            for nu in req["nus"]:
                req["argv"] += ["--nu", repr(nu)]
            req["alphas"] = sorted(float(a) for a in rng.choice(ALPHAS, 2, replace=False))
            for a in req["alphas"]:
                req["argv"] += ["--alpha", repr(a)]
            return req
        req["delta"] = rng.normal(size=n)
        if kind == "report":
            req["alpha"] = ALPHAS[int(u[1] * len(ALPHAS))]
            req["model"] = self._fitted(rng, u[0], n)
            if req["model"] is None:
                req["nu"] = float(rng.uniform(2.5, 50.0))
        elif kind == "incvar":
            req["model"] = self.normal[n] if rng.random() < 0.3 else self.students[n][4.0]
        elif kind == "incvar_mixture":
            req["model"] = self.mixtures[n][rng.integers(2)]
        elif kind == "refit":
            t = 2 * n + 40
            common = rng.standard_normal((t, 1))
            req["returns"] = 0.01 * (rng.standard_normal((t, n)) + 0.5 * common) + 3e-4
            req["alpha"] = float(ALPHAS[rng.integers(len(ALPHAS))])
            req["nu"] = None if rng.random() < 0.4 else float(self.nu_grid[rng.integers(4)])
        elif kind == "cli":
            book = self._path(f"book_{n}.csv")
            with open(book, "w", encoding="utf-8") as fh:
                fh.write("id,delta\n")
                fh.writelines(f"f{j},{x!r}\n" for j, x in enumerate(req["delta"].tolist()))
            choice = ("normal", "student", "mixture")[rng.integers(3)]
            argv = [("var", "es")[rng.integers(2)], "--portfolio", book, "--model", choice]
            if choice == "mixture":
                argv += ["--mixture-spec", self._path(f"mixture_{n}.json")]
            else:
                argv += ["--model-file", self._path(f"model_{n}.json")]
            if choice == "student":
                req["nu"] = float(self.nu_grid[rng.integers(4)])
                argv += ["--nu", repr(req["nu"])]
            req["alphas"] = sorted(float(a) for a in rng.choice(ALPHAS, 2, replace=False))
            for a in req["alphas"]:
                argv += ["--alpha", repr(a)]
            req["argv"] = argv + ["--format", "json"]
            req["choice"] = choice
        return req

    def execute(self, req: dict):
        kind = req["kind"]
        if kind == "report":
            model = req["model"]
            if model is None:
                n = req["n"]
                model = student.StudentParams(
                    nu=req["nu"],
                    mu=np.zeros(n),
                    sigma=student.dispersion_from_covariance(self.cov[n], req["nu"]),
                )
            return model, portfolio.risk_report(model, req["delta"], req["alpha"])
        if kind in ("incvar", "incvar_mixture"):
            return portfolio.incremental_var(req["model"], req["delta"], 0.01)
        if kind == "refit":
            mu, cov = linalg.estimate_moments(req["returns"])
            n = req["n"]
            if req["nu"] is None:
                model = elliptic.EllipticModel(mu=mu, sigma=cov, generator=student.gaussian_generator(n))
            else:
                disp = student.dispersion_from_covariance(cov, req["nu"])
                model = student.StudentParams(nu=req["nu"], mu=mu, sigma=disp)
            return portfolio.risk_report(model, req["delta"], req["alpha"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, req: dict, result) -> None:
        kind = req["kind"]
        if kind == "report":
            model, report = result
            _check_report(model, req["delta"], req["alpha"], report)
        elif kind in ("incvar", "incvar_mixture"):
            self._check_incvar(req, result)
        elif kind == "refit":
            self._check_refit(req, result)
        elif kind == "cli":
            self._check_cli(req, result)
        else:
            check_cli_table(result, req["nus"], req["alphas"])

    def _check_incvar(self, req, inc) -> None:
        model, d = req["model"], req["delta"]
        total = float(np.sum(inc.contributions))
        if isinstance(model, mixture.MixtureModel):
            _close(total, inc.total, orc.MIXTURE_EULER_TOL, "Euler sum (mixture)")
            _close(orc.mixture_tail(_mixture_rows(model, d), inc.total), 0.01, orc.REL_TOL, "mixture tail at VaR")
            return
        _close(total, inc.total, orc.EULER_TOL, "Euler sum")
        family, nu = _family(model)
        mean, vol = orc.linear_stats(d, model.mu, model.sigma)
        _close(inc.total, orc.elliptic_var_es(family, nu, mean, vol, 0.01)[0], orc.REL_TOL, "VaR")

    def _check_refit(self, req, report) -> None:
        x = req["returns"]
        mu = x.mean(axis=0)
        cov = np.cov(x, rowvar=False)
        mean, vol = orc.linear_stats(req["delta"], mu, cov)
        nu = req["nu"]
        if nu is None:
            v, es = orc.elliptic_var_es("gaussian", math.inf, mean, vol, req["alpha"])
        else:
            # dispersion (nu - 2)/nu * cov scales vol by sqrt((nu - 2)/nu)
            v, es = orc.elliptic_var_es("student", nu, mean, vol * math.sqrt((nu - 2.0) / nu), req["alpha"])
        _gate(report.es >= report.var, "ES below VaR")
        _close(report.var, v, orc.REL_TOL, "VaR after re-fit")
        _close(report.es, es, orc.REL_TOL, "ES after re-fit")

    def _check_cli(self, req, result) -> None:
        with open(self._path(f"model_{req['n']}.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        mu, sigma = np.asarray(doc["mu"]), np.asarray(doc["sigma"])
        n = req["n"]
        if req["choice"] == "normal":
            model = elliptic.EllipticModel(mu=mu, sigma=sigma, generator=student.gaussian_generator(n))
        elif req["choice"] == "student":
            model = student.StudentParams(nu=req["nu"], mu=mu, sigma=sigma)
        else:
            model = mixture.MixtureModel(
                [
                    (0.75, elliptic.EllipticModel(mu=mu, sigma=sigma, generator=student.gaussian_generator(n))),
                    (
                        0.25,
                        elliptic.EllipticModel(
                            mu=np.zeros(n), sigma=2.0 * sigma, generator=student.student_generator(n, 5.0)
                        ),
                    ),
                ]
            )
        check_cli_reports(result, model, req["delta"], req["alphas"])

    def out_of_loop(self) -> list:
        """Large-book probe: n = 1000 is past the generator normalizers' range today."""
        rng = np.random.default_rng([self.seed, 3])
        n = 1000
        cov = factor_cov(rng, n)
        d = rng.normal(size=n)
        zero = np.zeros(n)

        def probe(build):
            def run():
                model = build()
                report = portfolio.risk_report(model, d, 0.01)
                _check_report(model, d, 0.01, report)

            return run

        return [
            (
                f"large-book probe n={n} student nu={nu:g}",
                probe(lambda nu=nu: student.StudentParams(nu=nu, mu=zero, sigma=student.dispersion_from_covariance(cov, nu))),
            )
            for nu in (3.0, 5.0)
        ] + [
            (
                f"large-book probe n={n} normal",
                probe(lambda: elliptic.EllipticModel(mu=zero, sigma=cov, generator=student.gaussian_generator(n))),
            )
        ]


def _student_density(nu: float, n: int):
    return lambda u: (1.0 + u / nu) ** (-(nu + n) / 2.0)


def _normal_density(u: float) -> float:
    return math.exp(-0.5 * u)


def _powexp_density(beta: float):
    return lambda u: math.exp(-(u**beta) / 2.0)


class Generic(Workload):
    """Custom density generators: every generator is new, so nothing is cached."""

    name = "generic"
    # (kind, n, alpha): within each family every n meets several alphas and
    # every alpha appears equally often
    deck = (
        tuple(("powexp", n, (0.05, 0.01, 1e-3, 1e-6)[(j + r) % 4]) for r in range(3) for j, n in enumerate((1, 2, 3, 5)))
        + tuple(("student", n, a) for n, a in zip((1, 2, 3, 5, 2, 3), (0.05, 0.01, 1e-3, 1e-6, 1e-6, 0.05)))
        + tuple(("normal", n, a) for n, a in zip((1, 2, 3, 5, 3, 5), (1e-6, 1e-3, 0.01, 0.05, 0.01, 1e-3)))
        + (("hyp2f1", 0, None),) * 5
        + (("kernel", 0, None),)
    )
    # (n, family, nu or beta, s) of the kernel route checks, one per block in
    # turn.  A check costs 1 to 2.5 s; at beta below 0.5 and small s it can
    # cost 5 s, and drawing those at random made a run's length swing by a third.
    kernel_design = (
        (2, "student", 8.0, 1.0),
        (3, "powexp", 0.7, 1.5),
        (5, "student", 15.0, 0.6),
        (2, "powexp", 0.55, 2.0),
        (3, "student", 4.0, 2.5),
        (5, "powexp", 0.9, 0.8),
    )

    def _generator(self, family: str, n: int, param: float):
        if family == "powexp":
            return elliptic.DensityGenerator(
                dimension=n, density=_powexp_density(param), name=f"powexp(beta={param:.4f})", auto_rescale=True
            )
        if family == "student":
            log_norm = math.lgamma((param + n) / 2.0) - math.lgamma(param / 2.0) - n / 2.0 * math.log(param * math.pi)
            return elliptic.DensityGenerator(
                dimension=n, density=_student_density(param, n), name=f"bare-student(nu={param:.4f})",
                normalizer=math.exp(log_norm),
            )
        return elliptic.DensityGenerator(
            dimension=n, density=_normal_density, name="bare-normal", normalizer=(2.0 * math.pi) ** (-n / 2.0)
        )

    @staticmethod
    def _param(family: str, u: float) -> float:
        """beta in [0.4, 1] for the power-exponential, nu in [3, 30] for Student."""
        if family == "powexp":
            return 0.4 + 0.6 * u
        return 3.0 + 27.0 * u if family == "student" else 0.0

    def make(self, rng, u, kind: str, n: int, alpha: float | None) -> dict:
        req = {"kind": kind, "n": n, "alpha": alpha}
        if kind == "hyp2f1":
            # log-uniform s in [1e-3, 10] and nu in [2.5, 1000]
            req["s"] = 1e-3 * 1e4 ** u[0]
            req["nu"] = 2.5 * 400.0 ** u[1]
            return req
        if kind == "kernel":
            # the kernel entry is alone in its group, so across a run its first
            # uniform falls once in each of the strata 0 .. blocks - 1: every
            # run checks the same design points, in a seeded order, and u[1]
            # jitters each by up to 5%
            n, family, param, s = self.kernel_design[int(u[0] * self.blocks) % len(self.kernel_design)]
            jitter = 1.0 + 0.1 * ((u[1] * self.blocks) % 1.0 - 0.5)
            req.update(n=n, family=family, param=param * jitter, s=s * jitter)
            return req
        req["family"] = kind
        req["param"] = self._param(kind, u[0])
        req["mu"] = rng.normal(0.0, 0.01, n)
        req["sigma"] = factor_cov(rng, n) * 1e-4
        req["delta"] = rng.normal(size=n)
        return req

    def execute(self, req: dict):
        kind = req["kind"]
        if kind == "hyp2f1":
            beta = student.student_big_g(req["s"], req["nu"], "beta")
            return beta, student.student_big_g(req["s"], req["nu"], "hyp2f1")
        gen = self._generator(req["family"], req["n"], req["param"])
        if kind == "kernel":
            return gen, elliptic.big_g(req["s"], gen, "kernel"), elliptic.big_g(req["s"], gen, "double")
        alpha = req["alpha"]
        q = elliptic.solve_quantile(alpha, gen)
        te = elliptic.marginal_tail_expectation(gen, q)
        model = elliptic.EllipticModel(mu=req["mu"], sigma=req["sigma"], generator=gen)
        return gen, q, te, elliptic.var(model, req["delta"], alpha), elliptic.expected_shortfall(model, req["delta"], alpha)

    def check(self, req: dict, result) -> None:
        kind = req["kind"]
        if kind == "hyp2f1":
            beta, hyp = result
            _close(beta, orc.tail("student", req["nu"], req["s"]), orc.REL_TOL, "beta-route tail")
            _close(hyp, beta, orc.REL_TOL, "hyp2f1 route vs beta route")
            return
        family, n = req["family"], req["n"]
        if kind == "kernel":
            gen, kernel, double = result
            _close(kernel, double, orc.ROUTE_TOL, "kernel route vs double route")
            if family == "student":
                _close(double, orc.tail("student", req["param"], req["s"]), orc.REL_TOL, "double route tail")
            return
        gen, q, te, v, es = result
        alpha = req["alpha"]
        mean, vol = orc.linear_stats(req["delta"], req["mu"], req["sigma"])
        _gate(es >= v, f"ES {es!r} below VaR {v!r}")
        _close(v, -mean + q * vol, orc.REL_TOL, "VaR assembly")
        if family == "powexp" and n > 1:
            # no closed form: the relative residual of the solved quantile
            _close(elliptic.big_g(q, gen), alpha, orc.REL_TOL, "tail at solved quantile")
            _close(es, -mean + vol * te / alpha, orc.REL_TOL, "ES assembly")
            return
        if family == "powexp":
            tail_q, te_q = orc.powexp_tail_1d(req["param"], q), orc.powexp_tail_expectation_1d(req["param"], q)
        else:
            fam = "gaussian" if family == "normal" else "student"
            _close(q, orc.quantile(fam, req["param"], alpha), orc.REL_TOL, "quantile")
            tail_q, te_q = orc.tail(fam, req["param"], q), orc.tail_expectation(fam, req["param"], q)
        _close(tail_q, alpha, orc.REL_TOL, "tail at solved quantile")
        _close(te, te_q, orc.REL_TOL, "tail expectation")
        _close(es, -mean + vol * te_q / alpha, orc.REL_TOL, "ES")


class MonteCarlo(Workload):
    """Monte Carlo validation: one sample per request, reused for four alphas."""

    name = "mc"
    paths = {2: 1_000_000, 50: 300_000}
    deck = tuple(
        (kind, n, workers, antithetic)
        for kind in ("student", "mixture")
        for n in (2, 50)
        for workers in (1, 2)
        for antithetic in (False, True)
    )

    def setup(self, rng) -> None:
        self.models = {}
        for n in self.paths:
            cov = factor_cov(rng, n)
            mu = rng.normal(0.0, 0.05, n)
            students = {
                nu: elliptic.EllipticModel(
                    mu=mu, sigma=student.dispersion_from_covariance(cov, nu), generator=student.student_generator(n, nu)
                )
                for nu in (3.0, 5.0, 10.0)
            }
            mix = mixture.MixtureModel(
                [
                    (0.7, elliptic.EllipticModel(mu=mu, sigma=cov, generator=student.gaussian_generator(n))),
                    (
                        0.3,
                        elliptic.EllipticModel(
                            mu=mu,
                            sigma=student.dispersion_from_covariance(2.0 * cov, 5.0),
                            generator=student.student_generator(n, 5.0),
                        ),
                    ),
                ]
            )
            self.models[n] = (students, mix)

    def make(self, rng, u, kind: str, n: int, workers: int, antithetic: bool) -> dict:
        students, mix = self.models[n]
        model = students[(3.0, 5.0, 10.0)[int(3 * u[0])]] if kind == "student" else mix
        spec = mc.SimulationSpec(
            paths=self.paths[n], seed=int(rng.integers(2**63)), workers=workers, antithetic=antithetic
        )
        return {"kind": kind, "n": n, "model": model, "delta": rng.normal(size=n), "spec": spec}

    def execute(self, req: dict):
        return mc.validate_model(req["model"], req["delta"], ALPHAS, req["spec"])

    def check(self, req: dict, rows) -> int:
        """Gate each row at 5 SE and against scipy; return the number of 3 SE misses."""
        model, d = req["model"], req["delta"]
        misses = 0
        for row in rows:
            for what, analytic, est, se, ok in (
                ("VaR", row.analytic_var, row.mc_var, row.var_se, row.var_ok),
                ("ES", row.analytic_es, row.mc_es, row.es_se, row.es_ok),
            ):
                _miss(
                    abs(analytic - est) / (orc.MC_FAIL_SE * se),
                    f"{what} at alpha={row.alpha:g}: analytic {analytic!r} vs estimate {est!r}, "
                    f"gate {orc.MC_FAIL_SE:g} SE of {se!r}",
                )
                misses += not ok
            if isinstance(model, mixture.MixtureModel):
                rows_ = _mixture_rows(model, d)
                _close(orc.mixture_tail(rows_, row.analytic_var), row.alpha, orc.REL_TOL, "mixture tail at VaR")
                _close(row.analytic_es, orc.mixture_es(rows_, row.analytic_var, row.alpha), orc.REL_TOL, "mixture ES")
            else:
                family, nu = _family(model)
                mean, vol = orc.linear_stats(d, model.mu, model.sigma)
                v, es = orc.elliptic_var_es(family, nu, mean, vol, row.alpha)
                _close(row.analytic_var, v, orc.REL_TOL, "analytic VaR")
                _close(row.analytic_es, es, orc.REL_TOL, "analytic ES")
        return misses

    def out_of_loop(self) -> list:
        """The same seed must give bit-identical pnl at 1 and 2 workers."""
        rng = np.random.default_rng([self.seed, 3])

        def identical(model, n, antithetic):
            d = rng.normal(size=n)
            seed = int(rng.integers(2**63))

            def run():
                draws = [
                    mc.simulate_pnl(
                        model,
                        d,
                        mc.SimulationSpec(
                            paths=200_000, seed=seed, batch_size=50_000, workers=w, antithetic=antithetic
                        ),
                    )
                    for w in (1, 2)
                ]
                _gate(draws[0].tobytes() == draws[1].tobytes(), "pnl differs between 1 and 2 workers")

            return run

        return [
            ("bit-identical pnl, n=2 student, workers 1 vs 2", identical(self.models[2][0][5.0], 2, False)),
            ("bit-identical pnl, n=50 mixture antithetic, workers 1 vs 2", identical(self.models[50][1], 50, True)),
        ]


WORKLOADS = {w.name: w for w in (Desk, Generic, MonteCarlo)}
