"""Command-line entry point.

Commands: verify (exact check suite over a small-rank grid), clt (Monte Carlo
normal-approximation experiment on product groups), sample / exact-dist /
moments (file dumps).  Reports are JSON, tables and distributions are CSV.
Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .coxeter import EnumerationCapError, GroupDescriptor, descriptor_factors, parse_group
from .mallows import (
    MallowsSpec,
    normalization_enumeration_check,
    pattern_probability_bound_check,
    reversal_identity_check,
    sample_statistic,
)
from .moments import (
    cube_moment_bound_check,
    descent_indicator_mean_check,
    empirical_distribution,
    exact_distribution,
    goodness_of_fit,
    mean_two_sided,
    variance_bounds_two_sided,
)
from .normal import (
    exact_w2_floor,
    smooth_bound_checks,
    tail_bound_check,
    w1_bound_check,
    w2_bound_check,
    w2_with_se,
    wasserstein_from_samples,
)
from .reports import CheckResult, ExperimentReport
from .sizebias import coupling_boundedness_check, covariance_type_sums, size_bias_law_check

VERIFY_GROUPS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "I2(3)", "I2(4)", "I2(5)", "I2(6)"]
VERIFY_QS = [0.25, 0.5, 1.0, 2.0, 4.0]
GOF_GROUPS = ["A3", "B3", "D4", "I2(4)"]

DEFAULT_TOLERANCES = {
    "rel_tol": 1e-10,
    "tv_tol": 1e-12,
    "recon_tol": 1e-8,
    "gof_alpha": 1e-3,
}


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    command: str
    group: str | None = None
    qs: list[float] = field(default_factory=list)
    seed: int = 0
    samples: int = 100_000
    mode: str = "exact"
    out: str | None = None
    threads: int = 1
    tolerances: dict = field(default_factory=dict)

    def tolerance(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "group": self.group,
            "qs": list(self.qs),
            "seed": self.seed,
            "samples": self.samples,
            "mode": self.mode,
            "out": self.out,
            "threads": self.threads,
            "tolerances": dict(self.tolerances),
        }


# ---------------------------------------------------------------------------
# config file: sections per command, key = value, '#' comments


def _parse_scalar(text: str):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def read_config(path: str) -> dict:
    sections: dict[str, dict] = {}
    current = sections.setdefault("", {})
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = sections.setdefault(line[1:-1].strip(), {})
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            value = value.strip()
            if "," in value:
                parsed = [_parse_scalar(v) for v in value.split(",") if v.strip()]
            else:
                parsed = _parse_scalar(value)
            current[key.strip()] = parsed
    return sections


def _as_float_list(value) -> list[float]:
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, str):
        return [float(v) for v in value.split(",") if v.strip()]
    return [float(v) for v in value]


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    section = {}
    if args.config:
        sections = read_config(args.config)
        section = {**sections.get("", {}), **sections.get(args.command, {})}

    def pick(flag, key, default):
        if flag is not None:
            return flag
        if key in section:
            return section[key]
        return default

    qs = pick(args.q, "q", None)
    if qs is None:
        qs = section.get("qs")
    # only moments has a choice; the other commands record the mode they run
    mode = "mc" if args.command in ("clt", "sample") else "exact"
    if args.command == "moments":
        mode = str(pick(args.mode, "mode", mode))
    cfg = ExperimentConfig(
        command=args.command,
        group=pick(args.group, "group", None),
        qs=_as_float_list(qs) if qs is not None else [],
        seed=int(pick(args.seed, "seed", 0)),
        samples=int(pick(args.samples, "samples", 100_000)),
        mode=mode,
        out=pick(args.out, "out", None),
        threads=int(pick(args.threads, "threads", 1)),
        tolerances={k: section[k] for k in DEFAULT_TOLERANCES if k in section},
    )
    if cfg.mode not in ("exact", "mc"):
        raise UsageError(f"unknown mode {cfg.mode!r}")
    if cfg.samples <= 1:
        raise UsageError("--samples must be at least 2")
    if cfg.threads < 1:
        raise UsageError("--threads must be at least 1")
    return cfg


def _parse_groups(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise UsageError("empty group list")
    return names


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport("verify", cfg.as_dict())
    groups = _parse_groups(cfg.group) if cfg.group else list(VERIFY_GROUPS)
    qs = cfg.qs or list(VERIFY_QS)
    rel_tol = cfg.tolerance("rel_tol")
    tv_tol = cfg.tolerance("tv_tol")
    recon_tol = cfg.tolerance("recon_tol")
    gof_alpha = cfg.tolerance("gof_alpha")

    for name in groups:
        g = parse_group(name)
        if not isinstance(g, GroupDescriptor):
            raise UsageError("verify expects irreducible groups; use clt for products")
        for q in qs:
            report.add(_retol(normalization_enumeration_check(g, q), rel_tol))
            report.add(_mean_check(g, q, rel_tol))
            report.add(_retol(reversal_identity_check(g, q, "t"), tv_tol))
            report.add(_retol(size_bias_law_check(g, q), tv_tol))
            if g.kind in ("A", "B", "D"):
                report.add(_variance_check(g, q))
                report.add(_retol(descent_indicator_mean_check(g, q), rel_tol))
                report.add(cube_moment_bound_check(g, q))
                report.add(tail_bound_check(g, q))
                _, cov_checks = covariance_type_sums(g, q)
                report.add(_retol(cov_checks[0], recon_tol))
                for c in cov_checks[1:]:
                    report.add(c)
        if g.kind in ("A", "B", "D"):
            report.add(coupling_boundedness_check(g))
        if g.kind in ("B", "D") and g.rank >= 3:
            for q in (0.25, 0.5, 1.0):
                report.add(pattern_probability_bound_check(g, q, (1,), (-1,)))
                report.add(pattern_probability_bound_check(g, q, (1, 2), (2, -1)))
    for name in ("B4", "D4"):
        if name in groups:
            g = parse_group(name)
            for q in qs:
                for c in smooth_bound_checks(g, q):
                    report.add(c)
                report.add(w1_bound_check(g, q))
                report.add(w2_bound_check(g, q))

    rng_seed = cfg.seed
    for name in GOF_GROUPS:
        if name not in groups:
            continue
        g = parse_group(name)
        for q in qs:
            spec = MallowsSpec.make(g, q)
            dist = exact_distribution(spec, "t")
            xs = sample_statistic(spec, "t", 20_000, rng_seed, cfg.threads)
            rng_seed += 1
            _, _, pval = goodness_of_fit(xs, dist)
            report.add(
                CheckResult(
                    name="sampler-gof",
                    target=f"{spec}",
                    passed=pval > gof_alpha,
                    observed=pval,
                    bound=gof_alpha,
                    note="chi-square p-value must exceed the bound",
                )
            )
    return report


def _retol(check: CheckResult, tol: float) -> CheckResult:
    """Re-evaluate a |observed| <= tolerance check under an overridden tolerance."""
    if check.observed is None:
        return check
    return CheckResult(
        name=check.name,
        target=check.target,
        passed=abs(check.observed) <= tol,
        observed=check.observed,
        bound=tol,
        note=check.note,
        detail=check.detail,
    )


def _mean_check(g, q: float, rel_tol: float) -> CheckResult:
    spec = MallowsSpec.make(g, q)
    measured = exact_distribution(spec, "t").mean()
    formula = mean_two_sided(g, q)
    rel = abs(measured - formula) / formula
    return CheckResult(
        name="mean-formula",
        target=str(spec),
        passed=rel <= rel_tol,
        observed=rel,
        bound=rel_tol,
        detail={"measured": measured, "formula": formula},
    )


def _variance_check(g, q: float) -> CheckResult:
    spec = MallowsSpec.make(g, q)
    var = exact_distribution(spec, "t").variance()
    b = variance_bounds_two_sided(g, q)
    lo = max(0.0, b.lower)
    ok = lo <= var <= b.upper
    detail = {"lower": lo, "upper": b.upper, "variance": var}
    if b.corollary_applicable:
        ok = ok and b.corollary_lower <= var <= b.corollary_upper
        detail["corollary"] = [b.corollary_lower, b.corollary_upper]
    return CheckResult(
        name="variance-bounds",
        target=str(spec),
        passed=ok,
        observed=var,
        bound=b.upper,
        note=b.note,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# clt


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name).strip("_")


def _histogram_csv(path: str, xs: np.ndarray, mu: float, sigma: float):
    values, counts = np.unique(xs, return_counts=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value,count,normalized_value,density\n")
        for v, c in zip(values, counts):
            z = float((v - mu) / sigma)
            dens = float(c / (len(xs) / sigma))
            fh.write(f"{int(v)},{int(c)},{z!r},{dens!r}\n")


def _clt_one(cfg: ExperimentConfig, report: ExperimentReport, desc: str, out_dir):
    spec = MallowsSpec.make(desc, cfg.qs or 1.0)
    xs = sample_statistic(spec, "t", cfg.samples, cfg.seed, cfg.threads)
    sigma = float(xs.std(ddof=1))
    if sigma == 0:
        raise UsageError(f"zero sample variance for {spec}; nothing to normalize")
    mu = float(xs.mean())
    hard_width = 2.0 * sum(f.num_generators for f in descriptor_factors(spec.group))
    w1, s1 = wasserstein_from_samples(xs, 1, hard_width)
    w2, s2 = wasserstein_from_samples(xs, 2, hard_width)
    report.add(
        CheckResult(
            name="clt-distance",
            target=str(spec),
            passed=None,
            observed=w2.value,
            note=f"W1={w1.value:.5f} (slack {s1:.3g}), W2={w2.value:.5f} (slack {s2:.3g})",
            detail={"mu": mu, "sigma": sigma, "w1": w1.value, "w1_slack": s1, "w2": w2.value, "w2_slack": s2},
        )
    )
    factors = descriptor_factors(spec.group)
    if len(factors) == 1 and factors[0].kind in ("A", "B", "D"):
        q = spec.q
        report.add(w1_bound_check(factors[0], q, xs))
        report.add(w2_bound_check(factors[0], q, xs))
    if out_dir:
        _histogram_csv(os.path.join(out_dir, f"hist_{_sanitize(str(spec.group))}.csv"), xs, mu, sigma)
    return spec, float(xs.var(ddof=1)), w2.value, s2


def cmd_clt(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport("clt", cfg.as_dict())
    out_dir = None
    if cfg.out:
        out_dir = cfg.out
        os.makedirs(out_dir, exist_ok=True)
    if cfg.group:
        rows = []
        for desc in _parse_groups(cfg.group):
            rows.append(_clt_one(cfg, report, desc, out_dir))
        for (sa, va, wa, _), (sb, vb, wb, _) in zip(rows, rows[1:]):
            report.add(
                CheckResult(
                    name="clt-trend",
                    target=f"{sa.group} -> {sb.group}",
                    passed=None,
                    observed=wb - wa,
                    note=f"Var(t) {va:.2f} -> {vb:.2f}; W2 {wa:.5f} -> {wb:.5f}",
                )
            )
    else:
        _default_clt_suite(cfg, report, out_dir)
    if out_dir:
        report.to_json(os.path.join(out_dir, "report.json"))
    return report


def _default_clt_suite(cfg: ExperimentConfig, report: ExperimentReport, out_dir):
    # a medium-rank group against the published W2 rate
    b200 = parse_group("B200")
    xs = sample_statistic(MallowsSpec.make(b200, 0.5), "t", cfg.samples, cfg.seed, cfg.threads)
    report.add(w2_bound_check(b200, 0.5, xs))

    # product against a single group of matched variance (trend report)
    prod = MallowsSpec.make("B50 x B50 x A49", 1.0)
    single = MallowsSpec.make("B149", 1.0)
    wp, sep, _ = w2_with_se(prod, cfg.samples, cfg.seed, cfg.threads)
    ws, ses, _ = w2_with_se(single, cfg.samples, cfg.seed + 1, cfg.threads)
    report.add(
        CheckResult(
            name="clt-product-vs-single",
            target=f"{prod.group} vs {single.group}",
            passed=None,
            observed=abs(wp - ws),
            bound=2 * (sep + ses),
            note=f"W2 {wp:.5f} (se {sep:.5f}) vs {ws:.5f} (se {ses:.5f})",
        )
    )

    # bounded-variance product: distance stays away from zero
    fixed = MallowsSpec.make("I2(5) x I2(5)", cfg.qs[0] if cfg.qs else 1.0)
    floor = exact_w2_floor(fixed)
    xs = sample_statistic(fixed, "t", cfg.samples, cfg.seed + 2, cfg.threads)
    dist_w, _ = wasserstein_from_samples(xs, 2, 2.0 * fixed.group.num_generators)
    report.add(
        CheckResult(
            name="clt-no-normal-limit",
            target=str(fixed),
            passed=None,
            observed=dist_w.value,
            bound=floor,
            note="observed W2 should stay near/above the exact-law floor",
        )
    )
    if out_dir:
        mu, sigma = float(xs.mean()), float(xs.std(ddof=1))
        _histogram_csv(os.path.join(out_dir, f"hist_{_sanitize(str(fixed.group))}.csv"), xs, mu, sigma)


# ---------------------------------------------------------------------------
# dumps


def _open_out(cfg: ExperimentConfig):
    if cfg.out:
        return open(cfg.out, "w", encoding="utf-8")
    return sys.stdout


def cmd_sample(cfg: ExperimentConfig) -> ExperimentReport:
    if not cfg.group:
        raise UsageError("sample needs --group")
    spec = MallowsSpec.make(cfg.group, cfg.qs or 1.0)
    xs = sample_statistic(spec, "t", cfg.samples, cfg.seed, cfg.threads)
    fh = _open_out(cfg)
    try:
        fh.write(f"# group={spec.group}\n# q={','.join(repr(q) for q in spec.qs)}\n")
        fh.write(f"# seed={cfg.seed}\n# statistic=t\nvalue\n")
        fh.write("\n".join(str(int(v)) for v in xs))
        fh.write("\n")
    finally:
        if fh is not sys.stdout:
            fh.close()
    report = ExperimentReport("sample", cfg.as_dict())
    report.add(CheckResult("sample-dump", str(spec), None, observed=float(len(xs))))
    return report


def cmd_exact_dist(cfg: ExperimentConfig) -> ExperimentReport:
    if not cfg.group:
        raise UsageError("exact-dist needs --group")
    spec = MallowsSpec.make(cfg.group, cfg.qs or 1.0)
    dist = exact_distribution(spec, "t")
    if cfg.out:
        dist.to_csv(cfg.out)
    else:
        dist.to_csv(sys.stdout)
    report = ExperimentReport("exact-dist", cfg.as_dict())
    report.add(
        CheckResult(
            "pmf-total",
            str(spec),
            passed=abs(float(dist.probs.sum()) - 1.0) <= 1e-9,
            observed=float(dist.probs.sum()),
            bound=1.0,
        )
    )
    return report


def cmd_moments(cfg: ExperimentConfig) -> ExperimentReport:
    if not cfg.group:
        raise UsageError("moments needs --group")
    report = ExperimentReport("moments", cfg.as_dict())
    qs = cfg.qs or [1.0]
    rows = []
    for name in _parse_groups(cfg.group):
        g = parse_group(name)
        if not isinstance(g, GroupDescriptor):
            raise UsageError("moments expects irreducible groups")
        for q in qs:
            spec = MallowsSpec.make(g, q)
            if cfg.mode == "exact":
                dist = exact_distribution(spec, "t")
                mean, var = dist.mean(), dist.variance()
                mean_slack = 1e-10 * abs(mean)
                var_slack = 0.0
                count = ""
            else:
                dist, summary = empirical_distribution(spec, "t", cfg.samples, cfg.seed, cfg.threads)
                mean, var = summary.mean, summary.variance
                mean_slack = 5.0 * summary.se_mean
                var_slack = 5.0 * var * math.sqrt(2.0 / (cfg.samples - 1))
                count = cfg.samples
            formula = mean_two_sided(g, q)
            mean_ok = abs(mean - formula) <= max(mean_slack, 1e-12)
            row = {
                "group": str(g),
                "q": q,
                "n": g.num_generators,
                "mode": cfg.mode,
                "count": count,
                "mean_formula": formula,
                "mean_measured": mean,
                "mean_ok": mean_ok,
                "variance": var,
            }
            if g.kind in ("A", "B", "D"):
                b = variance_bounds_two_sided(g, q)
                lo = max(0.0, b.lower)
                var_ok = lo - var_slack <= var <= b.upper + var_slack
                row.update(var_lower=lo, var_upper=b.upper, var_ok=var_ok)
            else:
                var_ok = None
                row.update(var_lower="", var_upper="", var_ok="")
            rows.append(row)
            report.add(
                CheckResult(
                    name="moment-table-row",
                    target=str(spec),
                    passed=mean_ok if var_ok is None else (mean_ok and var_ok),
                    observed=mean,
                    bound=formula,
                )
            )
    headers = list(rows[0].keys())
    fh = _open_out(cfg)
    try:
        fh.write(",".join(headers) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[h]) for h in headers) + "\n")
    finally:
        if fh is not sys.stdout:
            fh.close()
    return report


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxmal",
        description="Mallows-distributed Coxeter group elements: verification suite and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("verify", "run the exact check suite over the small-rank grid"),
        ("clt", "Monte Carlo normal-approximation experiment"),
        ("sample", "dump seeded samples of the two-sided descent statistic"),
        ("exact-dist", "dump the exact distribution as CSV"),
        ("moments", "formula-vs-measured moment table"),
    ):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--group", help="group descriptor, e.g. B4 or B50 x B50; comma-separates a list")
        sp.add_argument("--q", help="q parameter; comma-separates per-factor or grid values")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--samples", type=int)
        sp.add_argument("--out", help="output path (directory for clt)")
        sp.add_argument("--threads", type=int)
        sp.add_argument("--config", help="key=value config file with [command] sections")
        if name == "moments":
            sp.add_argument("--mode", choices=("exact", "mc"))
    return parser


COMMANDS = {
    "verify": cmd_verify,
    "clt": cmd_clt,
    "sample": cmd_sample,
    "exact-dist": cmd_exact_dist,
    "moments": cmd_moments,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage problems; keep main() returning instead
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
        report = COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in report.results:
        print(result.line())
    summary = "all checks passed" if report.all_passed else "CHECK FAILURES"
    print(f"{report.command}: {len(report.results)} checks, {summary}")
    if cfg.out and cfg.command == "verify":
        report.to_json(cfg.out)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
