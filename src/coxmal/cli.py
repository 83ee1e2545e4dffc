"""Command-line entry point.

Commands: verify (exact check suite over a small-rank grid), clt (Monte Carlo
normal-approximation experiment on product groups), sample / exact-dist /
moments (file dumps).  Reports are JSON, tables and distributions are CSV.
One argparse parser reads the flags and the --config file, whose entries
are flags written as key = value; no setting moves a check's bound.
Exit codes: 0 all checks passed, 1 at least one check failed (in verify, a
check that raises is a failed check), 2 usage error, 141 standard output
closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from .coxeter import (
    EnumerationCapError,
    GroupDescriptor,
    _check_enum_cap,
    descriptor_factors,
    parse_group,
)
from .mallows import (
    MallowsSpec,
    normalization_constant,
    normalization_enumeration_check,
    pattern_probability_bound_check,
    reversal_identity_check,
    sample_statistic,
)
from .moments import (
    cube_moment_bound_check,
    descent_indicator_mean_check,
    exact_distribution,
    goodness_of_fit,
    mean_formula_check,
    variance_bounds_check,
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
GOF_ALPHA = 1e-3  # a sampler-gof cell fails below this chi-square p-value


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    command: str
    group: str | None
    qs: list[float]
    seed: int
    samples: int
    mode: str
    out: str | None
    threads: int


# ---------------------------------------------------------------------------
# config file: sections per command, key = value, '#' comments


def read_config(path: str) -> dict[str, dict[str, str]]:
    """The file's entries as {section: {key: text}}; "" is the top section."""
    sections: dict[str, dict[str, str]] = {}
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
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
                value = value[1:-1]
            current[key.strip()] = value
    return sections


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line, with each --config entry read as a flag.

    An entry key = value of the top section, then of the command's section,
    becomes --key=value, placed before the command line's own flags and
    parsed by the same subparser: flags win over the file, file values get
    the flags' types and choices, and an unknown key is a usage error.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        sections = read_config(args.config)
        entries = [
            f"--{key}={value}"
            for name in ("", args.command)
            for key, value in sections.get(name, {}).items()
        ]
        # the top-level parser has no options, so argv[0] is the command
        args = parser.parse_args([args.command, *entries, *argv[1:]])
    return args


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(
        command=args.command,
        group=args.group,
        qs=[float(v) for v in args.q.split(",") if v.strip()] if args.q else [],
        seed=args.seed,
        samples=args.samples,
        # only moments has a choice; the other commands record the mode they run
        mode=getattr(args, "mode", "mc" if args.command in ("clt", "sample") else "exact"),
        out=args.out,
        threads=args.threads,
    )
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


def _add_checks(report: ExperimentReport, check, g, *args) -> None:
    """Add the result, or the list of results, of check(g, *args) to the report.

    A check that raises, other than at the enumeration cap, adds one FAIL
    named after the check function, with its cell (g and the q in args[0])
    as target, the exception as note and its traceback in detail: a
    library defect fails verify (exit 1) without hiding the other results.
    """
    try:
        results = check(g, *args)
    except EnumerationCapError:
        raise
    except Exception as exc:
        results = CheckResult(
            name=check.__name__,
            target=f"{g} q={args[0]:g}" if args else str(g),
            passed=False,
            note=f"{type(exc).__name__}: {exc}",
            detail={"traceback": traceback.format_exc()},
        )
    if isinstance(results, tuple):  # covariance_type_sums: (sums, checks)
        results = results[1]
    for result in results if isinstance(results, list) else [results]:
        report.add(result)


def sampler_gof_check(g, q: float, seed: int, threads: int) -> CheckResult:
    """Chi-square goodness of fit of 20,000 sampled t against the exact law."""
    spec = MallowsSpec.make(g, q)
    xs = sample_statistic(spec, "t", 20_000, seed, threads)
    _, _, pval = goodness_of_fit(xs, exact_distribution(spec, "t"))
    return CheckResult(
        name="sampler-gof",
        target=f"{spec}",
        passed=pval > GOF_ALPHA,
        observed=pval,
        bound=GOF_ALPHA,
        note="chi-square p-value must exceed the bound",
    )


def cmd_verify(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport("verify", asdict(cfg))
    names = _parse_groups(cfg.group) if cfg.group else list(VERIFY_GROUPS)
    qs = cfg.qs or list(VERIFY_QS)
    # every usage error is raised here, before any check runs; an error
    # inside a check is that check's FAIL
    groups = [parse_group(name) for name in names]
    for g in groups:
        if not isinstance(g, GroupDescriptor):
            raise UsageError("verify expects irreducible groups; use clt for products")
        _check_enum_cap(g)
        for q in qs:
            normalization_constant(g, q)

    add = functools.partial(_add_checks, report)
    for g in groups:
        for q in qs:
            add(normalization_enumeration_check, g, q)
            add(mean_formula_check, g, q)
            add(reversal_identity_check, g, q, "t")
            add(size_bias_law_check, g, q)
            if g.kind in ("A", "B", "D"):
                add(variance_bounds_check, g, q)
                add(descent_indicator_mean_check, g, q)
                add(cube_moment_bound_check, g, q)
                add(tail_bound_check, g, q)
                add(covariance_type_sums, g, q)
        if g.kind in ("A", "B", "D"):
            add(coupling_boundedness_check, g)
        if g.kind in ("B", "D") and g.rank >= 3:
            for q in (0.25, 0.5, 1.0):
                add(pattern_probability_bound_check, g, q, (1,), (-1,))
                add(pattern_probability_bound_check, g, q, (1, 2), (2, -1))
    for name in ("B4", "D4"):
        if name in names:
            g = parse_group(name)
            for q in qs:
                add(smooth_bound_checks, g, q)
                add(w1_bound_check, g, q)
                add(w2_bound_check, g, q)

    rng_seed = cfg.seed
    for name in GOF_GROUPS:
        if name not in names:
            continue
        g = parse_group(name)
        for q in qs:
            add(sampler_gof_check, g, q, rng_seed, cfg.threads)
            rng_seed += 1
    return report


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
    report = ExperimentReport("clt", asdict(cfg))
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
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            report.to_json(fh)
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
    report = ExperimentReport("sample", asdict(cfg))
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
    report = ExperimentReport("exact-dist", asdict(cfg))
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
    report = ExperimentReport("moments", asdict(cfg))
    qs = cfg.qs or [1.0]
    rows = []
    for name in _parse_groups(cfg.group):
        g = parse_group(name)
        if not isinstance(g, GroupDescriptor):
            raise UsageError("moments expects irreducible groups")
        for q in qs:
            spec = MallowsSpec.make(g, q)
            xs = None
            if cfg.mode == "mc":
                xs = sample_statistic(spec, "t", cfg.samples, cfg.seed, cfg.threads)
            mean = mean_formula_check(g, q, xs)
            var = variance_bounds_check(g, q, xs) if g.kind in ("A", "B", "D") else None
            rows.append(
                {
                    "group": str(g),
                    "q": q,
                    "n": g.num_generators,
                    "mode": cfg.mode,
                    "count": "" if xs is None else cfg.samples,
                    "mean_formula": mean.detail["formula"],
                    "mean_measured": mean.detail["measured"],
                    "mean_ok": mean.passed,
                    "variance": mean.detail["variance"],
                    "var_lower": "" if var is None else var.detail["lower"],
                    "var_upper": "" if var is None else var.detail["upper"],
                    "var_ok": "" if var is None else var.passed,
                }
            )
            report.add(
                CheckResult(
                    name="moment-table-row",
                    target=str(spec),
                    passed=mean.passed and (var is None or var.passed),
                    observed=mean.detail["measured"],
                    bound=mean.detail["formula"],
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
        allow_abbrev=False,
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
        sp = sub.add_parser(name, help=doc, allow_abbrev=False)  # so --sam is not --samples
        sp.add_argument("--group", help="group descriptor, e.g. B4 or B50 x B50; comma-separates a list")
        sp.add_argument("--q", help="q parameter; comma-separates per-factor or grid values")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=100_000)
        sp.add_argument("--out", help="output path (directory for clt)")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--config", help="file of key = value flags, in [command] sections")
        if name == "moments":
            sp.add_argument("--mode", choices=("exact", "mc"), default="exact")
    return parser


COMMANDS = {
    "verify": cmd_verify,
    "clt": cmd_clt,
    "sample": cmd_sample,
    "exact-dist": cmd_exact_dist,
    "moments": cmd_moments,
}


def main(argv=None) -> int:
    try:
        cfg = build_config(parse_args(argv))
        # verify's report file is opened before any check runs, so a path
        # that cannot be written is a usage error, not a traceback after them
        verify_out = cfg.out if cfg.command == "verify" else None
        with open(verify_out, "w", encoding="utf-8") if verify_out else contextlib.nullcontext() as fh:
            report = COMMANDS[cfg.command](cfg)
            if fh is not None:
                report.to_json(fh)
        for result in report.results:
            print(result.line())
        summary = "all checks passed" if report.all_passed else "CHECK FAILURES"
        print(f"{report.command}: {len(report.results)} checks, {summary}")
        sys.stdout.flush()
    except SystemExit as exc:
        # argparse exits on usage problems; keep main() returning instead
        return int(exc.code or 0)
    except BrokenPipeError:
        # the reader of stdout has gone (as under `| head`): write nothing
        # more, and point stdout at devnull so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process the pipe killed
    except (UsageError, ValueError, OSError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
