import json
import re
import shlex
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import coxmal.cli
import coxmal.coxeter
import coxmal.mallows
import coxmal.moments
import coxmal.normal
import coxmal.sizebias
from coxmal.cli import UsageError, build_config, build_parser, main, parse_args, read_config


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_read_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "[verify]\n"
        "group = B3\n"
        "q = 0.5, 1, 2\n"
        "seed = 7\n"
        'out = "results dir"\n'
        "\n"
        "[sample]\n"
        "samples = 500\n"
    )
    cfg = read_config(str(p))
    assert cfg["verify"] == {"group": "B3", "q": "0.5, 1, 2", "seed": "7", "out": "results dir"}
    assert cfg["sample"] == {"samples": "500"}


def test_read_config_rejects_junk(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[verify]\nthis line has no equals sign\n")
    with pytest.raises(UsageError):
        read_config(str(p))


def test_config_precedence(tmp_path):
    """A flag beats the file, the command's section beats the top section,
    and the file beats the default."""
    p = tmp_path / "run.cfg"
    p.write_text("seed = 5\nsamples = 250\n[sample]\ngroup = B3\nseed = 11\n")
    cfg = build_config(parse_args(["sample", "--config", str(p), "--seed", "3"]))
    assert (cfg.group, cfg.seed, cfg.samples, cfg.threads) == ("B3", 3, 250, 1)
    assert build_config(parse_args(["sample", "--config", str(p)])).seed == 11


def test_config_lists_run_verify(tmp_path, capsys):
    p = tmp_path / "experiment.cfg"
    p.write_text("[verify]\ngroup = B3, B4\nq = 0.5, 1\n")
    rc, out, _ = run(["verify", "--config", str(p)], capsys)
    assert rc == 0
    assert out.splitlines()[-1] == "verify: 92 checks, all checks passed"


@pytest.mark.parametrize("entry", ["sampels = 5", "tv_tol = 1", "gof_alpha = 0"])
def test_unknown_config_key_is_usage_error(entry, tmp_path, capsys):
    """A misspelt key is not ignored, and no key moves a check's bound."""
    p = tmp_path / "run.cfg"
    p.write_text(f"[verify]\n{entry}\n")
    rc, out, err = run(["verify", "--group", "B2", "--q", "1", "--config", str(p)], capsys)
    assert rc == 2
    assert f"unrecognized arguments: --{entry.split()[0]}=" in err
    assert out == ""


@pytest.mark.parametrize(
    "flags,config,named",
    [(["--sam", "3"], "", "--sam 3"), (["--thread", "2"], "", "--thread 2"), ([], "sam = 3", "--sam=3")],
    ids=["flag-sam", "flag-thread", "config-sam"],
)
def test_abbreviated_flag_is_usage_error(flags, config, named, tmp_path, capsys):
    """A flag or config key cut short is refused, not taken as the flag it
    prefixes."""
    p = tmp_path / "run.cfg"
    p.write_text(f"[sample]\n{config}\n")
    rc, out, err = run(["sample", "--group", "B3", "--config", str(p), *flags], capsys)
    assert rc == 2
    assert f"unrecognized arguments: {named}" in err
    assert out == ""


def test_readme_commands_and_config_parse(tmp_path):
    """Every coxmal line in README's fenced blocks parses, and so does its
    config example, for each command it has a section for."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    commands = [line for b in blocks for line in b.splitlines() if line.startswith("coxmal ")]
    assert len(commands) >= 8
    for line in commands:
        build_config(build_parser().parse_args(shlex.split(line)[1:]))
    (example,) = [b for b in blocks if re.search(r"^\[\w", b, re.M)]
    p = tmp_path / "experiment.cfg"
    p.write_text(example)
    sections = [name for name in read_config(str(p)) if name]
    assert "verify" in sections
    for name in sections:
        build_config(parse_args([name, "--config", str(p)]))


def test_verify_small_grid_passes(capsys):
    rc, out, _ = run(["verify", "--group", "B3", "--q", "0.5,1"], capsys)
    assert rc == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_rejects_d3(capsys):
    rc, _, err = run(["verify", "--group", "D3"], capsys)
    assert rc == 2
    assert "rank" in err


def test_verify_fails_when_a_check_fails(monkeypatch, capsys):
    real = coxmal.cli.reversal_identity_check
    monkeypatch.setattr(
        coxmal.cli, "reversal_identity_check", lambda *a: replace(real(*a), passed=False)
    )
    rc, out, _ = run(["verify", "--group", "B3", "--q", "1"], capsys)
    assert rc == 1
    assert "FAIL reversal-t B3 q=1 " in out
    assert out.splitlines()[-1].endswith("CHECK FAILURES")


def test_verify_turns_a_raising_check_into_a_fail(off_group_star, tmp_path, capsys):
    """A check that raises is a FAIL named by its function, with its cell as
    target, the exception as note and the traceback in the report; verify
    exits 1, not 2, and the other checks' results still print."""
    out_path = tmp_path / "report.json"
    rc, out, err = run(["verify", "--group", "B3", "--q", "0.5", "--out", str(out_path)], capsys)
    assert rc == 1 and err == ""
    lines = out.splitlines()
    assert (
        "FAIL size_bias_law_check B3 q=0.5 (ValueError: B3: the right star of row 0"
        " at s_0 is outside the group)"
    ) in lines
    assert "FAIL coupling_boundedness_check B3 (ValueError: B3: the right star" in out
    assert any(line.startswith("PASS normalization-constant B3 q=0.5 ") for line in lines)
    assert any(line.startswith("PASS reversal-t B3 q=0.5 ") for line in lines)
    assert lines[-1].endswith("CHECK FAILURES")
    failed = [r for r in json.loads(out_path.read_text())["results"] if r["passed"] is False]
    assert {r["name"] for r in failed} == {
        "size_bias_law_check", "covariance_type_sums", "coupling_boundedness_check"
    }
    assert all("in _coupling_table" in r["detail"]["traceback"] for r in failed)


# (name, status) of every line of `coxmal verify --seed 1` on the default grid
VERIFY_CENSUS = {
    ("coupling-boundedness", "PASS"): 8,
    ("covariance-reconstruction", "PASS"): 40,
    ("covariance-type-1-bound", "PASS"): 20,
    ("covariance-type-2-bound", "PASS"): 20,
    ("covariance-type-3-bound", "PASS"): 20,
    ("covariance-type-4-bound", "PASS"): 20,
    ("covariance-type-5-bound", "PASS"): 20,
    ("covariance-type-6-bound", "PASS"): 20,
    ("covariance-type-bounds", "INFO"): 20,
    ("cube-moment-bound", "PASS"): 40,
    ("descent-indicator-mean", "PASS"): 40,
    ("mean-formula", "PASS"): 60,
    ("normalization-constant", "PASS"): 60,
    ("pattern-probability-bound", "PASS"): 18,
    ("reversal-t", "PASS"): 60,
    ("sampler-gof", "PASS"): 20,
    ("size-bias-law", "PASS"): 60,
    ("smooth-gap-generic[clamp]", "PASS"): 10,
    ("smooth-gap-generic[sin]", "PASS"): 10,
    ("smooth-gap-generic[tanh]", "PASS"): 10,
    ("smooth-gap-published[clamp]", "INFO"): 5,
    ("smooth-gap-published[clamp]", "PASS"): 5,
    ("smooth-gap-published[sin]", "INFO"): 5,
    ("smooth-gap-published[sin]", "PASS"): 5,
    ("smooth-gap-published[tanh]", "INFO"): 5,
    ("smooth-gap-published[tanh]", "PASS"): 5,
    ("tail-bounds", "PASS"): 40,
    ("variance-bounds", "PASS"): 40,
    ("w1-normal-bound", "INFO"): 5,
    ("w1-normal-bound", "PASS"): 5,
    ("w2-normal-bound", "INFO"): 10,
}


def test_verify_default_grid_census(capsys):
    """The default grid runs 706 checks: 656 PASS, 50 INFO and no FAIL, in
    these (name, status) counts.  Values are not pinned: rounding noise
    such as 1.4e-16 may differ between CPUs."""
    rc, out, _ = run(["verify", "--seed", "1"], capsys)
    *lines, summary = out.splitlines()
    assert rc == 0 and summary == "verify: 706 checks, all checks passed"
    census = Counter((line.split()[1], line.split()[0]) for line in lines)
    assert dict(census) == VERIFY_CENSUS
    assert Counter(status for _, status in census.elements()) == {"PASS": 656, "INFO": 50}


def test_verify_builds_each_group_table_once(capsys):
    """Each group's checks run together, so the default grid builds each
    per-group cache once: the enumeration for the 8 A, B and D groups, and
    the row table and the star table for all 12."""
    tables = (coxmal.coxeter._insertion_windows, coxmal.mallows._group_table,
              coxmal.sizebias._coupling_table)
    for table in tables:
        table.cache_clear()
    rc, _, _ = run(["verify", "--seed", "1"], capsys)
    assert rc == 0
    assert [table.cache_info().misses for table in tables] == [8, 12, 12]


def _verify_lines(argv, capsys):
    rc, out, _ = run(["verify", *argv], capsys)
    assert rc == 0
    return out.splitlines()[:-1]


def test_verify_matches_groups_by_their_parsed_form(capsys):
    """A group is matched by its parsed descriptor, not its text: "B 4"
    runs B4's checks, smooth, W1 and W2 included, and "I2( 4 )" its
    sampler-gof cell.  A repeated group runs once, and a sampler-gof seed
    counts over the GOF groups present in GOF_GROUPS order, whatever the
    order of the list."""
    def cells(lines):
        return [tuple(line.split()[:3]) for line in lines]

    b4 = _verify_lines(["--group", "B4", "--q", "0.5"], capsys)
    assert len(b4) == 30
    assert cells(_verify_lines(["--group", "B 4", "--q", "0.5"], capsys)) == cells(b4)
    spaced = _verify_lines(["--group", "I2( 4 )", "--q", "0.5"], capsys)
    assert ("PASS", "sampler-gof", "I2(4)") in cells(spaced)
    listed = _verify_lines(["--group", "A3,I2(4)", "--q", "0.5,2"], capsys)
    reordered = _verify_lines(["--group", "I2( 4 ),A3,A 3", "--q", "0.5,2"], capsys)
    assert sorted(reordered) == sorted(listed)
    assert sum("sampler-gof" in line for line in listed) == 4


def test_verify_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, _, _ = run(
        ["verify", "--group", "B2", "--q", "1", "--out", str(out_path)], capsys
    )
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["command"] == "verify"
    assert report["all_passed"] is True
    assert any(r["name"].startswith("normalization") for r in report["results"])


def test_verify_report_path_that_cannot_be_opened_is_usage_error(tmp_path, monkeypatch, capsys):
    """A --out path in a missing directory is refused before any check runs,
    with one error line and exit 2, not a traceback after the checks."""
    ran = []
    monkeypatch.setattr(coxmal.cli, "normalization_enumeration_check", lambda *a: ran.append(a))
    out_path = tmp_path / "missing" / "r.json"
    rc, out, err = run(["verify", "--group", "A1", "--q", "1", "--out", str(out_path)], capsys)
    assert rc == 2
    assert ran == [] and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out_path.parent.exists()


def test_sample_deterministic(capsys):
    argv = ["sample", "--group", "B3", "--q", "0.5", "--seed", "4", "--samples", "40"]
    rc1, out1, _ = run(argv, capsys)
    rc2, out2, _ = run(argv + ["--threads", "3"], capsys)
    assert rc1 == rc2 == 0
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
    assert strip(out1) == strip(out2)
    vals = [int(l) for l in strip(out1) if l.isdigit()]
    assert len(vals) == 40 and all(0 <= v <= 6 for v in vals)


def test_exact_dist_csv(capsys):
    rc, out, _ = run(["exact-dist", "--group", "B3", "--q", "1"], capsys)
    assert rc == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    header, body = rows[0], rows[1:]
    assert header.split(",")[:2] == ["value", "probability"]
    body = [r for r in body if r[0].isdigit()]
    total = sum(float(r.split(",")[1]) for r in body)
    assert abs(total - 1.0) < 1e-12
    # t = 1 and t = 5 carry no mass in B3: des(w) + des(w^-1) = 1 would
    # force one of the pair to be the identity
    assert [int(r.split(",")[0]) for r in body] == [0, 2, 3, 4, 6]


@pytest.mark.parametrize("q", ["1e31", "1e200"])
def test_exact_dist_far_q_puts_all_mass_on_longest(q, capsys):
    rc, out, _ = run(["exact-dist", "--group", "A4", "--q", q], capsys)
    assert rc == 0
    law = dict(l.split(",") for l in out.splitlines() if l[:1].isdigit())
    assert float(law["8"]) == 1.0  # t(w0) = 2n, and w0 carries all the mass


@pytest.mark.parametrize("q", ["1e31", "1e200"])
def test_verify_far_q_is_usage_error(q, capsys):
    rc, _, err = run(["verify", "--group", "A4", "--q", q], capsys)
    assert rc == 2
    assert "overflows a double" in err


def test_moments_exact_table(capsys):
    rc, out, _ = run(["moments", "--group", "B4", "--q", "1", "--mode", "exact"], capsys)
    assert rc == 0
    row = [l for l in out.splitlines() if l.startswith("B4,")][0]
    cells = row.split(",")
    assert float(cells[5]) == 4.0  # mean formula 2nq/(1+q)
    assert cells[7] == "yes"


def test_moments_rows_take_the_verify_checks_verdicts(monkeypatch, capsys):
    """moments judges a row by mean_formula_check and variance_bounds_check,
    so B2 handed A4's law fails both columns and the row."""
    real = coxmal.moments.exact_distribution
    monkeypatch.setattr(
        coxmal.moments,
        "exact_distribution",
        lambda spec, statistic="t": real(coxmal.mallows.MallowsSpec.make("A4", spec.q), statistic),
    )
    rc, out, _ = run(["moments", "--group", "B2", "--q", "1", "--mode", "exact"], capsys)
    assert rc == 1
    cells = [l for l in out.splitlines() if l.startswith("B2,")][0].split(",")
    assert (cells[7], cells[11]) == ("no", "no")
    assert "FAIL moment-table-row B2 q=1" in out


def test_moments_mc_within_slack(capsys):
    rc, out, _ = run(
        ["moments", "--group", "B3", "--q", "0.5", "--mode", "mc",
         "--samples", "20000", "--seed", "8"],
        capsys,
    )
    assert rc == 0
    assert "FAIL" not in out


def test_clt_trend(capsys):
    rc, out, _ = run(
        ["clt", "--group", "B8,B16", "--q", "1", "--samples", "8000", "--seed", "2"],
        capsys,
    )
    assert rc == 0
    assert "clt-distance" in out


def test_clt_group_draws_each_cell_once(monkeypatch, capsys):
    """The W1 and W2 bound checks of a clt cell read the cell's own draws."""
    real = coxmal.mallows.sample_statistic
    draws = []

    def counted(*args, **kwargs):
        draws.append(str(args[0]))
        return real(*args, **kwargs)

    for module in (coxmal.cli, coxmal.normal):
        monkeypatch.setattr(module, "sample_statistic", counted)
    rc, out, _ = run(["clt", "--group", "B30", "--q", "0.5", "--samples", "2000"], capsys)
    assert rc == 0
    assert "w1-normal-bound B30 q=0.5 [mc]" in out
    assert "w2-normal-bound B30 q=0.5 [mc]" in out
    assert draws == ["B30 q=0.5"]


def test_mode_is_a_moments_flag_only(capsys):
    for argv in (["verify", "--mode", "mc"], ["clt", "--mode", "exact"]):
        rc, _, err = run(argv, capsys)
        assert rc == 2
        assert "unrecognized arguments: --mode" in err


def test_clt_zero_variance_is_usage_error(capsys):
    rc, _, err = run(
        ["clt", "--group", "A1 x A1", "--q", "1e-9", "--samples", "100"], capsys
    )
    assert rc == 2
    assert "variance" in err.lower()


def test_clt_suite_needs_a_draw_per_w2_se_chunk(capsys):
    """The default suite's W2 standard error splits the draws into 8 chunks:
    fewer draws than that is a usage error naming the minimum, not an
    empty chunk's law."""
    rc, _, err = run(["clt", "--samples", "5"], capsys)
    assert rc == 2
    assert "error: the W2 standard error needs at least 8 samples, got 5" in err
    rc, out, _ = run(["clt", "--samples", "8"], capsys)
    assert rc == 0 and "clt-product-vs-single" in out


def test_bad_mode_and_missing_command(capsys):
    rc, _, _ = run(["sample", "--group", "B3", "--mode", "nope"], capsys)
    assert rc == 2


def test_main_no_args_returns_usage(capsys):
    assert main([]) == 2


@pytest.mark.parametrize(
    "argv", [["exact-dist", "--group", "A12"], ["verify", "--group", "B9", "--q", "0.5"]]
)
def test_group_above_the_enumeration_cap_is_usage_error(argv, capsys):
    """A group too large to enumerate is refused with a message and exit 2,
    not a traceback and the exit code of a failed check."""
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert err.startswith("error: ") and "above the cap" in err
    assert out == ""


class _ClosedPipe:
    """A standard output whose reader has gone: every write and flush
    raises BrokenPipeError.  Its file descriptor is that of path."""

    def __init__(self, path):
        self.file = open(path, "wb")

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write

    def fileno(self):
        return self.file.fileno()


@pytest.mark.parametrize(
    "argv",
    [["sample", "--group", "B3", "--seed", "2", "--samples", "10"], ["verify", "--group", "A1", "--q", "1"]],
    ids=["dump", "report"],
)
def test_closed_stdout_ends_quietly(argv, monkeypatch, tmp_path, capsys):
    """A reader that closes stdout (as `| head` does) during the dump or the
    report lines ends the command with 141 (128 + SIGPIPE) and no message,
    and stdout then points at devnull, so the flush at exit cannot fail."""
    stdout = _ClosedPipe(tmp_path / "stdout")
    monkeypatch.setattr("sys.stdout", stdout)
    rc, _, err = run(argv, capsys)
    assert (rc, err) == (141, "")
    with stdout.file:
        stdout.file.write(b"after the reader left")
    assert (tmp_path / "stdout").read_bytes() == b""
