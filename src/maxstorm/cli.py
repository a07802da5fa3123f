"""Command-line surface: simulate, dependence, fit, mc-study.

All output files are plain CSV or JSON with full-precision floats; a fixed
seed makes every command reproduce its outputs byte for byte (a fit's wall
time is printed to the console only, never written to ``fit.json``).  Exit
codes: 0 success, 2 invalid configuration or arguments, 3 file format or I/O
trouble, 4 numerical or resource failure.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path

from .config import (
    build_dependence_config,
    build_fit_config,
    build_simulate_config,
    build_study_config,
    load_config,
)
from .dependence import (
    empirical_madogram,
    extremal_coefficient,
    madogram_to_theta,
    theta_to_madogram,
)
from .errors import (
    FieldFormatError,
    NumericalError,
    ResourceError,
    ValidationError,
)
from .fieldio import read_field, write_field, write_meta
from .inference import FitReport, ThetaVector, fit_scheme1, fit_scheme2
from .point_process import SeededStream
from .spacetime import simulate_markov_planar, simulate_markov_sphere
from .study import ReplicateRecord, StudySummaryRow, run_study

__all__ = ["main"]

logger = logging.getLogger(__name__)


def _cell(x) -> str:
    """A CSV cell: floats at full precision, everything else as ``str``."""
    return repr(float(x)) if isinstance(x, float) else str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


# replicates.csv: the estimate's parameters, then the rest of its report.
_THETA_COLUMNS = [f.name for f in fields(ThetaVector)]
_REPORT_COLUMNS = [f.name for f in fields(FitReport) if f.name not in ("theta_hat", "scheme")]


def _replicate_row(rec: ReplicateRecord) -> list:
    if rec.report is None:
        cells = [""] * (len(_THETA_COLUMNS) + len(_REPORT_COLUMNS))
        return [rec.index, rec.scheme, *cells, rec.error or "failed"]
    cells = [getattr(rec.report.theta_hat, n) for n in _THETA_COLUMNS]
    cells += [getattr(rec.report, n) for n in _REPORT_COLUMNS]
    return [rec.index, rec.scheme, *cells, ""]


def cmd_simulate(args: argparse.Namespace) -> int:
    sim = build_simulate_config(load_config(args.config))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stream = SeededStream(sim.seed)
    if sim.kind == "vmf":
        field = simulate_markov_sphere(
            sim.sites, sim.n_dates, sim.spatial, sim.markov, stream
        )
    else:
        field = simulate_markov_planar(
            sim.sites, sim.n_dates, sim.spatial, sim.markov, stream,
            n_storms=sim.n_storms,
        )
    field_path = write_field(field, out_dir / "field.csv")
    meta_path = write_meta(
        out_dir / "field_meta.json",
        {
            "command": "simulate",
            "config": sim.echo(),
            "diagnostics": field.meta,
        },
    )
    print(f"wrote {field_path} and {meta_path}")
    return 0


def cmd_dependence(args: argparse.Namespace) -> int:
    dep = build_dependence_config(load_config(args.config))
    field = None
    if args.field is not None:
        field = read_field(args.field)
        if field.sites.kind != "planar":
            raise ValidationError("empirical dependence needs a planar field file")
    rows = []
    for lag in dep.lags:
        theta = extremal_coefficient(lag, dep.smith, dep.markov)
        nu = theta_to_madogram(theta)
        emp_theta = emp_nu = n_pairs = ""
        if field is not None:
            try:
                est = empirical_madogram(field, lag, bin_radius=dep.bin_radius)
                emp_nu = est.nu_hat
                emp_theta = madogram_to_theta(est.nu_hat)
                n_pairs = est.n_pairs
            except ValidationError as exc:
                logger.warning(
                    "lag (%d, %s): no pairs in the field file: %s",
                    lag.time_lag, list(lag.space_lag), exc,
                )
        rows.append((lag.time_lag, *lag.space_lag, theta, nu, emp_theta, emp_nu, n_pairs))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    header = "l,h1,h2,theta_analytic,nu_analytic,theta_empirical,nu_empirical,n_pairs"
    _write_csv(out, header.split(","), rows)
    print(f"wrote {out}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    fc = build_fit_config(load_config(args.config), args.scheme)
    field = read_field(args.field)
    if field.sites.kind != "planar":
        raise ValidationError("fitting supports planar fields only")
    fit = fit_scheme1 if fc.scheme == 1 else fit_scheme2
    start = time.perf_counter()
    report = fit(field, fc.init, fc.options)
    wall = time.perf_counter() - start
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_meta(out, asdict(report))
    note = "" if report.converged else " (not converged; best iterate reported)"
    print(f"wrote {out}: loglik {report.loglik:.6f} in {wall:.1f}s{note}")
    return 0


def cmd_mc_study(args: argparse.Namespace) -> int:
    sc = build_study_config(load_config(args.config), args.replicates)
    result = run_study(sc)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rep_path = out_dir / "replicates.csv"
    header = ["replicate", "scheme", *_THETA_COLUMNS, *_REPORT_COLUMNS, "error"]
    _write_csv(rep_path, header, map(_replicate_row, result.records))
    sum_path = out_dir / "summary.csv"
    _write_csv(sum_path, [f.name for f in fields(StudySummaryRow)], map(astuple, result.summary))
    write_meta(
        out_dir / "study_meta.json",
        {"command": "mc-study", "config": sc.echo()},
    )

    print(f"wrote {rep_path} and {sum_path}")
    for row in result.summary:
        print(
            f"scheme {row.scheme} {row.parameter}: true {row.true:g}, "
            f"mean {row.mean_estimate:.4f}, bias {row.mean_bias:+.4f}, "
            f"stdev {row.stdev:.4f} ({row.n_used} used, {row.n_excluded} excluded)"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxstorm",
        description=(
            "Simulate Markovian space-time max-stable fields, evaluate their "
            "dependence measures, and fit parameters by pairwise likelihood."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a field and write CSV + metadata")
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dependence", help="extremal coefficient and madogram table")
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--field", help="optional field CSV for empirical columns")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_dependence)

    p = sub.add_parser("fit", help="fit parameters to a field file")
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--field", required=True, help="field CSV to fit")
    p.add_argument("--scheme", type=int, choices=(1, 2), help="estimation scheme")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("mc-study", help="Monte Carlo estimation study")
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--replicates", type=int, help="override replicate count")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_mc_study)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FieldFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
