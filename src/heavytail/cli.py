"""Command-line interface: one executable, one subcommand per operation.

Outputs are CSV (comma separator, '.' decimal, LF line endings, header row)
written to --out or stdout; the contour commands additionally emit a native
SVG. Every run with a fixed (seed, workers) pair produces byte-identical
output files. Exit codes: 0 success, 2 configuration/usage error,
3 numerical-status failure (e.g. a demanded root does not exist).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import warnings

import numpy as np

from . import empirics, mc, recursion, spectral, svgfig, tailsolver, transferop
from .linalg import row_norms
from .models import (ConfigurationError, GoeLaw, MixtureLaw, ModelSpec, Variant,
                     load_law_file)
from .recursion import StopRule
from .tailsolver import SolveStatus

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

INLINE_MODELS = ("rank1gauss", "rank1", "symm-goe", "symm-det-identity")

# The most points a start:step:stop grid may have. The largest default grid
# has 41 points (--s-grid 0:0.25:10).
MAX_GRID_POINTS = 10_000


def _write_csv(path: str | None, header: list[str], rows) -> None:
    """Write the header and rows, each of len(header) fields, as CSV lines.

    Fields are numbers and fixed labels, so none needs quoting: each is
    written as ``str`` writes it (a float in its shortest round-trip form),
    the bytes ``csv.writer`` gives for them.
    """
    fmt = ",".join(["{}"] * len(header)) + "\n"

    def dump(fh):
        fh.write(fmt.format(*header))
        fh.writelines(itertools.starmap(fmt.format, rows))

    if path is None:
        dump(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            dump(fh)


def _parse_grid(text: str, flag: str = "grid") -> list[float]:
    """'start:step:stop' (inclusive stop) or a non-empty comma list of finite
    values; ``flag`` names the grid in the error for an empty one."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"grid {text!r} is not start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if not 0 < step < math.inf or not 0 <= (stop - start) / step < math.inf:
            raise ConfigurationError(f"bad grid bounds in {text!r}")
        count = int(round((stop - start) / step))
        if count >= MAX_GRID_POINTS:
            raise ConfigurationError(
                f"grid {text!r} has {count + 1:.3g} points, more than {MAX_GRID_POINTS}")
        return [start + k * step for k in range(count + 1)]
    values = [float(p) for p in text.replace(",", " ").split()]
    if not all(map(math.isfinite, values)):
        raise ConfigurationError(f"grid {text!r} has a non-finite value")
    if not values:
        raise ConfigurationError(f"{flag} is empty; a grid needs at least one value")
    return values


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    """argparse type for a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _unit_interval_float(text: str) -> float:
    """argparse type for a finite value strictly between 0 and 1."""
    value = _finite_float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value:g}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for a finite value > 0."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value:g}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type for a finite value >= 0."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value:g}")
    return value


def _build_spec(args) -> ModelSpec:
    overrides = {"d": args.d, "b": args.b, "eta": args.eta}
    if getattr(args, "law_file", None):
        return load_law_file(args.law_file, overrides)
    model = args.model
    if model is None:
        raise ConfigurationError("need --model or --law-file")
    d = args.d if args.d is not None else 1
    b = args.b if args.b is not None else 1
    if args.eta is None:
        raise ConfigurationError("--eta is required")
    eta = args.eta
    if model in ("rank1", "rank1gauss"):
        # rank1gauss is rank1 with its default (Gaussian) laws
        return ModelSpec(Variant.RANK1, d=d, b=b, eta=eta)
    if model == "symm-goe":
        return ModelSpec(Variant.SYMM, d=d, b=b, eta=eta, h_law=GoeLaw(d))
    if model == "symm-det-identity":
        return ModelSpec(Variant.SYMM, d=d, b=b, eta=eta, h_law=MixtureLaw((np.eye(d),)))
    raise ConfigurationError(f"unknown model {model!r}")


def _add_common(p: argparse.ArgumentParser, samples_default: int = 100_000) -> None:
    p.add_argument("--samples", type=_positive_int, default=samples_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, help="worker count (default 1)")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("--dump-config", metavar="PATH",
                   help="write the effective flags as a run-config file")


def _add_command(sub, name: str, handler, samples_default: int = 100_000,
                 **kwargs) -> argparse.ArgumentParser:
    """A subcommand run as ``handler(args, spec)`` on the model its flags
    name, with the common flags."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(handler=handler)
    p.add_argument("--model", choices=INLINE_MODELS, help="built-in model family")
    p.add_argument("--law-file", help="law file defining the model (overrides --model)")
    p.add_argument("--d", type=int, help="dimension (default 1)")
    p.add_argument("--b", type=int, help="batch size (default 1)")
    p.add_argument("--eta", type=float, help="step size")
    _add_common(p, samples_default)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavytail", allow_abbrev=False,
        description="Simulation and heavy-tail diagnostics for affine stochastic "
                    "recursions of SGD type (A = I - xi*H).")
    parser.add_argument("--config", help="run-config file: a subcommand, then one "
                        "--flag=value per line (flags override)")
    sub = parser.add_subparsers(dest="subcommand", required=False)

    p = _add_command(sub, "simulate", _cmd_simulate, 1000,
                     help="draw truncated stationary samples R")
    p.add_argument("--n", type=_positive_int,
                   help="run exactly n steps instead of the stop rule")
    p.add_argument("--tol-prod", type=_non_negative_float, default=1e-12)
    p.add_argument("--n-max", type=_positive_int, default=100_000)

    p = _add_command(sub, "kcurve", _cmd_kcurve, help="k(s) over an s-grid")
    p.add_argument("--s-grid", default="0:0.25:10")
    p.add_argument("--method", choices=["closed", "product"], default="closed")
    p.add_argument("--n", type=_positive_int, default=40,
                   help="product length (product method)")

    p = _add_command(sub, "lyapunov", _cmd_lyapunov, help="top Lyapunov exponent")
    p.add_argument("--method", choices=["closed", "subadditive"], default="closed")
    p.add_argument("--n", type=_positive_int, default=200)

    p = _add_command(sub, "alpha", _cmd_alpha, 200_000,
                     help="tail index: root of h(xi, s) = 1 in s")
    p.add_argument("--s-max", type=_positive_float, default=spectral.S_MAX_DEFAULT)

    p = _add_command(sub, "alphacurve", _cmd_alphacurve, 200_000,
                     help="alpha(xi) over a xi-grid, with xi_1")
    p.add_argument("--xi-grid", required=True)

    p = _add_command(sub, "contour", _cmd_contour,
                     help="h over a (param, s) grid + h=1 isoline")
    p.add_argument("--param", choices=["b", "eta"], default="b")
    p.add_argument("--param-grid", required=True)
    p.add_argument("--s-grid", default="0.25:0.25:10")
    p.add_argument("--clip", type=_positive_float, default=2.0)
    p.add_argument("--svg", help="also write the heat-grid + isoline as SVG")

    p = _add_command(sub, "operator", _cmd_operator, 10_000,
                     help="discretized transfer operator (d=2)")
    p.add_argument("--s", type=_non_negative_float, default=1.0)
    p.add_argument("--bins", type=_positive_int, default=256)

    p = _add_command(sub, "tailfit", _cmd_tailfit,
                     help="Hill tail-index fit on simulated |R|")
    p.add_argument("--k-fracs", default="0.005,0.01,0.02",
                   help="stability-scan fractions of the sample used as tail")

    p = _add_command(sub, "angular", _cmd_angular,
                     help="uniformity tests on exceedance angles (d=2)")
    p.add_argument("--threshold-quantile", type=_unit_interval_float, default=0.99)
    p.add_argument("--level", type=_unit_interval_float, default=0.01)

    p = _add_command(sub, "integrability", _cmd_integrability,
                     help="negative-moment truncated-mean ladder")
    p.add_argument("--target", choices=[t.value for t in empirics.IntegrabilityTarget],
                   default="det_a")
    p.add_argument("--delta", type=_non_negative_float, default=0.25)
    p.add_argument("--caps", default="10,100,1000,10000")

    p = _add_command(sub, "gausscheck", _cmd_gausscheck,
                     help="Gaussian-model density diagnostics")
    p.add_argument("--check", choices=["chi2", "stam", "both"], default="both")

    p = _add_command(
        sub, "moments", _cmd_moments, help="E|R_n|^alpha over an n-grid (shared paths)",
        description="E|R_n|^alpha over an n-grid, nested over shared paths. For a "
                    "finite-support H law (deterministic or mixture) the estimate is "
                    "importance-sampled from a defensive mixture of alpha-tilts, with "
                    "bounded weights and an honest stderr. Other laws get plain Monte "
                    "Carlo and a warning: continuous H, and non-scalar atoms whose "
                    "b-fold sum support has more than 4(b + d) points. Its stderr is "
                    "a sample stderr and can understate the error by many sigma when "
                    "alpha is near the tail index.")
    p.add_argument("--alpha", type=_positive_float, required=True)
    p.add_argument("--n-grid", default="50,100,200,400,800")

    p = _add_command(sub, "tailbound", _cmd_tailbound,
                     help="finite-iteration exceedance curve + slope")
    p.add_argument("--alpha", type=_positive_float, required=True)
    p.add_argument("--epsilon", type=_non_negative_float, default=0.5)
    p.add_argument("--n", type=_positive_int, default=20)
    p.add_argument("--t-grid", help="explicit t values (default: data quantiles)")

    # The paper's figures are contour runs of rank1gauss at d = 2, eta = 0.75
    # with these presets; of contour's flags they take only the common ones
    # and --svg.
    for fig, help_text, b, param, param_grid in (
            (1, "h(b, s) contour grid, d=2, eta=0.75, b=1..12", 1, "b", "1:1:12"),
            (2, "h(eta, s) contour grid, d=2, b=5", 5, "eta", "0.05:0.05:1.5")):
        p = sub.add_parser(f"reproduce-fig{fig}", help=help_text)
        _add_common(p)
        p.add_argument("--svg", default=f"fig{fig}.svg")
        p.set_defaults(handler=_cmd_contour, model="rank1gauss", d=2, b=b, eta=0.75,
                       param=param, param_grid=param_grid, s_grid="0.25:0.25:10",
                       clip=2.0, out=f"fig{fig}.csv")

    return parser


def _subparser(parser: argparse.ArgumentParser, name: str):
    """The subparser of subcommand ``name``, or None."""
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices.get(name)


def _apply_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """argv with the ``--config`` file read in. The file is a run's argv, one
    token per non-empty line: the subcommand, then ``--flag=value`` lines. Its
    flags go in right after the subcommand (the file's, unless argv names one),
    so argparse reads them exactly as the flags they name, and the explicit
    flags, which come later, override them."""
    probe = argparse.ArgumentParser(prog="heavytail", add_help=False, allow_abbrev=False)
    probe.add_argument("--config")
    known, argv = probe.parse_known_args(argv)
    if known.config is None:
        return argv
    with open(known.config, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    first = lines[0] if lines else ""
    if _subparser(parser, first) is None:
        parser.error(f"argument --config: {known.config} starts with {first!r}, "
                     "not a subcommand")
    if not argv or argv[0].startswith("-"):
        argv = [first] + argv
    return argv[:1] + lines[1:] + argv[1:]


def run_config_from_args(args: argparse.Namespace, subparser) -> str:
    """The run-config text that replays ``args``: the subcommand, then one
    ``--flag=value`` line for each of the subcommand's own flags that has a
    value, sorted by flag. A preset that is not a flag, such as a figure's
    model, is left out, since the subcommand sets it again. A value holding a
    line break cannot be a line, so it is a ConfigurationError."""
    dests = {a.dest for a in subparser._actions} - {"help", "dump_config"}
    lines = [args.subcommand] + [f"--{k.replace('_', '-')}={v}" for k, v in
                                 sorted(vars(args).items()) if k in dests and v is not None]
    for line in lines:
        if line.splitlines() != [line]:
            raise ConfigurationError(f"{line!r} has a line break; a run config cannot hold it")
    return "".join(f"{line}\n" for line in lines)


# ---------------------------------------------------------------------------
# Subcommand implementations


_UNUSABLE = (recursion.StopStatus.DIVERGED.value,
             recursion.StopStatus.NON_CONTRACTION.value)


def _unusable_counts(batch: recursion.StationaryBatch) -> dict[str, int]:
    """Paths per unusable stop status: diverged, then non_contraction."""
    return {s: int((batch.status == s).sum()) for s in _UNUSABLE}


def _cmd_simulate(args, spec: ModelSpec) -> int:
    if args.n is not None:
        stop = StopRule(tol_prod=0.0, n_max=args.n)
    else:
        stop = StopRule(tol_prod=args.tol_prod, n_max=args.n_max)
    batch = recursion.sample_r_parallel(spec, args.samples, args.seed, stop,
                                        args.workers)
    header = (["sample_id", "n"] + [f"r_{i+1}" for i in range(spec.d)]
              + ["abs_r", "log_norm_pi"])
    rows = zip(range(args.samples), batch.n_steps.tolist(), *batch.r.T.tolist(),
               batch.abs_r.tolist(), batch.log_pi_final.tolist())
    _write_csv(args.out, header, rows)
    n_div, n_nc = _unusable_counts(batch).values()
    if n_div:
        print(f"warning: {n_div}/{args.samples} trajectories diverged "
              "(non-finite product or sum)", file=sys.stderr)
    if n_nc:
        print(f"warning: {n_nc}/{args.samples} trajectories did not contract "
              "below 1 (Lyapunov exponent may be nonnegative)", file=sys.stderr)
    return EXIT_OK


def _cmd_kcurve(args, spec: ModelSpec) -> int:
    """k(s) on one frozen sample; s above s_max is not evaluated (NaN rows
    with n_used 0), since the Monte-Carlo variance is uncontrolled there."""
    s_grid = _parse_grid(args.s_grid, "--s-grid")
    s_max = spectral.S_MAX_DEFAULT
    capped = [s for s in s_grid if s > s_max]
    if capped:
        warnings.warn(f"s values {capped} exceed s_max={s_max} and are not "
                      "evaluated (Monte-Carlo variance is uncontrolled there)",
                      RuntimeWarning)
    header = ["s", "estimate", "stderr", "method", "n_used"]
    if args.method == "closed":
        sample = spectral.FirstColumnSample(spec, args.samples, args.seed, args.workers)
        method, k, ratio = "closed_form", sample.h, None
    else:
        sample = spectral.ProductSample(spec, args.n, args.samples, args.seed,
                                        args.workers)
        method, k, ratio = "product_limit", sample.k, sample.ratio
        header += ["ratio", "ratio_stderr"]
    not_evaluated = mc.McEstimate(math.nan, math.nan, 0)
    rows = []
    for s in s_grid:
        est = not_evaluated if s > s_max else k(s)
        row = [s, est.mean, est.stderr, method, est.n]
        if ratio is not None:
            est = not_evaluated if s > s_max else ratio(s)
            row += [est.mean, est.stderr]
        rows.append(row)
    _write_csv(args.out, header, rows)
    return EXIT_OK


def _cmd_lyapunov(args, spec: ModelSpec) -> int:
    if args.method == "closed":
        method = "closed_form"
        sample = spectral.FirstColumnSample(spec, args.samples, args.seed, args.workers)
    else:
        method = "subadditive_mc"
        sample = spectral.ProductSample(spec, args.n, args.samples, args.seed,
                                        args.workers)
    est = sample.gamma()
    print(f"gamma = {est.mean:.6g} +- {est.stderr:.2g} ({method})")
    _write_csv(args.out, ["gamma", "stderr", "method", "n_used", "skipped"],
               [[est.mean, est.stderr, method, est.n, est.skipped]])
    return EXIT_OK


def _cmd_alpha(args, spec: ModelSpec) -> int:
    cols = spectral.FirstColumnSample(spec, args.samples, args.seed, args.workers)
    solve = tailsolver.solve_alpha(cols, s_max=args.s_max)
    print(f"alpha = {solve.alpha:.6g} +- {solve.stderr_alpha:.2g} "
          f"(xi = {solve.xi:.6g}, status = {solve.status.value})")
    if solve.status is SolveStatus.FAILED:
        print(f"error: the root of h(xi, s) = 1 in s did not converge on "
              f"[{solve.bracket[0]:.6g}, {solve.bracket[1]:.6g}]", file=sys.stderr)
    _write_csv(args.out,
               ["xi", "alpha", "residual", "bracket_lo", "bracket_hi",
                "stderr_alpha", "status", "gamma", "gamma_stderr"],
               [[solve.xi, solve.alpha, solve.residual, solve.bracket[0],
                 solve.bracket[1], solve.stderr_alpha, solve.status.value,
                 solve.gamma, solve.gamma_stderr]])
    return EXIT_OK if solve.status is SolveStatus.CONVERGED else EXIT_NUMERICAL


def _cmd_alphacurve(args, spec: ModelSpec) -> int:
    xi_grid = _parse_grid(args.xi_grid, "--xi-grid")
    try:
        curve = tailsolver.alpha_curve(spec, xi_grid, samples=args.samples,
                                       seed=args.seed, workers=args.workers)
    except tailsolver.RangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    rows = [[s.xi, s.alpha, s.stderr_alpha, s.residual, s.status.value]
            for s in curve.solves]
    _write_csv(args.out, ["xi", "alpha", "stderr_alpha", "residual", "status"], rows)
    decreasing = all(ok for _, _, ok in curve.monotonicity_report)
    print(f"xi1 = {curve.xi1:.6g}; strictly decreasing beyond uncertainty: "
          f"{decreasing}")
    return EXIT_OK


def _cmd_contour(args, spec: ModelSpec) -> int:
    param = args.param
    grid = tailsolver.contour_grid(
        spec, param, _parse_grid(args.param_grid, "--param-grid"),
        _parse_grid(args.s_grid, "--s-grid"), samples=args.samples, seed=args.seed,
        workers=args.workers)
    clipped = np.minimum(grid.h, args.clip)  # for display
    rows = []
    for i, p in enumerate(grid.param_grid):
        for j, s in enumerate(grid.s_grid):
            rows.append([p, s, grid.h[i, j], clipped[i, j]])
    _write_csv(args.out, [param, "s", "h", "h_clipped"], rows)
    if args.svg:
        svg = svgfig.render_heatmap_svg(
            grid.param_grid, grid.s_grid, clipped, grid.isoline,
            param_label=param, s_label="s",
            title=f"h({param}, s), clipped at {args.clip:g}; black: h = 1")
        with open(args.svg, "w", encoding="utf-8", newline="") as fh:
            fh.write(svg)
    return EXIT_OK


def _cmd_operator(args, spec: ModelSpec) -> int:
    built = transferop.build_operator(spec, args.s, args.bins, args.samples,
                                      seed=args.seed, workers=args.workers)
    spectrum = transferop.power_iterate(built)
    print(f"leading eigenvalue = {spectrum.leading_eigenvalue:.6g} "
          f"(s = {args.s:g}, bins = {args.bins})")
    centers = transferop.bin_centers(args.bins)
    rows = [[centers[i], spectrum.eigenfunction[i], spectrum.eigenmeasure[i]]
            for i in range(args.bins)]
    _write_csv(args.out, ["bin_angle", "eigenfunction", "eigenmeasure"], rows)
    return EXIT_OK


def _stationary_r(spec: ModelSpec, args) -> np.ndarray:
    """The stationary draws R of the paths that stopped at tol_prod or n_max.
    Diverged and non-contracting paths are dropped, with their counts on
    stderr; if none is left, the run fails with exit code 3."""
    batch = recursion.sample_r_parallel(spec, args.samples, args.seed,
                                        workers=args.workers)
    counts = _unusable_counts(batch)
    if not any(counts.values()):
        return batch.r
    dropped = np.isin(batch.status, _UNUSABLE)
    summary = ", ".join(f"{c} {s}" for s, c in counts.items())
    print(f"warning: dropped {dropped.sum()}/{args.samples} paths ({summary})",
          file=sys.stderr)
    if dropped.all():
        raise empirics.EstimationError("no path stopped at tol_prod or n_max")
    return batch.r[~dropped]


def _cmd_tailfit(args, spec: ModelSpec) -> int:
    fracs = _parse_grid(args.k_fracs, "--k-fracs")
    fits = empirics.hill_stability_scan(row_norms(_stationary_r(spec, args)), fracs)
    rows = [[f, fit.k_order, fit.alpha_hat, fit.ci[0], fit.ci[1], fit.amplitude]
            for f, fit in zip(fracs, fits)]
    _write_csv(args.out,
               ["k_frac", "k_order", "alpha_hat", "ci_lo", "ci_hi", "amplitude"],
               rows)
    # the fit whose fraction is nearest 1% (the first of equals) is printed
    mid = fits[min(range(len(fracs)), key=lambda i: abs(fracs[i] - 0.01))]
    print(f"alpha_hat = {mid.alpha_hat:.4g} "
          f"(k = {mid.k_order}, 95% CI [{mid.ci[0]:.4g}, {mid.ci[1]:.4g}])")
    return EXIT_OK


def _cmd_angular(args, spec: ModelSpec) -> int:
    if spec.d != 2:
        raise ConfigurationError("the angular test is specialized to d = 2")
    rep = empirics.angular_exceedance_test(_stationary_r(spec, args),
                                           args.threshold_quantile, level=args.level)
    _write_csv(args.out,
               ["n_exceedances", "threshold", "ks_statistic", "ks_pvalue",
                "resultant_statistic", "resultant_pvalue", "level", "inconclusive"],
               [[rep.n_exceedances, rep.threshold, rep.ks_statistic, rep.ks_pvalue,
                 rep.resultant_statistic, rep.resultant_pvalue, rep.level,
                 rep.inconclusive]])
    verdict = ("INCONCLUSIVE" if rep.inconclusive
               else "PASS" if rep.passed else "FAIL")
    print(f"angular uniformity: {verdict} (KS p = {rep.ks_pvalue:.3g}, "
          f"resultant p = {rep.resultant_pvalue:.3g}, "
          f"{rep.n_exceedances} exceedances)")
    return EXIT_OK


def _cmd_integrability(args, spec: ModelSpec) -> int:
    rep = empirics.integrability_probe(spec, args.target, args.delta, args.samples,
                                       cap_grid=_parse_grid(args.caps, "--caps"),
                                       seed=args.seed, workers=args.workers)
    rows = [[cap, mean] for cap, mean in zip(rep.cap_grid, rep.truncated_means)]
    _write_csv(args.out, ["cap", "truncated_mean"], rows)
    print(f"{rep.target.value} ladder (delta = {rep.delta:g}): "
          f"stabilized = {rep.stabilized}, final = {rep.final_value:.6g} "
          f"+- {rep.stderr_at_max_cap:.2g}")
    return EXIT_OK


def _cmd_gausscheck(args, spec: ModelSpec) -> int:
    rows = []
    summary = []
    if args.check in ("chi2", "both"):
        rep = empirics.chi2_diagonal_check(spec, args.samples, seed=args.seed,
                                           workers=args.workers)
        for ell in range(spec.d):
            rows.append(["chi2_diagonal", f"H_{ell+1}{ell+1}", rep.ks_pvalues[ell],
                         rep.means[ell], rep.variances[ell]])
        summary.append(f"chi2 diagonals: min KS p = {min(rep.ks_pvalues):.3g}")
    if args.check in ("stam", "both"):
        rep = empirics.stam_p2_check(spec.b, args.samples, seed=(args.seed, 1),
                                     workers=args.workers)
        rows.append(["inner_product_gof", f"b={spec.b}", rep.chi2_pvalue,
                     rep.mean, rep.variance])
        summary.append(f"inner-product GOF p = {rep.chi2_pvalue:.3g} "
                       f"(var {rep.variance:.4g} vs {rep.expected_variance:.4g})")
    _write_csv(args.out, ["check", "component", "pvalue", "mean", "variance"], rows)
    print("; ".join(summary))
    return EXIT_OK


def _cmd_moments(args, spec: ModelSpec) -> int:
    n_grid = _parse_grid(args.n_grid, "--n-grid")
    if any(n != int(n) for n in n_grid):
        raise ConfigurationError(f"--n-grid {args.n_grid!r} has a non-integer value")
    n_grid = [int(n) for n in n_grid]
    curve = recursion.moment_growth_curve(spec, args.alpha, n_grid,
                                          args.samples, args.seed, args.workers)
    rows = [[n, est.mean, est.stderr, est.n] for n, est in curve]
    _write_csv(args.out, ["n", "estimate", "stderr", "samples_used"], rows)
    return EXIT_OK


def _cmd_tailbound(args, spec: ModelSpec) -> int:
    if args.t_grid is not None:
        t_grid = _parse_grid(args.t_grid, "--t-grid")
    else:
        # pilot pass to place the grid over the largest usable decade, whose
        # top is the 50th largest pilot value
        if args.samples < 50:
            raise ConfigurationError("without --t-grid, --samples must be >= 50")
        pilot = mc.parallel_map(
            lambda rng, m: recursion.partial_sum_norms(spec, [args.n], m, rng)[:, 0],
            min(args.samples, 100_000), (args.seed, 1), args.workers)
        t_hi = float(np.quantile(pilot, 1 - 50 / len(pilot)))
        t_grid = list(np.geomspace(t_hi / 10, t_hi, 12))
    rep = recursion.finite_iteration_tail(spec, args.n, t_grid, args.samples,
                                          args.seed, args.workers)
    rows = [[t, p, c] for t, p, c in zip(rep.t_grid, rep.exceedance, rep.counts)]
    _write_csv(args.out, ["t", "exceedance", "count"], rows)
    print(f"top-decade log-log slope = {rep.slope:.4g} "
          f"(bound exponent {-(args.alpha + args.epsilon):g}; "
          f"widened_uncertainty = {rep.widened_uncertainty})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv, parser)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    args = parser.parse_args(argv)
    # argparse reads a flag given as "--flag=--" as an empty list
    for dest, value in vars(args).items():
        if value == []:
            parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        dump = args.dump_config and run_config_from_args(
            args, _subparser(parser, args.subcommand))
        try:
            code = args.handler(args, _build_spec(args))
        except (empirics.EstimationError, transferop.PowerIterationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_NUMERICAL
        # written only once the run has not failed with exit 2, so such a
        # run leaves an existing file (even its own --config) as it was
        if dump:
            with open(args.dump_config, "w", encoding="utf-8") as fh:
                fh.write(dump)
        return code
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
