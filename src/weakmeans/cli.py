"""Command-line surface: aggregate, check, table, filter.

Exit codes: 0 success / no violation found, 1 property violated (witness
printed), 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import pgm, tonal
from .properties import CHECKS, TABLE_SAMPLES, SamplerConfig, lehmer_bound_table, named_aggregator


def _numbers(tokens: list[str], what: str) -> np.ndarray:
    """The tokens as floats; a token that is not a number is a usage error
    naming what was read and the token."""
    try:
        return np.array(tokens, dtype=float)
    except ValueError as exc:  # "could not convert string to float: 'x'"
        raise ValueError(f"bad {what}: {exc}") from None


def _parse_weights(spec: str | None) -> np.ndarray | None:
    if not spec:
        return None
    return _numbers(spec.split(","), f"weight list {spec!r}")


def _read_values(args) -> np.ndarray:
    if args.file:
        text = Path(args.file).read_text().split()
        values = _numbers(text, f"value in --file {args.file}")
    else:
        values = _numbers(args.values, "input value")
    if not values.size:
        raise ValueError("no input values given (inline or --file)")
    return values


def _given(args, config) -> dict:
    """The options given on the command line for fields of the dataclass
    `config`; a field whose option was left out keeps its default there."""
    return {f.name: v for f in fields(config) if (v := getattr(args, f.name, None)) is not None}


def cmd_aggregate(args) -> int:
    agg = named_aggregator(args.name, q=args.q, p=args.p, weights=_parse_weights(args.weights))
    x = _read_values(args)
    print(f"{agg(x):.12g}")
    return 0


def cmd_check(args) -> int:
    agg = named_aggregator(args.name, q=args.q, p=args.p, weights=_parse_weights(args.weights))
    report = CHECKS[args.property](agg, n=args.n, cfg=SamplerConfig(**_given(args, SamplerConfig)))
    print(report.to_json() if args.format == "machine" else report.to_text())
    return 1 if report.violated else 0


def cmd_table(args) -> int:
    q_values = _numbers(args.q_list.split(","), f"--q-list {args.q_list!r}")
    cfg = SamplerConfig(**{"samples": TABLE_SAMPLES, **_given(args, SamplerConfig)})
    rows = lehmer_bound_table(q_values, args.n_max, cfg)
    header = f"{'q':>8} {'n':>4} {'bound':>10}  {'theory':<36} {'empirical':<20}"
    print(header)
    print("-" * len(header))
    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.4g}"
        print(
            f"{row['q']:>8.3g} {row['n']:>4d} {bound:>10}  "
            f"{row['theory']:<36} {row['empirical']:<20}"
        )
    return 0


def cmd_filter(args) -> int:
    data = Path(args.infile).read_bytes()
    img = pgm.read_pgm(data)
    cfg = tonal.FilterConfig(mode_quantize=1.0 / img.maxval, **_given(args, tonal.FilterConfig))
    out = tonal.filter_image(img, cfg)
    Path(args.outfile).write_bytes(pgm.write_pgm(out))
    print(
        f"filtered {img.width}x{img.height} (maxval {img.maxval}): "
        f"radius={cfg.radius} spatial_sigma={cfg.spatial_sigma:g} "
        f"tonal={cfg.tonal_kernel}({cfg.tonal_sigma:g}) estimator={cfg.estimator} "
        f"dissimilarity={cfg.dissimilarity} boundary={cfg.boundary}"
    )
    return 0


def _add_mean_params(p: argparse.ArgumentParser):
    p.add_argument("--q", type=float, default=None, help="Lehmer/Gini exponent")
    p.add_argument("--p", type=float, default=None, help="power/Gini exponent")
    p.add_argument("--weights", default=None, help="comma-separated weights")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every `main`
    call: `parse_args` returns a fresh namespace each time, and `main` never
    changes the parser, so no state carries over from one call to the next.
    Its `commands` default maps each command to the command's own parser."""
    parser = argparse.ArgumentParser(
        prog="weakmeans",
        description="Weakly monotone averaging functions and their verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(commands=sub.choices)

    p = sub.add_parser("aggregate", help="evaluate a mean on values")
    p.add_argument("name")
    _add_mean_params(p)
    p.add_argument("--file", default=None, help="file with one value per line")
    p.add_argument("values", nargs="*", help="input values (after --)")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("check", help="falsify or fail to falsify a property")
    p.add_argument("property", choices=sorted(CHECKS))
    p.add_argument("name")
    _add_mean_params(p)
    p.add_argument("--n", type=int, default=None, help="argument count")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--shift-max", type=float)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("table", help="Lehmer weak-monotonicity bound table")
    p.add_argument("--q-list", default="1,2,3")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("filter", help="spatial-tonal filter a PGM image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--radius", type=int)
    p.add_argument("--spatial-sigma", type=float)
    p.add_argument("--tonal-kernel", choices=tonal.TONAL_KERNELS)
    p.add_argument("--tonal-sigma", type=float)
    p.add_argument("--estimator", choices=tonal.ESTIMATORS)
    p.add_argument("--dissimilarity", choices=tonal.DISSIMILARITIES)
    p.add_argument("--huber-delta", type=float)
    p.add_argument("--boundary", choices=tonal.BOUNDARIES)
    p.set_defaults(func=cmd_filter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # Subparsers do not forward a bare "--" separator, so split inline values
    # (which may be negative and look like options) off before parsing.
    trailing: list[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, trailing = argv[:split], argv[split + 1 :]
    # argparse reads only tokens shaped like -5 or -.5 as negative numbers, so
    # in "--q -inf" or "--p -1e5" the flag would lose its value.  An exponent
    # flag takes exactly the next token, so join the two as "--q=-inf".
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in ("--q", "--p"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    # A known command goes straight to its own parser, which reads each token
    # once; the top-level parser serves help, errors and leftover tokens,
    # with its own usage line in the message.
    commands = parser.get_default("commands")
    try:
        if joined and joined[0] in commands:
            args, extra = commands[joined[0]].parse_known_args(joined[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        else:
            args = parser.parse_args(joined)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if trailing:
        if not hasattr(args, "values"):
            print("error: inline values are only accepted by 'aggregate'", file=sys.stderr)
            return 2
        args.values = list(args.values) + trailing
    try:
        return args.func(args)
    except (ValueError, OSError, pgm.PgmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
