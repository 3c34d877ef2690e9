"""Command line entry point.

Subcommands: synth, train, evaluate, match, export-structure.  Outputs land
in a run directory; every failure exits nonzero with a single
machine-parseable "error: ..." line on stderr.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple, fields

from .config import RunConfig, load_config, save_config
from .errors import ConfigurationError, write_rows
from .harness import (ARMS, DescriptorBank, check_images, generate_synthetic, load_manifest,
                      make_splits, run_ablations, train_on_split)
from .imaging import extract_descriptors, load_image, scale_to_canonical
from .learning import IterationStats
from .matching import match_score
from .metric import load_metric, save_metric
from .structure import export_structure_csv, load_structure, save_structure


def _config_from(args) -> RunConfig:
    return load_config(args.config) if args.config else RunConfig()


def _check_out_dir(path) -> None:
    """Fail before any work when ``--out`` exists and is not a directory."""
    if os.path.lexists(path) and not os.path.isdir(path):
        raise NotADirectoryError(f"--out {path} exists and is not a directory")


def _write_diagnostics(path, diagnostics) -> None:
    """One row per iteration: every ``IterationStats`` field, in field order,
    under a header of the field names (``iter`` for ``iteration``)."""
    names = ["iter"] + [f.name for f in fields(IterationStats)[1:]]
    write_rows(path, [names, *map(astuple, diagnostics)])


def _write_cmc_csv(path, averaged, per_split, rank_points) -> None:
    points = [n for n in rank_points if n <= averaged.gallery_size]
    curves = [*enumerate(per_split), ("avg", averaged)]
    write_rows(path, [("split", *(f"r{n}" for n in points)),
                      *((label, *map(curve.at_rank, points)) for label, curve in curves)])


def cmd_synth(args) -> int:
    config = _config_from(args)
    generate_synthetic(args.out, args.identities, args.shift_rows, args.noise,
                       args.seed, config, weak_fraction=args.weak_fraction)
    print(f"wrote {args.identities} identities under {args.out}")
    return 0


def cmd_train(args) -> int:
    _check_out_dir(args.out)
    config = _config_from(args)
    manifest = load_manifest(args.manifest)
    check_images(manifest)
    identities = manifest.identities()
    artifacts = train_on_split(DescriptorBank(manifest, config), identities, config)
    result, metric = artifacts.learned, artifacts.metric
    os.makedirs(args.out, exist_ok=True)
    save_structure(os.path.join(args.out, "structure.bin"), result.structure)
    export_structure_csv(os.path.join(args.out, "structure.csv"), result.structure)
    save_metric(os.path.join(args.out, "metric.bin"), metric)
    _write_diagnostics(os.path.join(args.out, "diagnostics.csv"), result.diagnostics)
    save_config(os.path.join(args.out, "config.used"), config)
    last = result.diagnostics[-1]
    print(f"trained on {len(identities)} identities: {last.iteration} iterations, "
          f"final delta {last.delta:.3g}, converged={result.converged}")
    return 0


def cmd_evaluate(args) -> int:
    _check_out_dir(args.out)
    config = _config_from(args)
    manifest = load_manifest(args.manifest)
    check_images(manifest)
    arms = list(ARMS) if args.arm == "all" else [args.arm]
    splits = make_splits(manifest, config.seed, config.repeats)
    results = run_ablations(manifest, splits, arms, config)
    os.makedirs(args.out, exist_ok=True)
    for arm, (averaged, per_split) in results.items():
        _write_cmc_csv(os.path.join(args.out, f"cmc_{arm}.csv"), averaged,
                       per_split, config.rank_points)
        shown = [n for n in (1, 5) if n <= averaged.gallery_size]
        summary = ", ".join(f"rank-{n} {100 * averaged.at_rank(n):.1f}%" for n in shown)
        print(f"{arm}: {summary} over {splits.repeats} splits")
    return 0


def cmd_match(args) -> int:
    config = _config_from(args)
    structure = load_structure(args.structure)
    grids = (config.probe_grid(), config.gallery_grid())
    if args.config and grids != (structure.probe_grid, structure.gallery_grid):
        raise ConfigurationError(
            f"config grids (probe {grids[0]}, gallery {grids[1]}) differ from the structure's "
            f"(probe {structure.probe_grid}, gallery {structure.gallery_grid})")
    metric = load_metric(args.metric)
    probe = scale_to_canonical(load_image(args.probe), structure.probe_grid)
    gallery = scale_to_canonical(load_image(args.gallery), structure.gallery_grid)
    probe_desc = extract_descriptors(probe, structure.probe_grid,
                                     config.color_bins, config.gradient_bins)
    gallery_desc = extract_descriptors(gallery, structure.gallery_grid,
                                       config.color_bins, config.gradient_bins)
    corr, result = match_score(probe_desc, gallery_desc, structure, metric,
                               config.t_c, config.kappa)
    write_rows(args.out, [("i", "j", "correlation"),
                          *((i, j, corr[i, j]) for i, j in result.pairs)])
    print(f"psi = {result.score!r} over {len(result.pairs)} matched patches")
    return 0


def cmd_export_structure(args) -> int:
    export_structure_csv(args.out, load_structure(args.structure))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="corrmatch",
                                     description="Cross-view patch correspondence matching")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shifted dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--identities", type=int, required=True)
    p.add_argument("--shift-rows", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--weak-fraction", type=float, default=0.35)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="learn a correspondence structure from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run ablation arms over repeated splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arm", default="all", choices=["all", *ARMS])
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("match", help="score one probe image against one gallery image")
    p.add_argument("--probe", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--out", default=None, help="pair list CSV (default stdout)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("export-structure", help="dump a structure file as a CSV heat map")
    p.add_argument("--structure", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_structure)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one parseable line, even for a path holding a line break
        print("error: " + "\\n".join(f"{type(exc).__name__}: {exc}".splitlines()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
