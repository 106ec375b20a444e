"""Regenerate every paper figure from the command line.

Usage::

    python -m repro.experiments                 # all figures, scale 1.0
    python -m repro.experiments --scale 0.25    # quick pass
    python -m repro.experiments --figure fig09 --figure fig17
    python -m repro.experiments --markdown out.md
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments.figures import ALL_FIGURES, compute_figure
from repro.experiments.render import figure_to_markdown, figure_to_text, grid_banner
from repro.experiments.runner import run_grid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Reproduce the paper's figures on the synthetic suite.",
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=1,
                        help="execution seed (default 1)")
    parser.add_argument("--figure", action="append", dest="figures",
                        choices=sorted(ALL_FIGURES),
                        help="figure id to compute (repeatable; default all)")
    parser.add_argument("--markdown", metavar="PATH",
                        help="also write the tables as Markdown to PATH")
    parser.add_argument("--workers", type=int, default=1,
                        help="processes to fan grid cells over (default 1; "
                             "results are identical at any worker count)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="content-addressed result store directory: "
                             "already-computed cells are reused, freshly "
                             "computed ones persisted as they finish (an "
                             "interrupted run resumes from its missing "
                             "cells; see docs/experiments.md)")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="retries per cell after a worker crash or "
                             "timeout (default 2)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and retry any cell running longer than "
                             "this (workers > 1 only; default none)")
    parser.add_argument("--validate", action="store_true",
                        help="check every paper claim against the grid and "
                             "exit nonzero if any fails")
    parser.add_argument("--save-grid", metavar="PATH",
                        help="save the simulated grid as JSON for later reuse")
    parser.add_argument("--load-grid", metavar="PATH",
                        help="skip simulation and compute figures from a "
                             "grid saved with --save-grid")
    parser.add_argument("--manifest", metavar="DIR", default=None,
                        help="write a manifest.json provenance record into "
                             "DIR (default: next to --markdown/--save-grid "
                             "output when one is given)")
    args = parser.parse_args(argv)

    wanted = args.figures if args.figures else list(ALL_FIGURES)
    # Results land next to whichever artifact the caller asked for; an
    # explicit --manifest DIR overrides.
    manifest_dir = args.manifest
    if manifest_dir is None:
        for artifact in (args.markdown, args.save_grid):
            if artifact:
                manifest_dir = os.path.dirname(artifact) or "."
                break
    started = time.time()
    if args.load_grid:
        from repro.analysis.serialize import load_grid

        grid = load_grid(args.load_grid)
        print(f"grid loaded from {args.load_grid} "
              f"(scale={grid.scale}, seed={grid.seed})\n")
        manifest_dir = None  # nothing was simulated; keep the original
    else:
        print(grid_banner(args.scale, args.seed))
        grid = run_grid(scale=args.scale, seed=args.seed,
                        workers=args.workers, manifest_dir=manifest_dir,
                        store=args.store, max_retries=args.max_retries,
                        job_timeout=args.job_timeout)
        print(f"grid simulated in {time.time() - started:.1f}s\n")
        if manifest_dir is not None:
            print(f"manifest written to "
                  f"{os.path.join(manifest_dir, 'manifest.json')}\n")
    if args.save_grid:
        from repro.analysis.serialize import save_grid

        save_grid(grid, args.save_grid)
        print(f"grid saved to {args.save_grid}\n")

    if args.validate:
        from repro.experiments.validation import render_validation, validate_grid

        results = validate_grid(grid)
        print(render_validation(results))
        return 0 if all(r.passed for r in results) else 1

    markdown_parts = []
    for figure_id in wanted:
        figure = compute_figure(figure_id, grid)
        print(figure_to_text(figure))
        print()
        markdown_parts.append(figure_to_markdown(figure))

    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write("\n\n".join(markdown_parts) + "\n")
        print(f"wrote Markdown tables to {args.markdown}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
