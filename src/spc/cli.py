"""Command-line driver: train the ensemble, score labellings, check the math.

Subcommands
-----------
run            train the full selective pseudo-label loop on blobs or IDX data
eval           score a predicted label CSV against a ground-truth label CSV
verify-theory  run the numerical experiments behind the training objective

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numeric
failure, 4 theory claim failure.

The config file of ``run`` is INI-style with optional sections [spc],
[blobs] and [idx]; every key has a default, so an empty file (or no --config
at all) runs the canonical blob experiment.  ``run`` checks every section,
including those the chosen dataset does not read: keys, types and value
ranges.  ``verify-theory`` runs its one setting and takes only --seed.
Runs are staged in a hidden temporary directory and renamed into place only
on success, so an output directory either exists completely or not at all.
Metrics are written with sorted keys and floats at 10 significant digits to
keep reruns diffable, and no JSON output holds a NaN or an infinity.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import json
import logging
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from .clustering import Labelling
from .consensus import cluster_size_report, evaluate
from .data import BlobSpec, load_idx, make_blobs, normalize
from .errors import ConfigError, DataError, NumericError, SpcError
from .network import save_member
from .pipeline import SpcConfig, spc_train
from .theory import entropy_grid, run_theory_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_CLAIM = 4

# Each section's defaults, which also fix its keys and their types.  [idx]
# n_clusters 0 means "take it from the label file".
DEFAULTS = {
    "spc": dataclasses.asdict(SpcConfig()),
    "blobs": dataclasses.asdict(BlobSpec()),
    "idx": {"n_clusters": 0},
}


# ---- config parsing -------------------------------------------------------


def read_config(path: str | None) -> dict:
    """Every section's settings, {section: {key: value}}: the file's over the defaults.

    None reads as an empty file.  Every section is checked, whichever dataset
    reads it: an unknown section or key, or a value of the wrong type, is a
    ConfigError, and an out-of-range value is the error of the section's
    owner (see ``_check_ranges``).
    """
    raw = {}
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        # values are taken literally: no %-interpolation
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as f:
                parser.read_file(f)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(
                    f"unknown config section [{section}]; expected one of {tuple(DEFAULTS)}"
                )
        raw = {s: dict(parser.items(s)) for s in parser.sections()}
    sections = {name: coerce_section(name, raw.get(name, {}), d) for name, d in DEFAULTS.items()}
    _check_ranges(sections)
    return sections


def _check_ranges(sections: dict) -> None:
    """Range-check each section through its one owner, in DEFAULTS order.

    The first bad value decides the error, and so the exit code.
    """
    SpcConfig(**sections["spc"])  # ConfigError
    BlobSpec(**sections["blobs"])  # DataError
    n_clusters = sections["idx"]["n_clusters"]
    if n_clusters != 0 and n_clusters < 2:
        raise DataError(f"n_clusters must be >= 2, or 0 to count the labels; got {n_clusters}")


def int64(text: str) -> int:
    """``text`` as a base-10 integer; ValueError unless it fits in a signed 64-bit integer.

    The one integer rule, for config values and for ``--seed``.
    """
    value = int(text, 10)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{text} does not fit in a signed 64-bit integer")
    return value


def _parse_value(section: str, key: str, text: str, default):
    """The value of ``text`` as the type of ``default``; an integer must fit in int64."""
    text = text.strip()
    try:
        if isinstance(default, bool):
            word = text.lower()
            if word not in configparser.ConfigParser.BOOLEAN_STATES:
                raise ValueError(f"not a boolean: {text!r}")
            return configparser.ConfigParser.BOOLEAN_STATES[word]
        if isinstance(default, int):
            return int64(text)
        if isinstance(default, float):
            return float(text)
        if isinstance(default, tuple):
            parts = text.replace(",", " ").split()
            if not parts:
                raise ValueError("empty list")
            return tuple(_parse_value(section, key, p, default[0]) for p in parts)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key} in [{section}]: {exc}") from exc


def coerce_section(section: str, raw: dict, defaults: dict) -> dict:
    out = dict(defaults)
    for key, text in raw.items():
        if key not in defaults:
            raise ConfigError(
                f"unknown key '{key}' in [{section}]; expected one of {sorted(defaults)}"
            )
        out[key] = _parse_value(section, key, text, defaults[key])
    return out


# ---- deterministic serialization ------------------------------------------


def _fmt(value) -> str:
    """The one number format: floats at 10 significant digits, None as empty."""
    return "" if value is None else f"{float(value):.10g}"


def _round_floats(obj):
    """Clamp every float to 10 significant digits, recursively."""
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def json_text(obj, artifact: str) -> str:
    """``obj`` as strict JSON; NumericError, naming ``artifact``, for a NaN or an infinity."""
    try:
        return json.dumps(_round_floats(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"{artifact} would hold a non-finite number: {exc}") from exc


# ---- staged output directories --------------------------------------------


@contextlib.contextmanager
def _staged(out_dir: str):
    """Yield (out, stage), a new hidden directory beside ``out`` removed on exit.

    Only ``_finalize`` moves the stage to ``out``, so a failed command leaves
    nothing: neither the stage nor the parent directories made for it.  An
    ``out`` that cannot be made is a ConfigError before the caller's work.
    """
    out = os.path.abspath(out_dir)
    if os.path.lexists(out):  # a dangling symlink too: the rename cannot replace it
        raise ConfigError(f"output path already exists: {out}")
    parent = os.path.dirname(out)
    made = []  # the directories makedirs creates, innermost first
    path = parent
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)

    def remove_made():
        for path in made:
            with contextlib.suppress(OSError):  # not empty: someone else wrote there
                os.rmdir(path)

    try:
        os.makedirs(parent, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.lstat(out)  # a name too long for its directory fails here, before any work
        stage = tempfile.mkdtemp(prefix=".stage-", dir=parent)
    except OSError as exc:
        remove_made()
        raise ConfigError(f"cannot create output path {out}: {exc}") from exc
    try:
        yield out, stage
    finally:
        if os.path.isdir(stage):
            shutil.rmtree(stage)
            remove_made()


# the rename keeps a name of its own: perfbench/child.py clocks the end of a
# run at it, and perfbench/trace.py wraps it
def _finalize(stage: str, out: str) -> None:
    try:
        os.replace(stage, out)
    except OSError as exc:
        raise ConfigError(f"cannot create output path {out}: {exc}") from exc


# ---- dataset construction -------------------------------------------------


def build_dataset(args, sections: dict):
    if args.dataset == "blobs":
        if args.images is not None or args.labels is not None:
            raise ConfigError("--images and --labels need --dataset idx")
        raw = make_blobs(BlobSpec(**sections["blobs"]))
        descriptor = {"source": "blobs", **sections["blobs"]}
    else:
        if args.images is None:
            raise ConfigError("--dataset idx requires --images")
        n_clusters = sections["idx"]["n_clusters"]
        raw = load_idx(args.images, args.labels, n_clusters=n_clusters or None)
        descriptor = {"source": "idx", "images": os.path.abspath(args.images)}
        if args.labels is not None:
            descriptor["labels"] = os.path.abspath(args.labels)
    ds = normalize(raw)
    descriptor.update(
        {
            "n_points": ds.n_points,
            "dim": ds.dim,
            "n_clusters": ds.n_clusters,
            "point_range": [float(ds.points.min()), float(ds.points.max())],
        }
    )
    return ds, descriptor


# ---- run ------------------------------------------------------------------


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_run(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    sections = read_config(args.config)
    spc_kwargs = sections["spc"]
    if args.seed is not None:
        spc_kwargs["master_seed"] = args.seed
    config = SpcConfig(**spc_kwargs)
    dataset, descriptor = build_dataset(args, sections)

    with _staged(args.out) as (out, stage):
        t_start = time.perf_counter()
        final, history, members = spc_train(dataset, config, workers=args.workers)
        train_seconds = time.perf_counter() - t_start

        header = ["iteration", "n_agreed", "agreed_accuracy", "overall_accuracy", "mean_loss"]
        rows = (
            [r.iteration, r.n_agreed, _fmt(r.agreed_accuracy), _fmt(r.overall_accuracy), _fmt(r.mean_loss)]
            for r in history
        )
        _write_csv(os.path.join(stage, "history.csv"), header, rows)
        _write_csv(os.path.join(stage, "labels.csv"), ["index", "label"], enumerate(final.labels.tolist()))

        metrics = {
            "n_iterations": len(history),
            "final_n_agreed": history[-1].n_agreed,
            "cluster_sizes": cluster_size_report(final),
        }
        if dataset.labels is not None:
            truth = Labelling(labels=dataset.labels, n_clusters=dataset.n_clusters)
            metrics.update(evaluate(final, truth))
        with open(os.path.join(stage, "metrics.json"), "w") as f:
            f.write(json_text(metrics, "metrics.json"))

        os.makedirs(os.path.join(stage, "members"))
        member_paths = []
        for j, member in enumerate(members):
            rel = os.path.join("members", f"member_{j:02d}.npz")
            save_member(os.path.join(stage, rel), member)
            member_paths.append(rel)

        manifest = {
            "config": dataclasses.asdict(config),
            "dataset": descriptor,
            "seeds": {
                "master_seed": config.master_seed,
                "member_init_seeds": [member.member_seed for member in members],
            },
            "artifacts": {
                "history": "history.csv",
                "labels": "labels.csv",
                "metrics": "metrics.json",
                "members": member_paths,
            },
            "timings": {"train_seconds": train_seconds},
        }
        with open(os.path.join(stage, "manifest.json"), "w") as f:
            f.write(json_text(manifest, "manifest.json"))

        _finalize(stage, out)

    print(
        f"run complete: {len(history)} iterations, "
        f"{history[-1].n_agreed}/{dataset.n_points} agreed -> {out}"
    )
    return EXIT_OK


# ---- eval -----------------------------------------------------------------


def _parses_as_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _read_label_csv(path: str) -> np.ndarray:
    """Read labels from a one-column CSV or an (index, label) CSV.

    The first row is a header, and is skipped, when one of its cells does not
    parse as an integer.  Two-column files are ordered by index, and their
    indices must be exactly 0..N-1, each once.
    """
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = [row for row in csv.reader(f) if any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read label file {path}: {exc}") from exc
    if rows and not all(_parses_as_int(cell) for cell in rows[0]):
        rows = rows[1:]
    if not rows:
        raise DataError(f"no label rows in {path}")
    try:
        if len(rows[0]) == 1:
            labels = np.array([int(row[0]) for row in rows], dtype=np.int64)
        else:
            pairs = sorted((int(row[0]), int(row[1])) for row in rows)
            if [i for i, _ in pairs] != list(range(len(pairs))):
                raise DataError(f"indices in {path} are not 0..{len(pairs) - 1}, each once")
            labels = np.array([label for _, label in pairs], dtype=np.int64)
    except (ValueError, IndexError, OverflowError) as exc:
        raise DataError(f"malformed label row in {path}: {exc}") from exc
    if labels.min() < 0:
        raise DataError(f"negative label in {path}")
    return labels


def cmd_eval(args) -> int:
    predicted = _read_label_csv(args.predicted)
    truth = _read_label_csv(args.truth)
    if predicted.shape[0] != truth.shape[0]:
        raise DataError(
            f"label counts differ: {predicted.shape[0]} predicted vs {truth.shape[0]} truth"
        )
    # the scores are blind to id values, so each id is scored by its rank among
    # the ids of either file: the tables are sized by the distinct ids, not by
    # the largest one
    ids = np.union1d(predicted, truth)
    ranked = Labelling(labels=np.searchsorted(ids, predicted), n_clusters=ids.size)
    scores = evaluate(ranked, Labelling(labels=np.searchsorted(ids, truth), n_clusters=ids.size))
    sizes = {int(ids[rank]): size for rank, size in cluster_size_report(ranked).items()}
    report = {**scores, "cluster_sizes": sizes, "n_points": int(truth.shape[0])}
    print(json_text(report, "the eval report"), end="")
    return EXIT_OK


# ---- verify-theory --------------------------------------------------------


def cmd_verify_theory(args) -> int:
    with _staged(args.out) as (out, stage):
        report = run_theory_suite(seed=args.seed)
        with open(os.path.join(stage, "theory_report.json"), "w") as f:
            f.write(json_text(report.to_json_dict(), "theory_report.json"))
        _write_csv(
            os.path.join(stage, "entropy_curve.csv"),
            ["n_clusters", "t", "entropy"],
            ([C, _fmt(t), _fmt(h)] for C, curve in entropy_grid() for t, h in curve),
        )
        _finalize(stage, out)

    for name, passed in report.claims():
        print(f"{name}: {'pass' if passed else 'FAIL'}")
    if report.all_passed():
        print(f"all claims hold -> {out}")
        return EXIT_OK
    print(f"theory claim failure, see {os.path.join(out, 'theory_report.json')}")
    return EXIT_CLAIM


# ---- argument parsing -----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1, not 2)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train the ensemble and write run artifacts")
    run.add_argument("--config", default=None, help="INI config file; omit for defaults")
    run.add_argument("--out", required=True, help="output directory (must not exist)")
    run.add_argument("--dataset", choices=("blobs", "idx"), default="blobs")
    run.add_argument("--images", default=None, help="IDX image file for --dataset idx")
    run.add_argument("--labels", default=None, help="optional IDX label file")
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="member threads, >= 1 (default: min(n_members, cores)); outputs do not depend on it",
    )
    run.add_argument("--seed", type=int64, default=None, help="override [spc] master_seed")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="score a predicted labelling against ground truth")
    ev.add_argument("predicted", help="CSV of predicted labels")
    ev.add_argument("truth", help="CSV of ground-truth labels")
    ev.set_defaults(func=cmd_eval)

    verify = sub.add_parser("verify-theory", help="run the numerical theory checks")
    verify.add_argument("--out", required=True, help="output directory (must not exist)")
    verify.add_argument("--seed", type=int64, default=0, help="seed of the Monte Carlo draws")
    verify.set_defaults(func=cmd_verify_theory)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, SpcError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"numeric error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
