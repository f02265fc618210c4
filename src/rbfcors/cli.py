"""Command-line front end.

Three subcommands:

* ``run`` — optimize a built-in or external objective from a JSON config and
  write the evaluation history as CSV.
* ``lhs`` — emit an improved Latin-hypercube design as CSV.
* ``surface`` — fit the response surface to a history CSV's ``f_scaled``
  values, the values the run fitted, and dump it on a regular grid for
  external contour plotting.

External objectives are subprocesses speaking a line protocol: one
whitespace-separated point per line on standard input, one scalar per line
back on standard output.  Every output file is written atomically
(temporary file plus rename), and all floats use their shortest
round-tripping decimal form so identical runs produce byte-identical files.

Exit codes: 0 success, 2 configuration error (including an unwritable output
path, and a setting whose arrays cannot be allocated), 3 objective failure,
4 driver failure (fitting, rescaling or proposing), 130 interrupted
(Ctrl-C).  On 3, 4 and 130 the history evaluated so far is still written.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import queue
import re
import subprocess
import sys
import tempfile
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace

import numpy as np

from .benchmarks import BUILTIN_NAMES, NamedObjective, builtin
from .cors import check_settings
from .engine import DriverError, ObjectiveError, OptimizationConfig, RunError, RunInterrupted, run
from .engine import log as engine_log
from .lhs import diagonal_lh, improve_lh, spread
from .rbf import SingularFitError, fit
from .scaling import BoundedDomain

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OBJECTIVE = 3
EXIT_DRIVER = 4
EXIT_INTERRUPTED = 130


class ConfigError(Exception):
    """Invalid configuration or input artifact; maps to exit code 2."""


class ObjectiveLaunchError(Exception):
    """External objective command could not be started; exit code 3."""


# Grid nodes per evaluate_many call in cmd_surface, which bounds its kernel.
_SURFACE_BLOCK = 1 << 14

# Run-level keys and the JSON types accepted for each; every other key is a
# field of OptimizationConfig.
_RUN_KEYS = {"objective": (str, list), "lower": (list,), "upper": (list,), "history_out": (str,)}


def _key_line(raw: str, key: str) -> int | None:
    """1-based line of the first occurrence of "key": in the raw JSON text."""
    pattern = re.compile(r'"' + re.escape(key) + r'"\s*:')
    for number, line in enumerate(raw.splitlines(), start=1):
        if pattern.search(line):
            return number
    return None


def _located(raw: str, key: str | None, message: str) -> ConfigError:
    line = _key_line(raw, key) if key else None
    if line is not None:
        return ConfigError(f"line {line}: {message}")
    return ConfigError(message)


def _setting_error(raw: str, err: ValueError) -> ConfigError:
    """Locate a settings ValueError at the key its message starts with."""
    message = str(err)
    return _located(raw, message.split()[0], message)


def _check_type(raw: str, key: str, value, accepted: tuple) -> None:
    # bool is an int subclass; only accept it where bool is listed.
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
        names = " or ".join(t.__name__ for t in accepted)
        raise _located(raw, key, f"key {key!r} must be {names}")


def _json_value(raw: str, key: str, value, kind):
    """Check a JSON value against a settings field's annotation and convert
    it; integers are accepted for float fields and stored as float, and an
    integer field takes no value above sys.maxsize."""
    if value is None and type(None) in typing.get_args(kind):
        return None
    if is_dataclass(kind):
        _check_type(raw, key, value, (dict,))
        return _settings_from_json(raw, kind, value)
    base = next(t for t in (*typing.get_args(kind), kind) if t in (bool, int, float))
    _check_type(raw, key, value, (int, float) if base is float else (base,))
    if base is int and value > sys.maxsize:
        raise _located(raw, key, f"key {key!r} must be at most {sys.maxsize}")
    try:
        return base(value)
    except OverflowError:
        raise _located(raw, key, f"key {key!r} is too large for a float")


def _settings_from_json(raw: str, cls, doc: dict):
    """Build a settings dataclass from a JSON object, taking the allowed keys
    and their types from the dataclass fields and the range checks from the
    class itself."""
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in doc.items():
        if key not in hints:
            raise _located(raw, key, f"unknown key {key!r}")
        values[key] = _json_value(raw, key, value, hints[key])
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in values:
            raise ConfigError(f"missing required key {f.name!r}")
    try:
        return cls(**values)
    except ValueError as err:
        raise _setting_error(raw, err)


@dataclass
class RunSpec:
    """Everything cmd_run needs, resolved from the config file."""

    config: OptimizationConfig
    domain: BoundedDomain
    objective: NamedObjective | list[str]  # a built-in sized to domain, or an argv
    history_out: str


def load_run_config(path: str) -> RunSpec:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    values = {key: doc.pop(key) for key in _RUN_KEYS if key in doc}
    for key, value in values.items():
        _check_type(raw, key, value, _RUN_KEYS[key])
    if "objective" not in values:
        raise ConfigError("missing required key 'objective'")
    config = _settings_from_json(raw, OptimizationConfig, doc)

    objective, domain = _resolve_objective(raw, values)
    try:
        config.validate(domain.dim)
    except ValueError as err:
        raise _setting_error(raw, err)
    return RunSpec(
        config=config,
        domain=domain,
        objective=objective,
        history_out=values.get("history_out", "history.csv"),
    )


def _resolve_objective(raw: str, values: dict) -> tuple[NamedObjective | list[str], BoundedDomain]:
    """The objective, a built-in sized to the bounds or an argv, and its domain."""
    objective = values["objective"]
    if isinstance(objective, str) and objective not in BUILTIN_NAMES:
        raise _located(
            raw,
            "objective",
            f"unknown objective {objective!r}; built-ins are "
            f"{', '.join(BUILTIN_NAMES)} (use a JSON array for an "
            f"external command)",
        )
    if isinstance(objective, list) and not (
        objective and all(isinstance(part, str) for part in objective)
    ):
        raise _located(raw, "objective", "external objective must be a non-empty array of strings")

    if ("lower" in values) != ("upper" in values):
        given = "lower" if "lower" in values else "upper"
        raise _located(raw, given, "lower and upper must be given together")
    if "lower" not in values:
        if isinstance(objective, list):
            raise ConfigError("external objectives require explicit lower and upper bounds")
        named = builtin(objective)
        return named, named.domain

    bounds = []
    for key in ("lower", "upper"):
        try:
            bounds.append(np.asarray(values[key], dtype=float))
        except (TypeError, ValueError):
            raise _located(raw, key, f"{key} must be an array of numbers")
        except OverflowError:
            raise _located(raw, key, f"{key} has an entry too large for a float")
    try:
        domain = BoundedDomain(*bounds)
    except ValueError as err:
        raise _located(raw, "lower", str(err))
    if isinstance(objective, list):
        return objective, domain

    try:
        named = builtin(objective, dim=domain.dim)
    except ValueError as err:
        raise _located(raw, "lower", str(err))
    box = named.domain
    if np.any(domain.lower < box.lower) or np.any(domain.upper > box.upper):
        raise _located(
            raw,
            "lower",
            f"bounds must lie within the {objective!r} domain "
            f"[{box.lower.tolist()}, {box.upper.tolist()}]",
        )
    return named, domain


class CommandObjective:
    """External objective: one reusable subprocess per worker slot.

    A call borrows a subprocess from the pool, sends the point as a single
    whitespace-separated line, and reads one scalar line back, so up to
    `slots` evaluations can be in flight at once.
    """

    def __init__(self, argv: list[str], slots: int):
        self._procs: list[subprocess.Popen] = []
        self._pool: queue.SimpleQueue = queue.SimpleQueue()
        try:
            for _ in range(slots):
                proc = subprocess.Popen(
                    argv,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                )
                self._procs.append(proc)
                self._pool.put(proc)
        except OSError as err:
            self.close()
            raise ObjectiveLaunchError(f"cannot start objective command {argv}: {err}")

    def __call__(self, x) -> float:
        proc = self._pool.get()
        try:
            point = " ".join(repr(float(c)) for c in np.asarray(x, dtype=float))
            proc.stdin.write(point + "\n")
            proc.stdin.flush()
            reply = proc.stdout.readline()
            if reply == "":
                try:
                    status = proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    status = proc.poll()
                raise RuntimeError(f"objective command exited with status {status}")
            return float(reply)
        finally:
            self._pool.put(proc)

    def close(self) -> None:
        for proc in self._procs:
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def format_float(value) -> str:
    """Shortest decimal form that round-trips to the same float."""
    return repr(float(value))


def _check_writable(path: str) -> None:
    """Raise ConfigError naming path unless a file can be written there."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not os.path.basename(path):
        raise ConfigError(f"cannot write {path!r}: the path has no file name")
    if not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write {path}: its directory is missing or not writable")


def _atomic_write(path: str, text: str) -> None:
    """Write text to path via a temporary file so readers never see a
    half-written file and failures leave any existing file untouched."""
    _check_writable(path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror}")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _history_columns(dim: int) -> list[str]:
    coordinates = [f"x_{i + 1}" for i in range(dim)]
    return ["stage", "index", *coordinates, "f_raw", "f_scaled", "radius", "fallback"]


def history_to_csv(history, dim: int) -> str:
    lines = [",".join(_history_columns(dim))]
    for rec in history:
        row = [rec.stage, str(rec.index)]
        row.extend(format_float(c) for c in rec.x_unit)
        row.append(format_float(rec.f_raw))
        row.append("" if rec.f_scaled is None else format_float(rec.f_scaled))
        row.append("" if rec.radius_used is None else format_float(rec.radius_used))
        row.append("1" if rec.fallback else "0")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def parse_history(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a history CSV back as (unit points, f_scaled values).

    A row without an f_scaled value comes only from a run that failed inside
    its initial design, which never fitted a model, and is rejected.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as err:
        raise ConfigError(f"cannot read history file: {err}")
    rows = [r for r in rows if r and not r[0].startswith("#")]
    if not rows:
        raise ConfigError("history file is empty")
    header = rows[0]
    d = sum(1 for name in header if re.fullmatch(r"x_\d+", name))
    if d == 0 or header != _history_columns(d):
        raise ConfigError(f"history header must be {','.join(_history_columns(max(d, 1)))}")
    points, fitted = [], []
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ConfigError(f"history line {number}: expected {len(header)} fields")
        if not row[3 + d]:
            raise ConfigError(f"history line {number}: f_scaled is empty")
        try:
            points.append([float(row[2 + i]) for i in range(d)])
            fitted.append(float(row[3 + d]))
        except ValueError:
            raise ConfigError(f"history line {number}: malformed number")
    return np.asarray(points), np.asarray(fitted)


def cmd_run(args) -> None:
    spec = load_run_config(args.config)
    overrides = {"seed": args.seed, "workers": args.workers}
    config = replace(spec.config, **{k: v for k, v in overrides.items() if v is not None})
    out = args.out if args.out is not None else spec.history_out
    # Checked before the first evaluation so a bad path cannot cost the run.
    _check_writable(out)

    # Progress records go to stderr as bare messages (the default format) during the run.
    progress = logging.StreamHandler(sys.stderr)
    level = engine_log.level
    engine_log.addHandler(progress)
    engine_log.setLevel(logging.INFO)
    pool: CommandObjective | None = None
    try:
        if isinstance(spec.objective, NamedObjective):
            objective = spec.objective.evaluate
        else:
            objective = pool = CommandObjective(spec.objective, config.workers)
        result = run(objective, spec.domain, config)
    except (RunError, RunInterrupted) as err:
        _atomic_write(out, history_to_csv(err.history, spec.domain.dim))
        raise
    else:
        # Before the objective's subprocesses are closed, which Ctrl-C may cut short.
        _atomic_write(out, history_to_csv(result.history, spec.domain.dim))
    finally:
        engine_log.removeHandler(progress)
        engine_log.setLevel(level)
        if pool is not None:
            pool.close()

    best_x = ",".join(format_float(v) for v in result.best_x)
    print(f"best_x={best_x} best_f={format_float(result.best_f)}")


def cmd_lhs(args) -> None:
    # --seed is checked like the config's seed.
    check_settings(args, ("seed", args.seed is None or args.seed >= 0, "non-negative"))
    rng = np.random.default_rng(args.seed)
    base = diagonal_lh(args.n, args.d)
    initial_spread = spread(base.unit_points())
    improved = improve_lh(base, args.attempts, rng)
    final_spread = spread(improved.unit_points())
    lines = [",".join(f"x_{i + 1}" for i in range(args.d))]
    for row in improved.unit_points():
        lines.append(",".join(format_float(c) for c in row))
    lines.append(f"# spread={format_float(initial_spread)} -> {format_float(final_spread)}")
    _atomic_write(args.out, "\n".join(lines) + "\n")


def cmd_surface(args) -> None:
    points, fitted = parse_history(args.history)
    d = points.shape[1]
    if d != 2:
        raise ConfigError(f"surface grid requires a 2-dimensional history, got d={d}")
    if args.resolution < 2:
        raise ConfigError(f"resolution must be at least 2, got {args.resolution}")
    model = fit(points, fitted)
    axis = np.linspace(0.0, 1.0, args.resolution)
    first, second = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([first.ravel(), second.ravel()], axis=1)
    blocks = range(0, len(grid), _SURFACE_BLOCK)
    values = np.concatenate([model.evaluate_many(grid[i : i + _SURFACE_BLOCK]) for i in blocks])
    values = values.reshape(args.resolution, args.resolution)
    lines = [
        f"# response surface in the run's f_scaled units on the unit square; "
        f"rows: x_1 from 0 to 1, columns: x_2 from 0 to 1, resolution={args.resolution}"
    ]
    for row in values:
        lines.append(",".join(format_float(v) for v in row))
    _atomic_write(args.out, "\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbfcors",
        description="Global optimization of expensive black-box functions "
        "with a cubic RBF response surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an optimization from a JSON config")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument(
        "--workers", type=int, default=None, help="override parallel evaluation slots"
    )
    p_run.add_argument(
        "--out", default=None, help="history CSV path (overrides config history_out)"
    )
    p_run.set_defaults(func=cmd_run)

    p_lhs = sub.add_parser("lhs", help="emit an improved Latin-hypercube design")
    p_lhs.add_argument("--n", type=int, required=True, help="number of points (>= 2)")
    p_lhs.add_argument("--d", type=int, required=True, help="dimension (>= 1)")
    p_lhs.add_argument(
        "--attempts", type=int, default=OptimizationConfig.lh_attempts, help="swap attempts"
    )
    p_lhs.add_argument("--seed", type=int, default=None, help="RNG seed")
    p_lhs.add_argument("--out", default="lhs.csv", help="output CSV path")
    p_lhs.set_defaults(func=cmd_lhs)

    p_surface = sub.add_parser(
        "surface", help="dump the surface fitted to a history's f_scaled values on a grid"
    )
    p_surface.add_argument("--history", required=True, help="history CSV from `run`")
    p_surface.add_argument(
        "--resolution", type=int, default=101, help="grid nodes per axis"
    )
    p_surface.add_argument("--out", default="surface.csv", help="output CSV path")
    p_surface.set_defaults(func=cmd_surface)

    return parser


# Exit code per failure a subcommand may raise; any other exception is a bug.
_EXIT_CODES = {
    DriverError: EXIT_DRIVER,
    ObjectiveError: EXIT_OBJECTIVE,
    ObjectiveLaunchError: EXIT_OBJECTIVE,
    ConfigError: EXIT_CONFIG,
    ValueError: EXIT_CONFIG,
    SingularFitError: EXIT_CONFIG,
    MemoryError: EXIT_CONFIG,
    KeyboardInterrupt: EXIT_INTERRUPTED,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except tuple(_EXIT_CODES) as err:
        # Ctrl-C's own KeyboardInterrupt has no message.
        print(f"error: {str(err) or 'interrupted'}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(err, cls))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
