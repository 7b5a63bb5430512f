"""Command-line front end: geometry export, classification, single runs, sweeps.

Configuration is an INI-style key-value document with sections [game],
[initial], [integrator], [sweep] and [output]; unknown keys or sections and
non-finite numbers are rejected so bad configs fail loudly.  Exit codes: 0
success, 2 config error, 3 numerical failure, 4 non-capture.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

from .core import GameParams, RelState, validate_params
from .deception import sweep as run_sweep
from .sim import Scenario, run_closed_loop
from .solution import NumericalError, get_geometry
from .strategy import EvaderPolicy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_CAPTURE = 4

WORKERS_ENV = "CHAUFFEUR_WORKERS"

_SCHEMA = {
    "game": {"mu1", "mu2", "l", "evader", "pursuer"},
    "initial": {"x0", "y0"},
    "integrator": {"dt", "t_max"},
    "sweep": {"x_min", "x_max", "y_min", "y_max", "spacing", "workers"},
    "output": {"directory", "prefix"},
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    mu1: float
    l: float
    mu2: float | None = None
    evader: str = "truthful"
    pursuer: str = "informed"
    x0: float | None = None
    y0: float | None = None
    dt: float = 1e-3
    t_max: float | None = None
    x_min: float | None = None
    x_max: float | None = None
    y_min: float | None = None
    y_max: float | None = None
    spacing: float = 0.25
    workers: int = 1
    directory: str = "."
    prefix: str = "chauffeur"

    def params1(self) -> GameParams:
        return validate_params(self.mu1, self.l)

    def params2(self) -> GameParams | None:
        if self.mu2 is None:
            return None
        return validate_params(self.mu2, self.l)

    def initial(self) -> RelState:
        if self.x0 is None or self.y0 is None:
            raise ConfigError("[initial] section with x0 and y0 is required for this command")
        return RelState(self.x0, self.y0)


def _number(raw: str, name: str) -> float:
    """The finite number ``raw``; ``name`` says where it came from."""
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} is not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name} is not finite: {raw!r}")
    return value


def _workers(raw: str, name: str) -> int:
    """The worker count ``raw``: an integer of at least 1."""
    value = _number(raw, name)
    if not (value.is_integer() and value >= 1):
        raise ConfigError(f"{name} must be an integer of at least 1: {raw!r}")
    return int(value)


def parse_config(text: str, command: str, source: str = "<config>") -> RunConfig:
    """Parse and fully validate a config document for ``command``."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    # Every key names a RunConfig field: text, the worker count or a number.
    values = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{source}: unknown section [{section}]")
        for key in cp.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{source}: unknown key '{key}' in [{section}]")
            raw, where = cp.get(section, key), f"{source}: key '{key}' in [{section}]"
            if key in ("evader", "pursuer", "directory", "prefix"):
                values[key] = raw.strip()
            else:
                values[key] = (_workers if key == "workers" else _number)(raw, where)
    if not cp.has_section("game"):
        raise ConfigError(f"{source}: missing [game] section")
    required = [("game", "mu1"), ("game", "l")]
    if cp.has_section("initial"):
        required += [("initial", "x0"), ("initial", "y0")]
    for section, key in required:
        if not cp.has_option(section, key):
            raise ConfigError(f"{source}: missing key '{key}' in [{section}]")
    cfg = RunConfig(command=command, **values)
    if cfg.evader not in ("truthful", "deceptive"):
        raise ConfigError(f"{source}: evader must be 'truthful' or 'deceptive', got {cfg.evader!r}")
    if cfg.pursuer not in ("informed", "estimating"):
        raise ConfigError(f"{source}: pursuer must be 'informed' or 'estimating', got {cfg.pursuer!r}")

    # Cross-key invariants: every referenced parameter pair must be legal
    # before any computation starts.
    validate_params(cfg.mu1, cfg.l)
    if cfg.mu2 is not None:
        validate_params(cfg.mu2, cfg.l)
        if cfg.mu1 < cfg.mu2:
            raise ConfigError(
                f"{source}: mu1={cfg.mu1} must be >= mu2={cfg.mu2} (mu1 is the faster bound)"
            )
    if cfg.dt <= 0 or cfg.dt >= 0.01:
        raise ConfigError(f"{source}: dt={cfg.dt} outside (0, 0.01)")
    if cfg.t_max is not None and cfg.t_max <= 0:
        raise ConfigError(f"{source}: t_max={cfg.t_max} must be positive")

    if command in ("classify", "simulate"):
        cfg.initial()  # raises with a named key when missing
    if command == "simulate" and (cfg.evader == "deceptive" or cfg.pursuer == "estimating"):
        if cfg.mu2 is None:
            raise ConfigError(f"{source}: deceptive/estimating simulate needs mu2 in [game]")
    if command == "sweep":
        if cfg.mu2 is None:
            raise ConfigError(f"{source}: sweep needs mu2 in [game]")
        for key in ("x_min", "x_max", "y_min", "y_max"):
            if getattr(cfg, key) is None:
                raise ConfigError(f"{source}: missing key '{key}' in [sweep]")
        if cfg.spacing <= 0:
            raise ConfigError(f"{source}: spacing must be positive")
    return cfg


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.directory, exist_ok=True)
    return os.path.join(cfg.directory, f"{cfg.prefix}_{name}")


def execute(cfg: RunConfig, out=sys.stdout) -> int:
    """Run one command; returns the process exit code."""
    try:
        if cfg.command == "geometry":
            for label, params in (("mu1", cfg.params1()), ("mu2", cfg.params2())):
                if params is None:
                    continue
                geom = get_geometry(params)
                path = _out_path(cfg, f"geometry_{label}.csv")
                geom.to_csv(path)
                print(f"{label}: wrote {path}", file=out)
            return EXIT_OK

        if cfg.command == "classify":
            s = cfg.initial()
            tags = []
            for params in (cfg.params1(), cfg.params2()):
                if params is None:
                    continue
                tags.append(get_geometry(params).classify(s).tag)
            for tag in tags:
                print(tag, file=out)
            return EXIT_OK

        if cfg.command == "simulate":
            p1 = cfg.params1()
            p2 = cfg.params2() or p1
            policy = (
                EvaderPolicy(kind="deceptive", mu_low=p2.mu, mu_high=p1.mu)
                if cfg.evader == "deceptive"
                else EvaderPolicy(kind="truthful")
            )
            sc = Scenario(
                params_truth=p1,
                params_low=p2,
                initial_rel=cfg.initial(),
                evader_policy=policy,
                pursuer_mode=cfg.pursuer,
                dt=cfg.dt,
                # Unset, the horizon is Scenario's default.
                **({} if cfg.t_max is None else {"t_max": cfg.t_max}),
            )
            traj = run_closed_loop(sc)
            path = _out_path(cfg, "trajectory.csv")
            traj.to_csv(path)
            kinds = {}
            for e in traj.events:
                kinds[e.kind] = kinds.get(e.kind, 0) + 1
            ev = " ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
            if traj.capture_time is None:
                print(f"no capture within t_max={sc.t_max:.9g} ({ev}) wrote {path}", file=out)
                return EXIT_NO_CAPTURE
            print(f"capture_time={traj.capture_time:.9g} {ev} wrote {path}", file=out)
            return EXIT_OK

        if cfg.command == "sweep":
            env = os.environ.get(WORKERS_ENV)
            workers = _workers(env, f"environment variable {WORKERS_ENV}") if env else cfg.workers
            amap = run_sweep(
                cfg.mu1,
                cfg.mu2,
                cfg.l,
                window=(cfg.x_min, cfg.x_max, cfg.y_min, cfg.y_max),
                spacing=cfg.spacing,
                dt=cfg.dt,
                t_max=cfg.t_max,
                workers=workers,
            )
            path = _out_path(cfg, "advantage_map.csv")
            amap.to_csv(path)
            mg = amap.max_gain()
            print(
                f"cells={len(amap.cells)} advantageous={amap.advantageous_cells()} "
                f"max_gain={'' if mg is None else format(mg, '.9g')} "
                f"failures={len(amap.failures)} wrote {path}",
                file=out,
            )
            incomplete = any(c.incomplete for c in amap.cells)
            if amap.failures:
                return EXIT_NUMERICAL
            if incomplete:
                return EXIT_NO_CAPTURE
            return EXIT_OK

        raise ConfigError(f"unknown command {cfg.command!r}")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chauffeur",
        description="Pursuit-evasion solution geometry, simulation and deception sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("geometry", "export barrier/equivocal curves and characteristic fans to CSV"),
        ("classify", "print the region tag of the configured initial condition"),
        ("simulate", "run one closed-loop scenario and export the trajectory"),
        ("sweep", "evaluate the deception gain over a lattice of initial conditions"),
    ):
        s = sub.add_parser(name, help=doc)
        s.add_argument("config", help="path to the INI-style run configuration")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text, args.command, source=args.config)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
