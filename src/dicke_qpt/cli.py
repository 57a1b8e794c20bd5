"""Command-line sweep driver.

Couplings on the command line are expressed in units of the critical
coupling lambda_c = sqrt(omega * omega0) / 2.  With --lambda-scale log the
min/max values are relative offsets |lambda - lambda_c| / lambda_c, at
most 1, and the grid straddles the critical point.  A flat key=value config file can seed
any flag; explicit flags win.

Every SweepConfig field is a config-file key, and every field that carries
help metadata is also a --flag of the same name (underscores as dashes).
Each field's text parser lives in its metadata, so a config-file value is
read exactly as the flag's would be.

Exit status: 0 on full success, 1 on bad arguments or configuration, 2 when
some sweep points failed (the failures are listed under "errors" in JSON
output and on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError, DickeError
from .sweep import SweepConfig, emit, run_sweep

_FIELDS = {f.name: f for f in dataclasses.fields(SweepConfig)}
_OUTPUT_KEYS = ("out", "format")
_FORMATS = ("csv", "json")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dicke-sweep",
        description="Sweep ground-state entanglement measures of the single-mode "
                    "Dicke model over coupling and system size.")
    p.add_argument("--config",
                   help="flat key = value file seeding any flag below "
                        "(plus two_lobe = true|false)")
    for f in _FIELDS.values():
        if f.metadata["help"]:
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=f.metadata["parse"], help=f.metadata["help"])
    p.add_argument("--single-lobe", dest="two_lobe", action="store_false", default=None,
                   help="report the broken-symmetry single-lobe entropy above lambda_c")
    p.add_argument("--out", help="output file path (default: stdout)")
    p.add_argument("--format", choices=_FORMATS, help="output format")
    return p


def _parse_scalar(key: str, raw: str):
    raw = raw.strip()
    if key in _OUTPUT_KEYS:
        return raw
    if key not in _FIELDS:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return _FIELDS[key].metadata["parse"](raw)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def read_config_file(path: str) -> dict:
    """Parse 'key = value' lines; '#' starts a comment; keys mirror the flags."""
    out: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            out[key] = _parse_scalar(key, raw)
    return out


def build_config(args: argparse.Namespace) -> tuple[SweepConfig, str | None, str]:
    """Merge defaults, config file, and flags (flags win)."""
    merged: dict = read_config_file(args.config) if args.config else {}
    merged.update((key, val) for key, val in vars(args).items()
                  if val is not None and key != "config")
    out_path = merged.pop("out", None)
    fmt = merged.pop("format", "csv")
    if fmt not in _FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")
    config = SweepConfig(**merged)
    config.validate()
    return config, out_path, fmt


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, but 2 means partial failure here
        return 1 if exc.code else 0
    try:
        config, out_path, fmt = build_config(args)
    except (DickeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    table, failures = run_sweep(config)
    try:
        text = emit(table, fits=None, path=out_path, fmt=fmt, failures=failures)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    if out_path is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {len(table['lambda'])} reports to {out_path}", file=sys.stderr)
    for fail in failures:
        print(f"failed: backend={fail.backend} lambda={fail.coupling:g} "
              f"n_atoms={fail.n_atoms}: {fail.message}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
