"""Command-line front end.

Every structured report is JSON with a schema_version field and the exact
field modulus in hex; spectra can also be emitted as CSV. Output is
deterministic: identical configs give byte-identical reports regardless of
the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

from . import criteria
from .apn import POINT_LIMIT, SPECTRUM_LIMIT, classify_exponent, spectrum, surface_point_check
from .errors import FieldTooLarge, InternalError, ValidationError
from .fields import FieldCtx, find_embedding, make_field, parse_field_spec
from .phi import build_phi
from .unipoly import UniPoly, parse_poly, split_q_affine

SCHEMA_VERSION = 1
SPECTRUM_LIMIT_BITS = SPECTRUM_LIMIT.bit_length() - 1
POINT_LIMIT_BITS = POINT_LIMIT.bit_length() - 1

_RANGE_RE = re.compile(r"(\d+)(?:\.\.(\d+))?\Z")


@dataclass
class RunConfig:
    command: str
    field_spec: str | None = None
    f_text: str | None = None
    n_range: range | None = None
    output: str = "json"
    worker_count: int = 1
    kind: str | None = None
    param_hex: str | None = None
    l1_text: str | None = None
    t: int | None = None


def _parse_n_range(text: str) -> range:
    m = _RANGE_RE.fullmatch(text.strip())
    if not m:
        raise ValidationError(f"bad range {text!r}; expected N or A..B")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise ValidationError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _field_json(ctx: FieldCtx) -> dict:
    return {"m": ctx.degree, "modulus": hex(ctx.modulus)}


def _need(config: RunConfig, *names: str):
    out = []
    for name in names:
        value = getattr(config, name)
        if value is None:
            flag = {"field_spec": "--field", "f_text": "--f", "n_range": "--n",
                    "kind": "--kind", "param_hex": "--param"}[name]
            raise ValidationError(f"{config.command} requires {flag}")
        out.append(value)
    return out


def _ctx_and_poly(config: RunConfig) -> tuple[FieldCtx, UniPoly]:
    spec_text, f_text = _need(config, "field_spec", "f_text")
    ctx = parse_field_spec(spec_text)
    return ctx, parse_poly(f_text, ctx)


def _cmd_field(config: RunConfig) -> dict:
    (spec_text,) = _need(config, "field_spec")
    ctx = parse_field_spec(spec_text)
    return {
        "schema_version": SCHEMA_VERSION,
        "field": _field_json(ctx),
        "order": ctx.order,
        "spec": ctx.spec(),
    }


def _cmd_phi(config: RunConfig) -> dict:
    ctx, f = _ctx_and_poly(config)
    surf = build_phi(f)
    degree = None if not surf.poly else surf.poly.total_degree
    return {
        "schema_version": SCHEMA_VERSION,
        "field": _field_json(ctx),
        "f": f.to_text(),
        "phi": surf.poly.to_text(),
        "degree": degree,
        "homogeneous_degrees": [d for d, _ in surf.decomp.parts],
    }


def _cmd_spectrum(config: RunConfig) -> dict:
    ctx, f = _ctx_and_poly(config)
    if ctx.degree > SPECTRUM_LIMIT_BITS:
        raise FieldTooLarge(
            f"spectrum supports fields up to gf(2^{SPECTRUM_LIMIT_BITS})"
        )
    sp = spectrum(f, ctx, workers=config.worker_count)
    rows = [
        {"count": c, "multiplicity": sp.histogram[c]} for c in sorted(sp.histogram)
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "field": _field_json(ctx),
        "f": f.to_text(),
        "rows": rows,
        "uniformity": sp.uniformity,
        "apn": sp.uniformity == 2,
    }


def _cmd_apn(config: RunConfig) -> dict:
    ctx, f = _ctx_and_poly(config)
    (n_range,) = _need(config, "n_range")
    for n in n_range:
        if n < 1:
            raise ValidationError("extension degrees must be positive")
        if ctx.degree * n > SPECTRUM_LIMIT_BITS:
            raise FieldTooLarge(
                f"apn over gf(2^{ctx.degree * n}) exceeds the 2^{SPECTRUM_LIMIT_BITS} limit"
            )
    rows = []
    for n in n_range:
        ext = make_field(ctx.degree * n)
        sp = spectrum(f, ext, workers=config.worker_count)
        rows.append(
            {
                "n": n,
                "field": _field_json(ext),
                "apn": sp.uniformity == 2,
                "uniformity": sp.uniformity,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "field": _field_json(ctx),
        "f": f.to_text(),
        "rows": rows,
    }


def _cmd_classify12(config: RunConfig) -> dict:
    ctx, f = _ctx_and_poly(config)
    witness = criteria.deg12_classify(f)
    big = make_field(3 * ctx.degree)
    return {
        "schema_version": SCHEMA_VERSION,
        "field": _field_json(ctx),
        "extension_field": _field_json(big),
        "f": f.to_text(),
        "witness": criteria.witness_json(witness),
    }


def _cmd_gen12(config: RunConfig) -> dict:
    spec_text, kind, param_hex = _need(config, "field_spec", "kind", "param_hex")
    ctx = parse_field_spec(spec_text)
    big = make_field(3 * ctx.degree)
    param = big.from_hex(param_hex)
    l1 = parse_poly(config.l1_text, ctx) if config.l1_text is not None else None
    f = criteria.family_generate(kind, param, l1, base=ctx)
    return {
        "schema_version": SCHEMA_VERSION,
        "field": _field_json(ctx),
        "extension_field": _field_json(big),
        "kind": kind,
        "param": param.hex(),
        "l1": l1.to_text() if l1 is not None else None,
        "f": f.to_text(),
    }


def _cmd_divisors(config: RunConfig) -> dict:
    ctx, f = _ctx_and_poly(config)
    result = criteria.cubic_divisor_search(f, workers=config.worker_count)
    return {
        "schema_version": SCHEMA_VERSION,
        "field": _field_json(ctx),
        "extension_field": _field_json(result.field),
        "f": f.to_text(),
        "mode": result.mode,
        "divisors": [criteria.divisor_json(p) for p in result.divisors],
    }


def _cmd_theorems(config: RunConfig) -> dict:
    ctx, f = _ctx_and_poly(config)
    verdict = criteria.applicable_theorem(f)
    return {
        "schema_version": SCHEMA_VERSION,
        "field": _field_json(ctx),
        "f": f.to_text(),
        "applicable": verdict.applicable,
        "detail": verdict.detail,
    }


def _cmd_points(config: RunConfig) -> dict:
    ctx, f = _ctx_and_poly(config)
    if ctx.degree > POINT_LIMIT_BITS:
        raise FieldTooLarge(
            f"points supports fields up to gf(2^{POINT_LIMIT_BITS})"
        )
    consistent, witness = surface_point_check(f, ctx, workers=config.worker_count)
    return {
        "schema_version": SCHEMA_VERSION,
        "field": _field_json(ctx),
        "f": f.to_text(),
        "consistent": consistent,
        "apn": witness is None,
        "witness": [w.hex() for w in witness] if witness is not None else None,
    }


def _cmd_exponent(config: RunConfig) -> dict:
    t = config.t
    if t is None or t < 1:
        raise ValidationError("exponent takes a positive integer")
    cls = classify_exponent(t)
    return {"schema_version": SCHEMA_VERSION, "t": t, "kind": cls.kind, "k": cls.k}


_DISPATCH = {
    "field": _cmd_field,
    "phi": _cmd_phi,
    "spectrum": _cmd_spectrum,
    "apn": _cmd_apn,
    "classify12": _cmd_classify12,
    "gen12": _cmd_gen12,
    "divisors": _cmd_divisors,
    "theorems": _cmd_theorems,
    "points": _cmd_points,
    "exponent": _cmd_exponent,
}


def _emit_plain(report: dict, out) -> None:
    for key in sorted(report):
        if key == "schema_version":
            continue
        out.write(f"{key}: {json.dumps(report[key], sort_keys=True)}\n")


def _emit_csv(report: dict, out) -> None:
    out.write("count,multiplicity\n")
    for row in report["rows"]:
        out.write(f"{row['count']},{row['multiplicity']}\n")


def run(config: RunConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    if config.output not in ("json", "csv", "plain"):
        raise ValidationError(f"unknown output format {config.output!r}")
    if config.output == "csv" and config.command != "spectrum":
        raise ValidationError("CSV output is only available for spectrum")
    if config.worker_count < 1:
        raise ValidationError("workers must be positive")
    cpus = os.cpu_count() or 1
    if config.worker_count > cpus:
        raise ValidationError(f"workers must be at most the CPU count {cpus}")
    report = _DISPATCH[config.command](config)
    if config.output == "json":
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    elif config.output == "csv":
        _emit_csv(report, out)
    else:
        _emit_plain(report, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apn-forge",
        description="phi-surfaces, differential spectra and exceptionality "
        "criteria for polynomials over gf(2^m)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, poly=True, field=True):
        p = sub.add_parser(name, help=help_text)
        if field:
            p.add_argument("--field", required=False, help="gf(2^m) or gf(2^m)/0xHEX")
        if poly:
            p.add_argument("--f", required=False, help="polynomial in x, hex coefficients")
        p.add_argument("--output", default="json", choices=["json", "csv", "plain"])
        p.add_argument("--workers", type=int, default=1)
        return p

    add("field", "describe a field", poly=False)
    add("phi", "build the phi-surface of f")
    add("spectrum", "differential spectrum of f over its field")
    p = add("apn", "APN status of f over a range of extensions")
    p.add_argument("--n", required=False, help="extension range, N or A..B")
    add("classify12", "degree-12 family membership with witness")
    p = add("gen12", "generate a degree-12 family member", poly=False)
    p.add_argument("--kind", choices=[criteria.CUBE_OF_L, criteria.L_OF_CUBE])
    p.add_argument("--param", help="trace-zero element of gf(2^(3m)), hex")
    p.add_argument("--l1", help="q-affine tail over the base field")
    add("divisors", "cubic divisors of phi over the cubic extension")
    add("theorems", "which non-exceptionality criterion applies to f")
    add("points", "brute-force surface check against the spectrum")
    p = add("exponent", "classify a power-function exponent", poly=False, field=False)
    p.add_argument("t", type=int)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        field_spec=getattr(args, "field", None),
        f_text=getattr(args, "f", None),
        n_range=_parse_n_range(args.n) if getattr(args, "n", None) else None,
        output=args.output,
        worker_count=args.workers,
        kind=getattr(args, "kind", None),
        param_hex=getattr(args, "param", None),
        l1_text=getattr(args, "l1", None),
        t=getattr(args, "t", None),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(config_from_args(args))
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
