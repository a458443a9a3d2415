"""Command-line front end.

Subcommands mirror the pipeline stages: ``decompose``, ``picard``,
``amplecone``, ``bauer`` consume a model JSON file; ``surface``, ``reduce``,
``funddomain``, ``verify``, ``render`` take inline arguments.  All reports
are JSON (rationals as "p/q" strings, integer vectors as plain numbers);
``render`` emits an SVG picture of the cone, the candidate domain, and its
translates.  Rational arguments (``--a``, ``--b``, ``--ray``, ``--pi``,
``--g``) are only split on "," and ";" here; the library reads each entry,
with its own checks and its bound on exponents.  Exit codes: 0 success, 1 a
verification report came back false, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import abelian, reduction
from .errors import AmpleconesError, UnsupportedDimension, _format_coordinate
from .polyhedral import PolyhedralCone
from .scalars import is_squarefree, squarefree_part

_DEFAULT_SEED = 0
_DEFAULT_SAMPLES = 500
_DEFAULT_MAX_WORD = 12
# bound on --k-range and --max-word: the translate table builds a row only
# when it is read, but render reads all 2 * bound + 1, and so does verify
# when every translate overlaps pi (the scalar action, or a ray of pi fixed
# by g) or a point lies far out; their integers grow linearly in bits, so
# that work is quadratic in the bound
_MAX_WORD = 64
# bound on --samples: a sample of the d = 2 domain costs about 1 microsecond,
# so a run stays well under a second
_MAX_SAMPLES = 100_000


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(payload: dict, output: str | None, hint: str = "") -> None:
    try:
        text = json.dumps(payload, indent=2, ensure_ascii=False)
    except ValueError:
        # the only ValueError json.dumps can raise on these payloads is the
        # interpreter's bound on int-to-text conversion, which stays as set
        limit = sys.get_int_max_str_digits()
        raise AmpleconesError(
            f"cannot print the report: it holds an integer of more than {limit} "
            f"digits, Python's limit for printing integers{hint}"
        ) from None
    _emit(text + "\n", output)


def _load_model(path: str) -> abelian.AbelianVarietyModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise AmpleconesError(f"cannot read model file {path!r}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        raise AmpleconesError(f"malformed JSON in {path!r}: {exc}") from None
    return abelian.model_from_json_dict(data)


def _blocks_report(model) -> dict:
    blocks = abelian.endo_real_decomposition(model).blocks
    return {"blocks": [{"kind": b.kind.value, "size": b.size, "origin": b.origin} for b in blocks]}


def _cone_report(model) -> dict:
    spec = abelian.ample_cone(model)
    blocks = [
        {"type": "pd", "kind": b.kind.value, "size": b.size, "dim": b.dimension}
        for b in spec.blocks
    ]
    return {"dimension": spec.dimension, "blocks": blocks}


# the subcommands that read a model file: name -> (help, report of the model)
_MODEL_REPORTS = {
    "decompose": ("matrix blocks of the real endomorphism algebra", _blocks_report),
    "picard": ("Picard number of a model", lambda m: {"picard_number": abelian.picard_number(m)}),
    "amplecone": ("ample cone block structure of a model", _cone_report),
    "bauer": (
        "is the nef cone rational polyhedral?",
        lambda m: {"rational_polyhedral": abelian.bauer_rational_polyhedral(m)},
    ),
}


def _cmd_model(args) -> int:
    _, report = _MODEL_REPORTS[args.command]  # argparse stores the subcommand's name
    _emit_json(report(_load_model(args.model)), args.output)
    return 0


def _sqrt_text(n: int) -> str:
    s, d = squarefree_part(n)
    if d == 1:
        return str(s)
    prefix = "" if s == 1 else str(s)
    return f"{prefix}√{d}"


def _cmd_surface(args) -> int:
    data = abelian.surface_nef_data(args.a, args.b)
    if data.rational_polyhedral:
        rays = [list(r) for r in data.rays]
    else:
        ratio = data.a / data.b
        rays = f"v1 ± ({_sqrt_text(ratio.numerator)}/{_sqrt_text(ratio.denominator)}) v2"
    _emit_json({"rational_polyhedral": data.rational_polyhedral, "rays": rays}, args.output)
    return 0


def _cmd_reduce(args) -> int:
    parts = args.form.split(",")
    if len(parts) != 3:
        raise AmpleconesError("--form wants three integers g11,g12,g22")
    # an integer past the int-to-text limit is named by its length: echoing
    # it would print thousands of digits, and the limit stays as set
    limit = sys.get_int_max_str_digits()
    for index, part in enumerate(parts, 1):
        text = part.strip().replace("_", "")
        digits = text[1:] if text[:1] in ("+", "-") else text
        if limit and digits.isdecimal() and len(digits) > limit:
            raise AmpleconesError(
                f"--form entry {index} has {len(digits)} digits, more than {limit}, "
                "Python's limit for reading integers"
            )
    try:
        g11, g12, g22 = (int(p) for p in parts)
    except ValueError:
        # quoted, and cut to a prefix and its length when it is long
        raise AmpleconesError(
            f"--form entries must be integers: {_format_coordinate(args.form)}"
        ) from None
    gred, u = reduction.minkowski_reduce(reduction.IntegralForm(g11, g12, g22))
    _emit_json(
        {"gred": [gred.g11, gred.g12, gred.g22], "u": u.rows()}, args.output
    )
    return 0


def _require_squarefree_d(d: int) -> None:
    if d < 2 or not is_squarefree(d):
        raise AmpleconesError(f"--d must be a squarefree integer >= 2, got {d}")


def _require_range(flag: str, value: int, low: int, high: int = _MAX_WORD) -> None:
    if not low <= value <= high:
        raise AmpleconesError(f"{flag} must be between {low} and {high}, got {value}")


def _require_sampling(args) -> None:
    _require_range("--max-word", args.max_word, 1)
    _require_range("--samples", args.samples, 1, _MAX_SAMPLES)


def _funddomain_pieces(args):
    _require_squarefree_d(args.d)
    ray = args.ray.split(",")
    if len(ray) != 2:
        raise AmpleconesError("--ray wants two coordinates x1,x2")
    return abelian.real_mult_fundamental_domain(args.d, ray)


def _cmd_funddomain(args) -> int:
    _require_sampling(args)
    pi, action = _funddomain_pieces(args)
    report = reduction.verify_fundamental_domain(
        pi, action, samples=args.samples, max_word=args.max_word, seed=args.seed
    )
    payload = {
        "pi": pi.to_json(),
        "g": action.generator_json(),
        "report": report.to_json_dict(),
    }
    # the generator, and so both rays of pi, grow with the fundamental unit
    _emit_json(payload, args.output, hint="; use a smaller --d")
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    _require_sampling(args)
    _require_squarefree_d(args.d)
    rays = [chunk.split(",") for chunk in args.pi.split(";") if chunk]
    if not rays:
        raise AmpleconesError("--pi wants rays like '1,0;3,2'")
    pi = PolyhedralCone(2, rays)
    if args.g is not None:
        g = args.g.split(",")
        if len(g) != 4:
            raise AmpleconesError("--g wants four entries a,b,c,d (row major)")
        action = reduction.GroupAction2D([g[:2], g[2:]], 1, args.d)
    else:
        _, action = abelian.real_mult_fundamental_domain(args.d, pi.rays[0])
    report = reduction.verify_fundamental_domain(
        pi, action, samples=args.samples, max_word=args.max_word, seed=args.seed
    )
    _emit_json(report.to_json_dict(), args.output)
    return 0 if report.ok else 1


def render_svg(pi: PolyhedralCone, g: reduction.GroupAction2D, k_range: int) -> str:
    """Picture of the quadratic cone with pi shaded and its translates
    g^k pi for |k| <= k_range; deterministic bytes for fixed inputs.

    One <path> wedge per translate (2*k_range + 1 in total, 0 <= k_range
    <= 64) plus two boundary <line> elements along the float slopes
    +-sqrt(a/b).
    """
    if pi.dim != 2:
        raise UnsupportedDimension("rendering draws planar cones only")
    _require_range("--k-range", k_range, 0)
    width = height = 420.0
    origin_x, origin_y = 30.0, height / 2.0
    radius = 360.0

    def to_screen(direction) -> tuple[float, float]:
        dx, dy = float(direction[0]), float(direction[1])
        scale = radius / math.hypot(dx, dy)
        return origin_x + scale * dx, origin_y - scale * dy

    def fmt(x: float) -> str:
        return f"{x:.3f}"

    slope = math.sqrt(float(g.a) / float(g.b))
    lines = []
    for sign in (1, -1):
        x, y = to_screen((1.0, sign * slope))
        lines.append(
            f'<line x1="{fmt(origin_x)}" y1="{fmt(origin_y)}" '
            f'x2="{fmt(x)}" y2="{fmt(y)}" stroke="#333333" stroke-width="1.5"/>'
        )
    wedges = []
    rows = reduction._Translates(g, pi.rays)
    for k in range(-k_range, k_range + 1):
        rays = rows[k]
        # a common shift by a power of two keeps huge integer directions
        # within float range; smaller ones are drawn unshifted
        shifts = [max(0, max(map(abs, r)).bit_length() - 1023) for r in rays]
        pts = [to_screen((r[0] >> s, r[1] >> s)) for r, s in zip(rays, shifts)]
        fill = "#e05a33" if k == 0 else ("#7a9ec9" if k % 2 else "#b8cde3")
        path = (
            f'M {fmt(origin_x)},{fmt(origin_y)} '
            + " ".join(f"L {fmt(x)},{fmt(y)}" for x, y in pts)
            + " Z"
        )
        wedges.append(
            f'<path d="{path}" fill="{fill}" fill-opacity="0.65" '
            f'stroke="#1f3551" stroke-width="0.6"/>'
        )
    body = "\n".join(wedges + lines)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">\n'
        f"{body}\n</svg>\n"
    )


def _cmd_render(args) -> int:
    pi, action = _funddomain_pieces(args)
    _emit(render_svg(pi, action, args.k_range), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amplecones",
        description="Exact cones, reduction, and fundamental domains for abelian varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", help="write the report here instead of stdout")

    def add_sampling(p):
        p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
        p.add_argument(
            "--samples", type=int, default=_DEFAULT_SAMPLES, help=f"1 to {_MAX_SAMPLES}"
        )
        p.add_argument("--max-word", dest="max_word", type=int, default=_DEFAULT_MAX_WORD)

    for name, (summary, _) in _MODEL_REPORTS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--model", required=True, help="model JSON file")
        add_output(p)
        p.set_defaults(func=_cmd_model)

    p = sub.add_parser("surface", help="boundary rays for the form diag(a, -b)")
    p.add_argument("--a", required=True, help="rational like 3/4")
    p.add_argument("--b", required=True, help="rational like 3/4")
    add_output(p)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("reduce", help="reduce a positive-definite binary form")
    p.add_argument("--form", required=True, help="g11,g12,g22")
    add_output(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser(
        "funddomain", help="construct and verify the real-multiplication domain"
    )
    p.add_argument("--d", type=int, required=True, help="squarefree integer >= 2")
    p.add_argument("--ray", default="1,0", help="rational starting ray x1,x2")
    add_sampling(p)
    add_output(p)
    p.set_defaults(func=_cmd_funddomain)

    p = sub.add_parser("verify", help="verify a candidate cone against an action")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--pi", required=True, help="rays like '1,0;3,2'")
    p.add_argument("--g", help="override generator a,b,c,d (row major)")
    add_sampling(p)
    add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="SVG of the cone, the domain, and translates")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ray", default="1,0")
    p.add_argument("--k-range", dest="k_range", type=int, default=3)
    add_output(p)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the input-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (AmpleconesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
