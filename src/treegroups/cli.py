"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 negative verdict (acylindricity
falsified / dichotomy not applicable / witness not certified).  ``--json``
switches to machine-readable reports; all defaults are fixed so outputs are
reproducible.

Each handler imports the layers it uses, so a call loads no other layer.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from . import __version__

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _emit(payload: dict, human: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    else:
        print(human)


def _diameter(region) -> Optional[int]:
    from .tree import region_diameter
    diam = region_diameter(region.members)
    return None if diam == -math.inf else int(diam)


def _region_payload(region, **fields) -> dict:
    return {"center": str(region.center), "radius": region.radius,
            "members": [str(v) for v in region.members],
            "exhaustive_within_radius": region.exhaustive_within_radius,
            "diameter": _diameter(region), **fields}


def _cut_note(region) -> str:
    """The human output's mark of a window cut short of its radius."""
    return "" if region.exhaustive_within_radius else " (window cut: not exhaustive)"


def _cmd_classify(args) -> int:
    from .splitting import load_spec
    from .tree import classify
    spec = load_spec(args.group)
    cls = classify(spec, spec.parse_word(args.element))
    payload = {"element": args.element, "verdict": cls.verdict, "tau": cls.tau,
               "witness_vertex": str(cls.witness_vertex)}
    _emit(payload, f"{cls.verdict} (tau={cls.tau})", args.json)
    return EXIT_OK


def _cmd_tau(args) -> int:
    from .splitting import load_spec
    from .tree import classify
    spec = load_spec(args.group)
    cls = classify(spec, spec.parse_word(args.element))
    _emit({"element": args.element, "tau": cls.tau}, str(cls.tau), args.json)
    return EXIT_OK


def _cmd_fix(args) -> int:
    from .splitting import load_spec
    from .tree import fixed_set, t_set
    spec = load_spec(args.group)
    g = spec.parse_word(args.element)
    if args.max_power is not None:
        region = t_set(spec, g, radius=args.radius, max_power=args.max_power)
        label = f"T({args.element})"
    else:
        region = fixed_set(spec, g, radius=args.radius)
        label = f"Fix({args.element})"
    if args.json:
        _emit(_region_payload(region, element=args.element), "", True)
    else:
        print(f"{label} within radius {args.radius}: "
              f"{len(region.members)} vertices, diameter {_diameter(region)}"
              + _cut_note(region))
    return EXIT_OK


def _cmd_axis(args) -> int:
    from .splitting import load_spec
    from .tree import axis_window, classify
    spec = load_spec(args.group)
    g = spec.parse_word(args.element)
    cls = classify(spec, g)
    region = axis_window(spec, g, radius=args.radius)
    if args.json:
        _emit(_region_payload(region, element=args.element, tau=cls.tau), "", True)
    else:
        print(f"Axis({args.element}) within radius {args.radius}: "
              f"{len(region.members)} vertices, tau={cls.tau}" + _cut_note(region))
    return EXIT_OK


def _cmd_acyl_check(args) -> int:
    from .splitting import load_spec
    from .tree import check_acylindricity
    spec = load_spec(args.group)
    chk = check_acylindricity(spec, args.k, args.length, args.radius)
    payload = {**chk._asdict(), "witness": None if chk.witness is None else str(chk.witness)}
    if chk.falsified:
        _emit(payload, f"falsified: witness {chk.witness} has fixed-set "
                       f"diameter {chk.witness_diameter} > {chk.k}", args.json)
        return EXIT_VERDICT
    _emit(payload, f"consistent with k={chk.k} ({chk.reason})", args.json)
    return EXIT_OK


def _cmd_free_witness(args) -> int:
    from .freeness import (CertificationFailure, semigroup_witness,
                           witness_elliptic_hyperbolic, witness_elliptic_pair,
                           witness_hyperbolic_pair)
    from .splitting import load_spec
    from .tree import classify
    spec = load_spec(args.group)
    g1 = spec.parse_word(args.g1)
    g2 = spec.parse_word(args.g2)
    k = args.k if args.k is not None else spec.declared_k
    if k is None:
        if all(im.is_empty for im in spec.sub_a.image_words):
            k = 0  # trivial edge stabilizers
        else:
            raise CliInputError(
                "an acylindricity constant is required: pass --k or set "
                "declared_k in the splitting spec")
    c1, c2 = classify(spec, g1), classify(spec, g2)
    try:
        if args.semigroup:
            witness = semigroup_witness(spec, g1, g2, args.depth)
        elif not c1.is_hyperbolic and not c2.is_hyperbolic:
            witness = witness_elliptic_pair(spec, k, g1, g2, args.depth)
        elif not c1.is_hyperbolic:
            witness = witness_elliptic_hyperbolic(spec, k, g1, g2, args.depth)
        elif not c2.is_hyperbolic:
            witness = witness_elliptic_hyperbolic(spec, k, g2, g1, args.depth)
        else:
            witness = witness_hyperbolic_pair(spec, k, g1, g2, args.depth)
    except CertificationFailure as exc:
        raise CliInputError(str(exc)) from exc
    payload = witness.to_json_dict()
    payload["k"] = k
    human = (f"{witness.case}: <{witness.generators[0]}, {witness.generators[1]}> "
             f"claims {witness.claim} (power {witness.power_used}, "
             f"certified={witness.certified} at depth {witness.certificate_depth})")
    _emit(payload, human, args.json)
    return EXIT_OK if witness.certified else EXIT_VERDICT


def _cmd_entropy(args) -> int:
    from .growth import (analytic_root_estimate, ball_series, bcg_lower_bound,
                         entropy_from_counts)
    l1, l2 = args.l1, args.l2
    series = ball_series(args.kind, l1, l2, args.radius)
    est = entropy_from_counts(series)
    root_est = analytic_root_estimate(args.kind, l1, l2)
    root = root_est.lower
    payload = {
        "kind": args.kind,
        "weights": [l1, l2],
        "radii": list(series.radii),
        "counts": list(series.counts),
        "estimate": est._asdict(),
        "analytic_root": {"value": root, "residual": root_est.residual},
        "bcg_lower_bound": bcg_lower_bound(l1, l2),
    }
    _emit(payload, f"{args.kind} entropy: root={root:.12g}, "
                   f"count bracket=[{est.lower:.6g}, {est.upper:.6g}]", args.json)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from .bounds import build_bounds_report, compare_case_bounds
    comparison = compare_case_bounds(args.entropy, args.diam, args.k)
    report = build_bounds_report(args.entropy, args.diam, args.k,
                                 n=args.dim, C_n=args.cn, comparison=comparison)
    payload = report.to_json_dict()
    payload["comparison"] = comparison._asdict()
    human = (f"s0={report.s0_general:.6g}  volume>={report.volume_lb:.6g}  "
             f"delta0={report.delta0:.6g}  (k={args.k})")
    _emit(payload, human, args.json)
    return EXIT_OK


def _cmd_dichotomy(args) -> int:
    from .manifolds import classify_manifold, load_manifold, systole_bound_for
    desc = load_manifold(args.manifold)
    verdict = classify_manifold(desc)
    payload = verdict._asdict()  # json writes the conflict_notes tuple as a list
    if verdict.is_acylindrical and args.entropy is not None and args.diam is not None:
        report = systole_bound_for(desc, args.entropy, args.diam, C_n=args.cn)
        payload["bound_report"] = report.to_json_dict()
    if verdict.verdict == "not_applicable":
        _emit(payload, f"not applicable: {verdict.reason}", args.json)
        return EXIT_VERDICT
    human = f"{verdict.verdict} ({verdict.reason})"
    if verdict.k is not None:
        human = f"{verdict.verdict} (k={verdict.k}; {verdict.reason})"
    _emit(payload, human, args.json)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="treegroups",
                     description="group actions on splitting trees: "
                                 "classification, witnesses, growth, bounds")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True):
        if group:
            p.add_argument("--group", required=True, metavar="FILE",
                           help="splitting spec JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("classify", help="elliptic/hyperbolic verdict and tau")
    common(p)
    p.add_argument("--element", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("tau", help="translation length")
    common(p)
    p.add_argument("--element", required=True)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("fix", help="windowed fixed set (or T-set with --max-power)")
    common(p)
    p.add_argument("--element", required=True)
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--max-power", type=int, default=None)
    p.set_defaults(func=_cmd_fix)

    p = sub.add_parser("axis", help="windowed axis of a hyperbolic element")
    common(p)
    p.add_argument("--element", required=True)
    p.add_argument("--radius", type=int, default=8)
    p.set_defaults(func=_cmd_axis)

    p = sub.add_parser("acyl-check", help="falsify or stay consistent with k-acylindricity")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--length", type=int, default=6,
                   help="max edge-group word length to enumerate")
    p.add_argument("--radius", type=int, default=8)
    p.set_defaults(func=_cmd_acyl_check)

    p = sub.add_parser("free-witness", help="construct a certified free-subgroup witness")
    common(p)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--semigroup", action="store_true",
                   help="build the free-semigroup witness instead")
    p.set_defaults(func=_cmd_free_witness)

    p = sub.add_parser("entropy", help="weighted growth: counts, slope, analytic roots")
    common(p, group=False)
    p.add_argument("--l1", type=float, required=True)
    p.add_argument("--l2", type=float, required=True)
    p.add_argument("--kind", choices=("group", "semigroup"), default="group")
    p.add_argument("--radius", type=float, default=15.0)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("bounds", help="closed-form systole/volume/rigidity bounds")
    common(p, group=False)
    p.add_argument("--entropy", type=float, required=True)
    p.add_argument("--diam", type=float, required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--cn", type=float, default=1.0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("dichotomy", help="geometric vs acylindrical decision")
    common(p, group=False)
    p.add_argument("manifold", metavar="FILE")
    p.add_argument("--entropy", type=float, default=None)
    p.add_argument("--diam", type=float, default=None)
    p.add_argument("--cn", type=float, default=1.0)
    p.set_defaults(func=_cmd_dichotomy)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
