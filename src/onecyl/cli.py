"""Command-line interface: every operation plus the desk-scale check suite."""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance
from .conditions import RedDecomposition, WeakSplit, condition_star, is_irreducible, red_condition, weak_reducibility
from .classify import (
    MoveConfig,
    bubble,
    component_report,
    enumerate_stratum,
    enumerate_type,
    excise_simple_cylinder,
)
from .errors import OneCylError
from .genperm import CALIBRATED_SYM, GeneralizedPermutation, SymmetryGroup
from .strata import SingularityPattern, hyperelliptic_rep, irreducible_rep, match_component, singularity_pattern
from .suspension import (
    check_admissible,
    cylinder_decomposition,
    lam_from_positions,
    sample_admissible,
    separatrix_spectrum,
    simple_cylinder_angle,
    sl2z_orbit,
    vertical_permutation,
)


MOVES = "vperm,orbit,excise,decode"


def _parse_sym(text: str | None) -> SymmetryGroup:
    if text is None:
        return CALIBRATED_SYM
    flags = {t.strip() for t in text.split(",") if t.strip()}
    unknown = flags - {"relabel", "rotate", "swap", "reverse"}
    if unknown:
        raise OneCylError("unknown symmetry flags: %s" % ", ".join(sorted(unknown)))
    return SymmetryGroup(
        rotate_rows="rotate" in flags,
        swap_rows="swap" in flags,
        reverse_rows="reverse" in flags,
    )


def _parse_lambda(gp: GeneralizedPermutation, text: str | None, seed: int) -> tuple[int, ...]:
    """Lengths as 'letter=value' pairs, a position list, or sampled."""
    if text is None:
        return sample_admissible(gp, seed=seed)
    if "=" in text:
        by_name = {name: i for i, name in enumerate(gp.names)}
        try:
            items = [item.split("=") for item in text.split(",")]
            given = {by_name[name.strip()]: int(value) for name, value in items}
        except (KeyError, ValueError):
            raise OneCylError(
                "--lengths needs 'letter=value' pairs over the letters %s, got %r" % (" ".join(gp.names), text)
            ) from None
        if len(given) < len(items):
            raise OneCylError("--lengths gives a letter twice: %r" % text)
        lam = [given.get(i, 1) for i in range(gp.num_letters)]  # letters left out have length 1
        return check_admissible(gp, lam)
    values = _parse_ints(text, "--lengths")
    return lam_from_positions(gp, values)


def _parse_type(text: str) -> tuple[int, int]:
    try:
        r, l = (int(v) for v in text.split(","))
    except ValueError:
        raise OneCylError("--type needs two integers 'r,l', got %r" % text) from None
    return r, l


def _parse_ints(text: str, option: str) -> list[int]:
    """Integers separated by commas or spaces."""
    try:
        return [int(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise OneCylError("%s needs integers, got %r" % (option, text)) from None


def _parse_pattern(text: str) -> tuple[int, ...]:
    """Singularity orders of a stratum, descending; BadPattern when they name none."""
    return SingularityPattern.from_orders(_parse_ints(text, "--pattern")).orders


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        payload.setdefault("schema", "1")
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _witness_json(gp: GeneralizedPermutation, w: WeakSplit | RedDecomposition | None) -> dict | None:
    """A weak or Red certificate as JSON, its pivot letter named as the user wrote it."""
    if isinstance(w, RedDecomposition):
        return dict(w.__dict__, zero_letter=gp.names[w.zero_letter - 1])
    return None if w is None else w.__dict__


def _global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # attached both before and after the subcommand; the late copy only
    # overrides when actually given
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text",
        **({"default": d} if suppress else {"default": False}),
    )
    parser.add_argument("--seed", type=int, default=d if suppress else 0, help="seed for sampled lengths")
    parser.add_argument("--sym", default=d, help="symmetry flags: relabel,rotate[,swap][,reverse]")
    parser.add_argument("--limit", type=int, default=d if suppress else 16, help="enumeration size guard")
    parser.add_argument("--budget", type=int, default=d if suppress else 8192, help="search budget")


def main(argv: list[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    _global_options(common, suppress=True)
    parser = argparse.ArgumentParser(
        prog="onecyl",
        description="One-cylinder half-translation surfaces via generalized permutations",
    )
    _global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("parse", help="validate a permutation and report its type")
    p.add_argument("perm")

    p = sub.add_parser("stratum", help="singularity pattern of the suspension")
    p.add_argument("perm")

    p = sub.add_parser("check", help="combinatorial conditions")
    p.add_argument("which", choices=["weak", "red", "star", "irreducible"])
    p.add_argument("perm")

    for name, _help in [
        ("suspend", "admissible vector and width"),
        ("spectrum", "vertical separatrix lengths"),
        ("decompose", "vertical cylinder decomposition"),
        ("angle", "simple cylinder sector angles"),
        ("vperm", "vertical-direction permutation"),
        ("orbit", "PSL(2,Z) orbit size of the covering"),
    ]:
        p = sub.add_parser(name, help=_help)
        p.add_argument("perm")
        p.add_argument("--lengths", help="per-letter 'a=2,b=1' or position list")
        if name == "orbit":
            p.add_argument("--cap", type=int, default=10000)

    p = sub.add_parser("enumerate", help="canonical classes of a type or stratum")
    p.add_argument("--type", dest="rl", help="r,l")
    p.add_argument("--pattern", help="orders, e.g. '8' or '-1,5'")

    p = sub.add_parser("classify", help="component report for a stratum")
    p.add_argument("--pattern", required=True, help="orders, e.g. '8' or '--pattern=-1,5'")
    p.add_argument("--moves", default="vperm,orbit", help="any of %s; vperm always runs" % MOVES)

    p = sub.add_parser("excise", help="remove a simple head cylinder")
    p.add_argument("perm")

    p = sub.add_parser("bubble", help="search a handle-sum representative")
    p.add_argument("perm")
    p.add_argument("s", type=int)

    p = sub.add_parser("rep", help="named representative families")
    p.add_argument("family", choices=["pi1", "pi2", "pi1a", "irr"])
    p.add_argument("params", nargs="+", help="r l [a] or an irreducible name")

    p = sub.add_parser("reproduce-appendix", help="run the full check suite")
    p.add_argument("--only", help="run checks whose id contains this string")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except OneCylError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    sym = _parse_sym(args.sym)
    if "perm" in args:
        gp = GeneralizedPermutation.parse(args.perm)
    if "lengths" in args:
        lam = _parse_lambda(gp, args.lengths, args.seed)

    if args.command == "parse":
        r, l = gp.type
        _emit(
            args,
            {"perm": gp.render(), "type": [r, l], "letters": gp.num_letters, "abelian": gp.is_abelian()},
            "%s  type (%d,%d), %d letters%s"
            % (gp.render(), r, l, gp.num_letters, ", abelian" if gp.is_abelian() else ""),
        )
        return 0

    if args.command == "stratum":
        pat = singularity_pattern(gp)
        _emit(args, pat.as_json(), "%s g=%d dim=%d" % (pat.render(), pat.genus, pat.dimension))
        return 0

    if args.command == "check":
        if args.which == "star":
            v = condition_star(gp)
            _emit(args, {"verdict": v}, "condition (*): %s" % v)
            return 0
        if args.which == "weak":
            w = weak_reducibility(gp)
            verdict = "weakly-reducible" if w else "weakly-irreducible"
            human = verdict + (" %s" % (w,) if w else "")
        elif args.which == "red":
            w = red_condition(gp)
            verdict = "violated" if w else "satisfied"
            human = "Red %s" % verdict + ("" if w is None else " %s" % (w,))
        else:
            outcome = is_irreducible(gp)
            w, verdict, human = outcome.witness, outcome.status, outcome.status
        _emit(args, {"verdict": verdict, "witness": _witness_json(gp, w)}, human)
        return 0

    if args.command == "suspend":
        w = sum(lam[x - 1] for x in gp.top)
        _emit(
            args,
            {"lengths": {gp.names[i]: lam[i] for i in range(len(lam))}, "width": w},
            "lambda = %s, width %d" % (" ".join("%s=%d" % (gp.names[i], lam[i]) for i in range(len(lam))), w),
        )
        return 0

    if args.command == "spectrum":
        spec = separatrix_spectrum(gp, lam)
        _emit(
            args,
            {"segments": spec.as_json()},
            " ".join("%d%s" % (s.crossings, "*" if s.is_gamma else "") for s in spec.segments),
        )
        return 0

    if args.command == "decompose":
        dec = cylinder_decomposition(gp, lam)
        _emit(
            args,
            dec.as_json(),
            "; ".join(
                "cyl width %d circ %d%s" % (c.width, c.circumference, " simple" if c.simple else "")
                for c in dec.cylinders
            ),
        )
        return 0

    if args.command == "angle":
        dec = cylinder_decomposition(gp, lam)
        found = []
        for cyl in dec.cylinders:
            if cyl.simple:
                try:
                    found.append(simple_cylinder_angle(gp, lam, cyl))
                except OneCylError:
                    continue
        _emit(
            args,
            {"angles": [list(a) for a in found]},
            "; ".join("s=%d (complement %d)" % a for a in found) or "no simple cylinder",
        )
        return 0

    if args.command == "vperm":
        vg, vlam = vertical_permutation(gp, lam)
        _emit(
            args,
            {"perm": vg.render(), "lengths": list(vlam)},
            "%s with lambda %s" % (vg.render(), list(vlam)),
        )
        return 0

    if args.command == "orbit":
        result = sl2z_orbit(gp, lam, cap=args.cap)
        _emit(
            args,
            {"size": len(result), "truncated": result.truncated},
            "orbit size %d%s" % (len(result), " (truncated)" if result.truncated else ""),
        )
        return 0

    if args.command == "enumerate":
        if args.rl:
            r, l = _parse_type(args.rl)
            pattern = _parse_pattern(args.pattern) if args.pattern is not None else None
            classes = enumerate_type(r, l, pattern=pattern, sym=sym, size_limit=args.limit)
        elif args.pattern is not None:
            classes = enumerate_stratum(_parse_pattern(args.pattern), sym=sym, size_limit=args.limit)
        else:
            raise OneCylError("enumerate needs --type r,l or --pattern orders")
        _emit(
            args,
            {"count": len(classes), "classes": [gp.render() for gp in classes]},
            "\n".join(gp.render() for gp in classes) + ("\n%d classes" % len(classes)),
        )
        return 0

    if args.command == "classify":
        moves = {m.strip() for m in args.moves.split(",")}
        if not moves <= set(MOVES.split(",")):
            raise OneCylError("--moves takes names from %s, got %r" % (MOVES, args.moves))
        pattern = _parse_pattern(args.pattern)
        config = MoveConfig(
            use_orbits="orbit" in moves,
            use_excisions="excise" in moves,
            substratum_connected="excise" in moves,
            orbit_decode_cap=3000 if "decode" in moves else 0,
            size_limit=args.limit,
        )
        report = component_report(pattern, config, sym=sym)
        _emit(
            args,
            report.as_json(),
            report.as_tsv()
            + "\nbounds: %d <= components <= %d" % (report.lower_bound, report.upper_bound),
        )
        return 0

    if args.command == "excise":
        restricted, s = excise_simple_cylinder(gp)
        _emit(
            args,
            {"restricted": restricted.render(), "angle": s,
             "pattern": singularity_pattern(restricted).as_json()},
            "%s  angle %d" % (restricted.render(), s),
        )
        return 0

    if args.command == "bubble":
        result = bubble(gp, args.s, budget=args.budget, sym=sym)
        _emit(args, {"perm": result.render()}, result.render())
        return 0

    if args.command == "rep":
        if args.family == "irr":
            if len(args.params) != 1:
                raise OneCylError("rep irr needs one name, got %r" % " ".join(args.params))
            gp = irreducible_rep(args.params[0])
        else:
            values = _parse_ints(" ".join(args.params), "rep %s" % args.family)
            names = "r l a" if args.family == "pi1a" else "r l"
            if len(values) != len(names.split()):
                raise OneCylError("rep %s needs %s, got %r" % (args.family, names, " ".join(args.params)))
            gp = hyperelliptic_rep(args.family, *values)
        tag = match_component(gp, sym)
        pat = singularity_pattern(gp)
        _emit(
            args,
            {"perm": gp.render(), "pattern": pat.as_json(), "tag": tag.label()},
            "%s  %s  %s" % (gp.render(), pat.render(), tag.label()),
        )
        return 0

    if args.command == "reproduce-appendix":
        results = acceptance.run_checks(only=args.only)
        if not results:
            raise OneCylError("--only %r matches no check id" % args.only)
        failed = 0
        for res in results:
            status = res.status.upper()
            failed += res.status == "fail"
            if args.json:
                continue
            print("[%s] %s: expected %s, got %s (%s)" % (status, res.check_id, res.expected, res.actual, res.provenance))
        if args.json:
            print(json.dumps({"schema": "1", "checks": [res.as_json() for res in results]}, sort_keys=True))
        else:
            print("%d checks, %d failed" % (len(results), failed))
        return 1 if failed else 0

    raise AssertionError("unhandled command %r" % args.command)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
