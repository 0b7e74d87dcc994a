"""Command line interface.

Exit codes: 0 for success / affirmative verdicts, 1 for negative verdicts,
2 for usage or input errors.  Wherever a file path is accepted, the matrix
text itself may be passed inline instead.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .closure import decide, dump_tableau, load_tableau, verify_tableau
from .degeneracy import degeneracy_class, is_trivial
from .enumeration import (
    ANCHORS,
    CheckpointError,
    canonical,
    classify,
    subposet_by_localization,
)
from .export import dump_dot, dump_poset
from .localization import is_admissible, loc_equal, localize
from .matrix import MatrixParseError, maltsev_condition, normalize, parse_matrix


def _read_matrix(arg):
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    else:
        text = arg
    return parse_matrix(text)


def _anchor_or_matrix(arg):
    if arg in ANCHORS:
        return ANCHORS[arg]
    return _read_matrix(arg)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mclex",
        description="decision procedures for matrix properties of pointed categories",
    )
    parser.add_argument("--version", action="version", version=f"mclex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="does the lhs set imply every rhs matrix")
    p.add_argument("--lhs", action="append", required=True, metavar="MATRIX")
    p.add_argument("--rhs", action="append", required=True, metavar="MATRIX")
    p.add_argument("--tableau", metavar="OUT.json", help="write certificate tableaux")

    p = sub.add_parser("degeneracy", help="trivial / anti-trivial / proper")
    p.add_argument("matrix")

    p = sub.add_parser("canonical", help="canonical class representative")
    p.add_argument("matrix")
    p.add_argument("--window", nargs=3, type=int, metavar=("N", "M", "K"))

    p = sub.add_parser("normalize", help="entry-level normal form")
    p.add_argument("matrix")

    p = sub.add_parser("loc", help="localized matrix")
    p.add_argument("matrix")

    p = sub.add_parser("loc-equal", help="same property on localizations")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("admissible", help="admissible pair (matrix, variable)")
    p.add_argument("matrix")
    p.add_argument("x", type=int)

    p = sub.add_parser("enumerate", help="classes of a dimension window")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--out", metavar="POSET.json")
    p.add_argument("--dot", metavar="HASSE.dot")
    p.add_argument("--subposet-loc", metavar="ANCHOR")
    p.add_argument("--checkpoint", metavar="DIR")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--progress", action="store_true")

    p = sub.add_parser("check-tableau", help="replay a tableau certificate")
    p.add_argument("tableau")

    p = sub.add_parser("oracle-check", help="cross-check engine against the oracle")
    p.add_argument("--level", choices=["fast", "full"], default="fast")

    p = sub.add_parser("maltsev-condition", help="print the defining equations")
    p.add_argument("matrix")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (MatrixParseError, CheckpointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args):
    if args.command == "decide":
        lhs = [_read_matrix(a) for a in args.lhs]
        rhs = [_read_matrix(a) for a in args.rhs]
        verdict, tableaux = decide(lhs, rhs, record=bool(args.tableau))
        print("yes" if verdict else "no")
        if args.tableau and not tableaux:
            # decide short-circuits on a trivial hypothesis, with no saturation
            print(f"note: no tableau written to {args.tableau}: a hypothesis is "
                  "trivial, so the implication holds without a certificate",
                  file=sys.stderr)
        if args.tableau and tableaux:
            if len(tableaux) == 1:
                dump_tableau(tableaux[0], args.tableau)
            else:
                base, ext = os.path.splitext(args.tableau)
                for i, t in enumerate(tableaux):
                    dump_tableau(t, f"{base}.{i}{ext or '.json'}")
        return 0 if verdict else 1

    if args.command == "degeneracy":
        kind = degeneracy_class(_read_matrix(args.matrix))
        print(kind.value)
        return 0

    if args.command == "canonical":
        M = _read_matrix(args.matrix)
        window = tuple(args.window) if args.window else None
        print(canonical(M, window).text())
        return 0

    if args.command == "normalize":
        print(normalize(_read_matrix(args.matrix)).text())
        return 0

    if args.command == "loc":
        print(localize(_read_matrix(args.matrix)).text())
        return 0

    if args.command == "loc-equal":
        same = loc_equal(_anchor_or_matrix(args.a), _anchor_or_matrix(args.b))
        print("yes" if same else "no")
        return 0 if same else 1

    if args.command == "admissible":
        M = _read_matrix(args.matrix)
        witness = is_admissible(M, args.x)
        if witness is None:
            print("no")
            return 1
        print(f"yes: left column {witness.column + 1}")
        return 0

    if args.command == "enumerate":
        if args.workers < 1:
            raise ValueError(f"--workers {args.workers}: needs at least 1")
        want_order = bool(args.out or args.dot)
        graph = classify(
            args.n,
            args.m,
            args.k,
            with_order=want_order,
            with_groups=want_order,
            checkpoint_dir=args.checkpoint,
            workers=args.workers,
            progress=(lambda shape, total: print(f"  shape {shape}: {total} classes", file=sys.stderr))
            if args.progress
            else None,
        )
        print(f"classes: {len(graph.classes)}")
        if args.subposet_loc:
            anchor = _anchor_or_matrix(args.subposet_loc)
            nodes, _edges, _reduced = subposet_by_localization(
                graph.classes, anchor, workers=args.workers
            )
            print(f"subposet ({args.subposet_loc}): {len(nodes)} classes")
        if args.out:
            dump_poset(graph, args.out)
        if args.dot:
            dump_dot(graph, args.dot)
        return 0

    if args.command == "check-tableau":
        proof = load_tableau(args.tableau)
        ok, bad = verify_tableau(proof)
        if ok:
            print("valid")
            return 0
        print(f"invalid at step {bad}")
        return 1

    if args.command == "oracle-check":
        ok = _oracle_check(args.level == "full")
        return 0 if ok else 1

    if args.command == "maltsev-condition":
        print(maltsev_condition(_read_matrix(args.matrix)))
        return 0

    raise ValueError(f"unknown command {args.command}")


def _oracle_check(full):
    """Cross-validate the syntactic tests and the closure engine against the
    exhaustive semantic oracle on a sweep of small matrices."""
    from . import oracle
    from .closure import encode_column, saturate
    from .enumeration import candidate_stream
    from .matrix import matrix

    failures = []

    def check(name, cond):
        print(f"{'PASS' if cond else 'FAIL'}  {name}")
        if not cond:
            failures.append(name)

    # triviality against two-element functionality and forbidden reductions
    limit = (3, 3, 2) if not full else (3, 4, 2)
    count = 0
    agree_fn = agree_red = True
    for rows in candidate_stream(*limit):
        M = matrix(rows)
        t = is_trivial(M)
        if t != (not oracle.is_functional(M, 2)):
            agree_fn = False
        if t != oracle.has_forbidden_reduction(M):
            agree_red = False
        count += 1
    check(f"triviality == non-functionality on 2 points ({count} matrices)", agree_fn)
    check(f"triviality == forbidden reduction present ({count} matrices)", agree_red)

    # saturation against the oracle's reflection
    agree_refl = True
    window = (2, 2, 1)
    cands = [matrix(r) for r in candidate_stream(*window)]
    for M in cands:
        for N in cands:
            base = N.k + 1
            mask, _ = saturate([M], N, stop_at_goal=False)
            R0 = oracle.alphabet_relation(
                N.k, N.n, [N.left_column(j) for j in range(N.m)] + [(0,) * N.n]
            )
            refl = oracle.reflect(R0, [M])
            mask2 = 0
            for t in refl.tuples:
                mask2 |= 1 << encode_column(t, base)
            if mask != mask2:
                agree_refl = False
    check(f"saturation == oracle reflection ({len(cands)}^2 pairs)", agree_refl)

    if full:
        # anti-triviality against the witness-relation test
        agree_anti = True
        from .degeneracy import is_anti_trivial

        for rows in candidate_stream(3, 3, 2):
            M = matrix(rows)
            if is_anti_trivial(M) != oracle.set_star_has_closed_relations(M):
                agree_anti = False
        check("anti-triviality == pointed-set closedness", agree_anti)

    print("oracle-check:", "ok" if not failures else f"{len(failures)} failure(s)")
    return not failures


if __name__ == "__main__":
    sys.exit(main())
