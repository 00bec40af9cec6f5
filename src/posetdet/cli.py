"""Batch verification front end.

Each identity family maps to one "verify" argument.  Every check prints
one report line; the process exits 0 when everything passes, 1 on an
identity violation, and 2 on invalid input (including a digraph that
fails the nonintersecting-family hypothesis).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import randgen
from .chromatic import JOIN_MATRIX_MAX, JOIN_MATRIX_MIN, verify_chromatic_join_det
from .identities import (
    FAIL,
    HYPOTHESIS_FAILED,
    IdentityReport,
    _holder_mismatch,
    _kth_root_config,
    _ramanujan_config,
    fail_unless,
    gcd_matrix,
    incidence_matrix,
    incidence_product_det,
    incidence_product_matrix,
    is_factor_closed,
    make_report,
    meet_closed_det,
    meet_closed_matrix,
    meet_matrix,
    meet_matrix_det,
    product_matrix_invertible,
    product_matrix_positive_definite,
    scale_by_source,
    totient_product,
)
from .lgv import (
    digraph_from_dict,
    nonintersecting_weights,
    stembridge_matrix,
    three_layer_digraph,
    verify_stembridge,
)
from .matrix import det_and_leading_minors, det_bareiss
from .poset import (
    MAX_ELEMENTS,
    Poset,
    _check_values,
    mobius_function,
    poset_from_dict,
    zeta_function,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
# Trial factorisation (arith) is meant for values up to about 10**6.
SET_VALUE_MAX = 10**6
# The most divisors of any value up to SET_VALUE_MAX (720720 has 240), so
# the divisor set of every value in range fits; the GCD matrix det is cubic.
SET_SIZE_MAX = 240


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_poset(path: str) -> Poset:
    return poset_from_dict(_load_json(path))


def _parse_set(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"--set must be comma-separated integers, got {text!r}")


def _check_product(p: Poset, f, g, det, name: str) -> IdentityReport:
    """Report on det, the determinant of the product matrix of f and g on p."""
    report = make_report(name, p.n, det, incidence_product_det(p, f, g))
    invertible_ok = product_matrix_invertible(p, f, g) == (det != 0)
    return fail_unless(report, invertible_ok, "(invertibility predicate disagrees with det)")


def _check_meet(p: Poset, f, name: str) -> IdentityReport:
    return make_report(name, p.n, det_bareiss(meet_matrix(p, f)), meet_matrix_det(p, f))


def _random_case(rng, max_size: int, p: Poset | None = None):
    """(p, f, g): a random poset of size 1..max_size unless p is given,
    then two random incidence functions on it, drawn in that order."""
    if p is None:
        p = randgen.random_poset(rng, rng.randint(1, max_size))
    return p, randgen.random_incidence(rng, p), randgen.random_incidence(rng, p)


def run_main(args, rng, cases, file_cases, max_size) -> list[IdentityReport]:
    poset = _load_poset(args.poset) if args.poset is not None else None
    reports = []
    for _ in range(cases if poset is None else file_cases):
        p, f, g = _random_case(rng, max_size, poset)
        det = det_bareiss(incidence_product_matrix(p, f, g))
        reports.append(_check_product(p, f, g, det, "main"))
    return reports


def run_weighted(args, rng, cases, max_size) -> list[IdentityReport]:
    reports = []
    for _ in range(cases):
        p, f, g = _random_case(rng, max_size)
        fw = randgen.random_weights(rng, p.n)
        gw = randgen.random_weights(rng, p.n)
        f, g = scale_by_source(f, fw), scale_by_source(g, gw)
        det = det_bareiss(incidence_product_matrix(p, f, g))
        reports.append(_check_product(p, f, g, det, "weighted"))
    return reports


def run_lindstrom(args, rng, cases, file_cases, max_size) -> list[IdentityReport]:
    if args.poset is not None:
        p = _load_poset(args.poset)
        if not p.is_meet_semilattice():
            raise ValueError("poset is not a meet semilattice")
        posets = [p] * file_cases
    else:
        posets = [
            randgen.sample_meet_semilattice(rng, rng.randint(1, max_size))
            for _ in range(cases)
        ]
    return [_check_meet(p, randgen.random_incidence(rng, p), "lindstrom") for p in posets]


def run_meet_closed(args, rng, cases) -> list[IdentityReport]:
    reports = []
    for _ in range(cases):
        lattice, subset = randgen.random_meet_closed_instance(rng)
        f = randgen.random_incidence(rng, lattice)
        det = det_bareiss(meet_closed_matrix(lattice, subset, f))
        report = make_report("meet-closed", len(subset), det, meet_closed_det(lattice, subset, f))
        if lattice.is_lower_closed(subset):
            sub = lattice.induced(subset)
            alt = meet_matrix_det(sub, f.restrict(sub))
            report = fail_unless(report, alt == det, "(lower-closed cross-check mismatch)")
        reports.append(report)
    return reports


def run_smith(args, rng, cases) -> list[IdentityReport]:
    if args.value_set is not None:
        values = _parse_set(args.value_set)
        if not values:
            raise ValueError("--set must name at least one integer")
        if len(values) > SET_SIZE_MAX:
            raise ValueError(f"--set must name at most {SET_SIZE_MAX} integers")
        # Ascending order is a linear extension of divisibility, in which
        # det_bareiss eliminates the GCD matrix several times faster; neither
        # the det nor the totient product depends on the order.
        values.sort()
        _check_values(values)  # is_factor_closed assumes distinct positive values
        if max(values) > SET_VALUE_MAX:
            raise ValueError(f"--set values must be at most {SET_VALUE_MAX}")
        if not is_factor_closed(values):
            raise ValueError(
                "set is not factor closed: the totient-product identity needs every divisor present"
            )
        sets = [values]
    else:
        sets = [randgen.random_factor_closed_set(rng) for _ in range(cases)]
    return [
        make_report("smith", len(s), det_bareiss(gcd_matrix(s)), totient_product(s))
        for s in sets
    ]


def run_apostol(args, rng, ns) -> list[IdentityReport]:
    reports = []
    for n in ns:
        p, f, g = _ramanujan_config(n)
        m = incidence_product_matrix(p, f, g)
        report = _check_product(p, f, g, det_bareiss(m), "apostol")
        mismatch = _holder_mismatch(p, m)
        reports.append(fail_unless(report, not mismatch, f"({mismatch})"))
    return reports


def run_daniloff(args, rng, ns, ks) -> list[IdentityReport]:
    reports = []
    for n in ns:
        for k in ks:
            p, f, g = _kth_root_config(n, k, range(1, n + 1))
            det = det_bareiss(incidence_product_matrix(p, f, g))
            reports.append(_check_product(p, f, g, det, "daniloff"))
    return reports


def run_stembridge(args, rng, cases) -> list[IdentityReport]:
    if args.digraph is not None:
        return [verify_stembridge(digraph_from_dict(_load_json(args.digraph)))]
    return [
        verify_stembridge(randgen.random_hypothesis_digraph(rng))
        for _ in range(cases)
    ]


def run_three_layer(args, rng, cases, max_size) -> list[IdentityReport]:
    reports = []
    for _ in range(cases):
        p, f, g = _random_case(rng, max_size)
        d = three_layer_digraph(p, f, g)
        paths_matrix = stembridge_matrix(d)
        report = _check_product(p, f, g, det_bareiss(paths_matrix), "three-layer")
        # The arcs depend on p alone, so with every weight 1 the sweep
        # counts the families of d: exactly one, on the identity.
        zeta = zeta_function(p)
        identity = tuple(range(p.n))
        structure_ok = (
            nonintersecting_weights(three_layer_digraph(p, zeta, zeta)) == {identity: 1}
            and nonintersecting_weights(d) == {identity: report.predicted}
            and paths_matrix == incidence_product_matrix(p, f, g)
        )
        report = fail_unless(report, structure_ok, "(unique-family structure check failed)")
        reports.append(report)
    return reports


def run_tutte(args, rng, ns) -> list[IdentityReport]:
    return [verify_chromatic_join_det(n) for n in ns]


def run_definiteness(args, rng, cases, max_size) -> list[IdentityReport]:
    reports = []
    for _ in range(cases):
        p = randgen.random_poset(rng, rng.randint(1, max_size))
        f, g = randgen.random_symmetric_pair(rng, p)
        m = incidence_product_matrix(p, f, g)
        det, minors = det_and_leading_minors(m)
        report = _check_product(p, f, g, det, "definiteness")
        definite_ok = product_matrix_positive_definite(m, p, f, g) == all(x > 0 for x in minors)
        report = fail_unless(report, definite_ok, "(diagonal predicate disagrees with minors)")
        reports.append(report)
    for _ in range(cases // 2):
        p = randgen.random_poset(rng, rng.randint(1, max_size))
        f, g = randgen.random_symmetric_pair(rng, p, force_zero_diag=True)
        det = det_bareiss(incidence_product_matrix(p, f, g))
        reports.append(make_report("definiteness-singular", p.n, det, 0))
    return reports


# Each family's runner and the defaults of the flags it reads, which main
# passes by keyword; a family ignores every other flag.  "file_cases" counts
# --cases with a --poset file; "ns" and "ks" list the --n and --k to check.
RUNNERS = {
    "main": (run_main, {"cases": 200, "file_cases": 20, "max_size": 7}),
    "weighted": (run_weighted, {"cases": 100, "max_size": 7}),
    "lindstrom": (run_lindstrom, {"cases": 100, "file_cases": 20, "max_size": 6}),
    "meet-closed": (run_meet_closed, {"cases": 50}),
    "smith": (run_smith, {"cases": 50}),
    "apostol": (run_apostol, {"ns": range(1, 11)}),
    "daniloff": (run_daniloff, {"ns": range(1, 11), "ks": (1, 2, 3)}),
    "stembridge": (run_stembridge, {"cases": 10}),
    "three-layer": (run_three_layer, {"cases": 30, "max_size": 5}),
    "tutte": (run_tutte, {"ns": (3,)}),
    "definiteness": (run_definiteness, {"cases": 100, "max_size": 6}),
}

IDENTITY_NAMES = tuple(RUNNERS)


def _default_text(value) -> str:
    """A default as help text: an int, or sizes, consecutive ones as first..last."""
    if isinstance(value, int):
        return str(value)
    sizes = tuple(value)
    if len(sizes) > 1 and sizes == tuple(range(sizes[0], sizes[-1] + 1)):
        return f"{sizes[0]}..{sizes[-1]}"
    return ", ".join(map(str, sizes))


def _defaults_help(key: str) -> str:
    """Each family's default for one RUNNERS key, in the table's order."""
    parts = []
    for family, (_, defaults) in RUNNERS.items():
        if key in defaults:
            part = f"{family} {_default_text(defaults[key])}"
            if key == "cases" and "file_cases" in defaults:
                part += f" or {defaults['file_cases']} with --poset"
            parts.append(part)
    return "default: " + "; ".join(parts)


def _emit(cases, machine: bool, name: str, seed) -> int:
    """Print every report in one write, then a reproduce line for each case
    (a list or tuple of reports, never a bare report, which is itself a
    tuple) with a FAIL; exit 2 on a failed hypothesis, else 1 on a FAIL."""
    reports = [r for case in cases for r in case]
    sys.stdout.write("".join(f"{r.machine_line() if machine else r.line()}\n" for r in reports))
    for i, case in enumerate(cases):
        if any(r.verdict == FAIL for r in case):
            print(f"reproduce: {name} seed={seed} case={i}", file=sys.stderr)
    if any(r.verdict == HYPOTHESIS_FAILED for r in reports):
        return EXIT_INPUT
    if any(r.verdict == FAIL for r in reports):
        return EXIT_VIOLATION
    return EXIT_OK


def run_mobius(args) -> int:
    p = _load_poset(args.poset_file)
    mu = mobius_function(p)
    for a in p.lin_ext:
        for b in sorted(p.above(a), key=p.position):
            print(f"mu({p.labels[a]},{p.labels[b]}) = {mu(a, b)}")
    return EXIT_OK


def run_suite(args, rng) -> list[tuple[IdentityReport, IdentityReport]]:
    """Per case, the product report and then the meet report."""
    cases = []
    for _ in range(args.cases):
        p, f, g = _random_case(rng, args.max_size)
        m = incidence_product_matrix(p, f, g)
        report = _check_product(p, f, g, det_bareiss(m), "suite-main")
        factorization = incidence_matrix(p, f).transpose() @ incidence_matrix(p, g)
        report = fail_unless(report, factorization == m, "(transpose factorization mismatch)")
        semilattice = randgen.random_meet_semilattice(
            rng, rng.randint(1, min(args.max_size, randgen.REJECTION_MAX_SIZE))
        )
        h = randgen.random_incidence(rng, semilattice)
        cases.append((report, _check_meet(semilattice, h, "suite-lindstrom")))
    return cases


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetdet",
        description="Verify exact determinant identities of poset-derived matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify one identity family")
    verify.add_argument("identity", choices=IDENTITY_NAMES)
    verify.add_argument(
        "--n",
        type=int,
        default=None,
        help=(
            f"size: apostol and daniloff 1..{MAX_ELEMENTS},"
            f" tutte {JOIN_MATRIX_MIN}..{JOIN_MATRIX_MAX} ({_defaults_help('ns')})"
        ),
    )
    verify.add_argument(
        "--k", type=int, default=None, help=f"exponent parameter ({_defaults_help('ks')})"
    )
    verify.add_argument(
        "--set",
        dest="value_set",
        default=None,
        help=f"at most {SET_SIZE_MAX} comma-separated positive integers up to {SET_VALUE_MAX}",
    )
    verify.add_argument("--poset", default=None, help="poset JSON file")
    verify.add_argument("--digraph", default=None, help="digraph JSON file")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument(
        "--cases",
        type=int,
        default=None,
        help=f"number of random cases ({_defaults_help('cases')})",
    )
    verify.add_argument(
        "--max-size",
        dest="max_size",
        type=int,
        default=None,
        help=f"largest random poset, at most {MAX_ELEMENTS} ({_defaults_help('max_size')})",
    )
    verify.add_argument("--machine", action="store_true", help="tab-separated output")

    mob = sub.add_parser("mobius", help="print the Möbius table of a poset file")
    mob.add_argument("poset_file")

    suite = sub.add_parser(
        "random-suite",
        help="seeded random campaign over the product and meet identities",
    )
    suite.add_argument("--seed", type=int, default=42)
    suite.add_argument("--cases", type=int, default=200)
    suite.add_argument("--max-size", dest="max_size", type=int, default=7)
    suite.add_argument("--machine", action="store_true")

    return parser


_PARSER = _build_parser()


def _check_sizes(args) -> None:
    """Reject out-of-range sizes before any draw; 0 is a value, not "unset"."""
    for flag, low in (("n", 1), ("k", 1), ("max_size", 1), ("cases", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise ValueError(f"--{flag.replace('_', '-')} must be at least {low}")
    max_size = getattr(args, "max_size", None)
    if max_size is not None and max_size > MAX_ELEMENTS:
        raise ValueError(f"--max-size must be at most {MAX_ELEMENTS}")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _check_sizes(args)
        if args.command == "mobius":
            return run_mobius(args)
        rng = random.Random(args.seed)
        if args.command == "random-suite":
            cases = run_suite(args, rng)
            code = _emit(cases, args.machine, args.command, args.seed)
            passes = sum(a.passed and b.passed for a, b in cases)
            print(f"{passes}/{args.cases} pass")
            return code
        run, defaults = RUNNERS[args.identity]
        ns, ks = (None if size is None else [size] for size in (args.n, args.k))
        given = dict(vars(args), file_cases=args.cases, ns=ns, ks=ks)
        resolved = {key: d if given[key] is None else given[key] for key, d in defaults.items()}
        reports = run(args, rng, **resolved)
        return _emit([[r] for r in reports], args.machine, args.identity, args.seed)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
