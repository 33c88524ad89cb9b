"""Command-line front end: instance files, one-shot computations, and the
verification suite.

Instance file format (line oriented, '#' starts a comment):

    [ring]
    name = Z4
    orders = 4            # additive invariant factors, divisibility chain
    unit = 1              # coefficient vector
    mul 0 0 = 1           # struct consts: basis_i basis_j = coeff vector
    [module]
    name = regular
    inv_factors = 4
    action 0 = [[1]]      # action matrix of ring basis element 0

Vectors are comma separated; matrices are nested bracket lists with rows
indexed by target coordinates.  An optional ``labels`` line in either section
names each basis element once, with no '+', '*', '<' or '>' in a label.
Unknown keys are rejected.

Exit codes: 0 success / no failures, 1 verification failure, 2 usage error,
3 validation error, 4 budget or cap exceeded, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys

from .algebra import (
    FiniteModule,
    FiniteRing,
    ValidationError,
    compose,
    validate_module,
    validate_ring,
)
from .config import DEFAULT_CAPS, Caps, CapExceeded
from .harness import (
    STATEMENT_IDS,
    generate_corpus,
    run_suite,
    search_counterexamples,
)
from .homspace import hom_group
from .lattice import (
    Submodule,
    is_goldie,
    submodule_as_module,
)
from .oracle import (
    BudgetExceeded,
    brute_all_submodules,
    brute_ell,
    brute_hom_group,
    brute_prime_radical,
    brute_product,
)
from .product import power_trace, product
from .radical import prime_radical


class ParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_INTEGER = re.compile(r"-?[0-9]+")


def _parse_int(text: str, line_no: int, message: str) -> int:
    """An optional '-' then ASCII digits: the one integer form of an
    instance file, so '1_0', '+1' or a full-width digit is a ParseError."""
    if not _INTEGER.fullmatch(text):
        raise ParseError(line_no, f"{message}: {text!r}")
    return int(text)


def _parse_vector(text: str, line_no: int):
    text = text.strip()
    if not text:
        return ()
    message = "expected a comma-separated integer vector"
    return tuple(_parse_int(p.strip(), line_no, message) for p in text.split(","))


def _parse_labels(text: str, line_no: int):
    labels = tuple(p.strip() for p in text.split(","))
    if not all(labels):
        raise ParseError(line_no, f"empty label in {text!r}")
    if len(set(labels)) != len(labels):
        raise ParseError(line_no, f"repeated label in {text!r}")
    if any(set(label) & set("+*<>") for label in labels):
        raise ParseError(line_no, f"label holding '+', '*', '<' or '>' in {text!r}")
    return labels


def _parse_matrix(text: str, line_no: int):
    text = text.strip()
    try:
        rows = ast.parse(text, mode="eval").body
    except (ValueError, SyntaxError):
        raise ParseError(line_no, f"expected a nested list matrix: {text!r}")
    if not isinstance(rows, ast.List) or not all(isinstance(r, ast.List) for r in rows.elts):
        raise ParseError(line_no, "matrix must be a list of rows")
    return tuple(
        tuple(
            _parse_int(ast.get_source_segment(text, x), line_no, "matrix entries must be integers")
            for x in row.elts
        )
        for row in rows.elts
    )


def parse_instance_text(text: str):
    """Parse ring and module from instance-file text; round trips with
    serialize_instance."""
    section = None
    ring_data = {"name": "ring", "labels": None, "mul": {}}
    module_data = {"name": "module", "labels": None, "action": {}}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[ring]":
            section = "ring"
            continue
        if line == "[module]":
            section = "module"
            continue
        if line.startswith("["):
            raise ParseError(line_no, f"unknown section {line!r}")
        if section is None:
            raise ParseError(line_no, "content before any section header")
        if "=" not in line:
            raise ParseError(line_no, "expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if section == "ring":
            if key == "name":
                ring_data["name"] = value
            elif key == "orders":
                ring_data["orders"] = _parse_vector(value, line_no)
            elif key == "unit":
                ring_data["unit"] = _parse_vector(value, line_no)
            elif key == "labels":
                ring_data["labels"] = _parse_labels(value, line_no)
            elif key.startswith("mul "):
                parts = key.split()
                if len(parts) != 3:
                    raise ParseError(line_no, "expected 'mul i j = vector'")
                i, j = (_parse_int(p, line_no, "mul indices must be integers") for p in parts[1:])
                ring_data["mul"][(i, j)] = _parse_vector(value, line_no)
            else:
                raise ParseError(line_no, f"unknown ring key {key!r}")
        else:
            if key == "name":
                module_data["name"] = value
            elif key == "inv_factors":
                module_data["inv_factors"] = _parse_vector(value, line_no)
            elif key == "labels":
                module_data["labels"] = _parse_labels(value, line_no)
            elif key.startswith("action "):
                parts = key.split()
                if len(parts) != 2:
                    raise ParseError(line_no, "expected 'action i = [[...]]'")
                i = _parse_int(parts[1], line_no, "action index must be an integer")
                module_data["action"][i] = _parse_matrix(value, line_no)
            else:
                raise ParseError(line_no, f"unknown module key {key!r}")
    if "orders" not in ring_data:
        raise ParseError(0, "missing ring orders")
    if "unit" not in ring_data:
        raise ParseError(0, "missing ring unit")
    rank = len(ring_data["orders"])
    labels = ring_data["labels"]
    if labels is not None and len(labels) != rank:
        raise ParseError(0, f"{len(labels)} ring labels for {rank} basis elements")
    struct = []
    for i in range(rank):
        row = []
        for j in range(rank):
            if (i, j) not in ring_data["mul"]:
                raise ParseError(0, f"missing 'mul {i} {j}'")
            vec = ring_data["mul"][(i, j)]
            if len(vec) != rank:
                raise ParseError(0, f"'mul {i} {j}' has wrong length")
            row.append(vec)
        struct.append(tuple(row))
    extra = set(ring_data["mul"]) - {(i, j) for i in range(rank) for j in range(rank)}
    if extra:
        raise ParseError(0, f"mul entries outside basis range: {sorted(extra)}")
    ring = FiniteRing(
        add_orders=tuple(ring_data["orders"]),
        struct=tuple(struct),
        unit=tuple(ring_data["unit"]),
        labels=ring_data["labels"],
        name=ring_data["name"],
    )
    validate_ring(ring)
    if "inv_factors" not in module_data:
        raise ParseError(0, "missing module inv_factors")
    ngens = len(module_data["inv_factors"])
    labels = module_data["labels"]
    if labels is not None and len(labels) != ngens:
        raise ParseError(0, f"{len(labels)} module labels for {ngens} generators")
    actions = []
    for i in range(rank):
        if i not in module_data["action"]:
            raise ParseError(0, f"missing 'action {i}'")
        mat = module_data["action"][i]
        if len(mat) != ngens or any(len(r) != ngens for r in mat):
            raise ParseError(0, f"'action {i}' has wrong shape")
        actions.append(mat)
    extra = set(module_data["action"]) - set(range(rank))
    if extra:
        raise ParseError(0, f"action entries outside basis range: {sorted(extra)}")
    module = FiniteModule(
        ring=ring,
        inv_factors=tuple(module_data["inv_factors"]),
        actions=tuple(actions),
        labels=module_data["labels"],
        name=module_data["name"],
    )
    validate_module(ring, module)
    return ring, module


def parse_instance(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_text(fh.read())


def _vector_text(vec) -> str:
    return ", ".join(str(x) for x in vec)


def _matrix_text(mat) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in mat) + "]"


def serialize_instance(ring: FiniteRing, module: FiniteModule) -> str:
    lines = ["[ring]", f"name = {ring.name}", f"orders = {_vector_text(ring.add_orders)}"]
    if ring.labels is not None:
        lines.append("labels = " + ", ".join(ring.labels))
    lines.append(f"unit = {_vector_text(ring.unit)}")
    for i in range(ring.rank):
        for j in range(ring.rank):
            lines.append(f"mul {i} {j} = {_vector_text(ring.struct[i][j])}")
    lines.append("[module]")
    lines.append(f"name = {module.name}")
    lines.append(f"inv_factors = {_vector_text(module.inv_factors)}")
    if module.labels is not None:
        lines.append("labels = " + ", ".join(module.labels))
    for i in range(ring.rank):
        lines.append(f"action {i} = {_matrix_text(module.actions[i])}")
    return "\n".join(lines) + "\n"


def resolve_submodule(module: FiniteModule, text: str) -> Submodule:
    """Resolve '<gen, gen, ...>' into a submodule: each generator is a sum of
    terms 'coeff', 'label' or 'coeff*label', each coeff an optional '-' then
    ASCII digits."""
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise ValueError(f"submodule syntax is '<gen, gen, ...>': {text!r}")
    inner = text[1:-1].strip()
    if inner in ("", "0"):
        return Submodule.zero(module)
    labels = {
        module.generator_label(j): j for j in range(module.ngens)
    }
    rows = []
    for gen_text in inner.split(","):
        coeffs = [0] * module.ngens
        for term in gen_text.split("+"):
            term = term.strip()
            if not term:
                raise ValueError(f"empty term in generator {gen_text!r}")
            if "*" in term:
                c_text, label = (p.strip() for p in term.split("*", 1))
                if not _INTEGER.fullmatch(c_text):
                    raise ValueError(f"bad coefficient in {term!r}")
                if label not in labels:
                    raise ValueError(f"unknown basis label {label!r}")
                coeffs[labels[label]] += int(c_text)
            elif term in labels:
                coeffs[labels[term]] += 1
            else:
                if not _INTEGER.fullmatch(term):
                    raise ValueError(f"unknown basis label {term!r}")
                if module.ngens != 1 and "1" not in labels:
                    raise ValueError(
                        f"plain integers need a rank-1 module or a '1' label: {term!r}"
                    )
                coeffs[labels.get("1", 0)] += int(term)
        rows.append(coeffs)
    return Submodule.span(module, rows)


def _print_profile(module, caps):
    profile = is_goldie(module, caps)
    print(f"module = {module.name}")
    print(f"order = {module.order}")
    print(f"inv_factors = {_vector_text(module.inv_factors)}")
    print(f"quasi_projective = {str(profile.is_quasi_projective).lower()}")
    print(f"retractable = {str(profile.is_retractable).lower()}")
    print(f"goldie = {str(profile.is_goldie).lower()}")
    print(f"uniform_dim = {profile.uniform_dim}")
    size = profile.annihilator_lattice_size
    print(f"annihilator_lattice_size = {'none' if size is None else size}")


def _cmd_validate(args, caps):
    ring, module = parse_instance(args.file)
    print(f"ring = {ring.name}")
    print(f"ring_order = {ring.order}")
    _print_profile(module, caps)
    return 0


def _cmd_hom(args, caps):
    ring, module = parse_instance(args.file)
    target = resolve_submodule(module, args.target)
    emb = submodule_as_module(target)
    group = hom_group(module, emb.module)
    print(f"invariants = [{_vector_text(group.group_invariants)}]")
    print(f"order = {group.order}")
    for idx, gen in enumerate(group.generators):
        as_endo = compose(emb.inclusion, gen)
        print(f"generator {idx} = {_matrix_text(as_endo.matrix)}")
    return 0


def _cmd_product(args, caps):
    ring, module = parse_instance(args.file)
    left = resolve_submodule(module, args.left)
    right = resolve_submodule(module, args.right)
    out = product(module, left, right)
    print(out.describe())
    return 0


def _cmd_power(args, caps):
    ring, module = parse_instance(args.file)
    sub = resolve_submodule(module, args.sub)
    trace = power_trace(module, sub)
    limit = args.max or len(trace.chain)
    for i, member in enumerate(trace.chain[:limit], start=1):
        print(f"power {i} = {member.describe()}")
    kind, idx = trace.terminal
    print(f"terminal = {kind}({idx})")
    if trace.nesting_divergence is not None:
        print(f"nesting_divergence = {trace.nesting_divergence}")
    return 0


def _cmd_radical(args, caps):
    ring, module = parse_instance(args.file)
    profile = prime_radical(module, caps)
    print(f"L = {profile.ell.describe()}")
    print(f"prime_radical = {profile.prime_radical.describe()}")
    if profile.nilpotency_of_radical is not None:
        print(f"nilpotency_index = {profile.nilpotency_of_radical}")
    else:
        print("nilpotency_index = none")
    print("primes = " + "; ".join(p.describe() for p in profile.primes))
    print("semiprimes = " + "; ".join(p.describe() for p in profile.semiprimes))
    if profile.no_primes:
        print("no_primes = true")
    if profile.ell_locally_nilpotent is not None:
        print(
            "ell_locally_nilpotent = "
            f"{str(profile.ell_locally_nilpotent).lower()}"
        )
    return 0


def _cmd_predicates(args, caps):
    ring, module = parse_instance(args.file)
    _print_profile(module, caps)
    return 0


def _cmd_verify(args, caps):
    ids = args.only.split(",") if args.only else None
    corpus = generate_corpus(args.corpus_seed, args.budget, caps)
    summary = run_suite(corpus, ids, jobs=args.jobs)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "seed": args.corpus_seed,
                    "budget": args.budget,
                    "instances": len(corpus.instances),
                    "counts": summary.counts,
                    "reports": [{k: v for k, v in r._asdict().items() if k != "elapsed"}
                                for r in summary.reports],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return summary.exit_code
    print(f"verify seed={args.corpus_seed} budget={args.budget} "
          f"instances={len(corpus.instances)}")
    print(summary.text())
    if summary.failed and args.witness_dir:
        write_witness_files(summary, corpus, args.witness_dir)
    return summary.exit_code


def write_witness_files(summary, corpus, witness_dir):
    """One reproducible file per failure: the statement, the reported
    witness data, and the instance itself in the canonical file format."""
    os.makedirs(witness_dir, exist_ok=True)
    by_instance = {inst.name: inst for inst in corpus.instances}
    paths = []
    for idx, rep in enumerate(summary.failed):
        inst = by_instance[rep.instance]
        path = os.path.join(witness_dir, f"fail-{idx:03d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# statement: {rep.statement}\n")
            fh.write(f"# witness: {rep.witness}\n")
            fh.write(serialize_instance(inst.ring, inst.module))
        paths.append(path)
    return paths


def _cmd_search(args, caps):
    corpus = generate_corpus(args.corpus_seed, args.budget, caps)
    reports = search_counterexamples(args.statement, args.drop, corpus)
    print(
        f"search statement={args.statement} drop={args.drop} "
        f"candidates={len(reports)}"
    )
    for rep in reports:
        print(rep.line())
    findings = sum(1 for r in reports if r.outcome == "fail")
    print(f"findings = {findings}")
    return 0


def _cmd_oracle(args, caps):
    ring, module = parse_instance(args.file)
    if args.op == "hom":
        homs = brute_hom_group(module, module)
        print(f"endomorphisms = {len(homs)}")
        for h in homs[: args.limit]:
            print(_matrix_text(h.matrix))
    elif args.op == "product":
        left = resolve_submodule(module, args.left or "<0>")
        right = resolve_submodule(module, args.right or "<0>")
        print(brute_product(module, left, right).describe())
    elif args.op == "radical":
        print(f"L = {brute_ell(module).describe()}")
        print(f"prime_radical = {brute_prime_radical(module).describe()}")
        print(f"submodules = {len(brute_all_submodules(module))}")
    return 0


def positive_int(text: str) -> int:
    """An argparse type: a value below 1 is a usage error (exit 2)."""
    if (value := int(text)) < 1:
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finmod",
        description="exact computations with finite modules over finite rings",
        allow_abbrev=False,  # else ``power --max`` reads as a prefix of both caps
    )
    parser.add_argument("--max-module-order", type=positive_int, default=DEFAULT_CAPS.max_module_order)
    parser.add_argument("--max-lattice", type=positive_int, default=DEFAULT_CAPS.max_lattice)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance file, print its profile")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("hom", help="Hom group from the module into a submodule")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("product", help="submodule product")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("power", help="power trace of a submodule")
    p.add_argument("file")
    p.add_argument("--sub", required=True)
    p.add_argument("--max", type=positive_int, default=None)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("radical", help="radical profile")
    p.add_argument("file")
    p.set_defaults(func=_cmd_radical)

    p = sub.add_parser("predicates", help="predicate profile")
    p.add_argument("file")
    p.set_defaults(func=_cmd_predicates)

    p = sub.add_parser("verify", help="run the statement suite on a corpus")
    p.add_argument("--corpus-seed", type=int, default=0)
    p.add_argument("--budget", type=positive_int, default=110)
    p.add_argument("--only", default=None, help="comma-separated statement ids")
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--witness-dir", default="witnesses")
    p.add_argument("--json", action="store_true", help="structured report dump")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="counterexample search with a dropped hypothesis")
    p.add_argument("--statement", required=True, choices=STATEMENT_IDS)
    p.add_argument("--drop", required=True)
    p.add_argument("--corpus-seed", type=int, default=0)
    p.add_argument("--budget", type=positive_int, default=110)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("oracle", help="run the brute-force path only")
    p.add_argument("file")
    p.add_argument("--op", required=True, choices=["hom", "product", "radical"])
    p.add_argument("--left", default=None)
    p.add_argument("--right", default=None)
    p.add_argument("--limit", type=positive_int, default=16)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    caps = Caps(max_module_order=args.max_module_order, max_lattice=args.max_lattice)
    try:
        code = args.func(args, caps)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader left: say nothing, and give the exit flush somewhere to go
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, BudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
