"""Interface guards: every parameter of a function in egdeg is read.

A parameter that no line of its function reads is a setting that cannot
vary.  The guard parses each module with ``ast`` and collects, for every
``def``, the parameters whose names its body never loads.  Lambdas are left
out: their callee fixes their signature.  The parameters below are kept by a
protocol or a caller outside the package, each for the reason given.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "egdeg"

ALLOWED = {
    # region protocol: MapDomain.contains hands every region a split
    ("domains.py", "Balls.contains", "splits"): "region protocol",
    ("domains.py", "Balls.boundary_distance", "splits"): "region protocol",
    ("domains.py", "AnyOf.contains", "splits"): "region protocol",
    ("domains.py", "AnyOf.boundary_distance", "splits"): "region protocol",
    # through_layer calls inner(q, x, v, s, idx, *coeffs)
    ("maps.py", "layer_grad.chain", "x"): "through_layer's callback signature",
    # the abstract methods name the arguments every potential takes
    ("potentials.py", "Potential.value", "pts"): "abstract Potential method",
    ("potentials.py", "Potential.grad", "pts"): "abstract Potential method",
    ("potentials.py", "Potential.hess", "pts"): "abstract Potential method",
    ("potentials.py", "Potential.scaled", "lam"): "abstract Potential method",
    ("records.py", "Factory.__get__", "record"): "descriptor protocol",
    # __delattr__ shares it, with one argument fewer
    ("records.py", "Record.__setattr__", "value"): "attribute protocol",
    # run_suite calls every criterion with the shared groups
    ("verify.py", "criterion_split_consistency", "ctx"): "suite protocol",
    ("verify.py", "criterion_circle", "ctx"): "suite protocol",
    ("verify.py", "criterion_degree_oracles", "ctx"): "suite protocol",
    ("verify.py", "criterion_partition", "ctx"): "suite protocol",
    # bench/workloads.py passes a Numerics positionally
    ("degree.py", "find_zeros", "num"): "the benchmark passes it",
    ("degree.py", "intersection_number", "num"): "the benchmark passes it",
}


def unread_parameters(path: Path) -> set[tuple[str, str, str]]:
    """(module, qualified function name, parameter) of every unread parameter."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.update((path.name, prefix + child.name, p) for p in params
                             if p not in read and p not in ("self", "cls", "_"))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def test_every_parameter_is_read():
    unread = set().union(*(unread_parameters(p) for p in sorted(SRC.glob("*.py"))))
    assert sorted(unread - set(ALLOWED)) == []


def test_allowlist_names_unread_parameters_only():
    unread = set().union(*(unread_parameters(p) for p in sorted(SRC.glob("*.py"))))
    assert sorted(set(ALLOWED) - unread) == []
