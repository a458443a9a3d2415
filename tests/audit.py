"""Audit of the library's trusted builders, as a pytest plugin.

Five builders make library values with no validation, on the promise that
their inputs are the library's own exact results:

- ``_RationalAlgebra._make``, extended by ``QuadIrrational._make`` (every
  scalar result);
- ``hermitian._trusted`` (every matrix result);
- ``polyhedral._trusted`` (every intersection, and the real-multiplication
  domain cone);
- ``reduction._trusted`` (the action of a squared unit);
- ``fundamental_unit``, which builds its unit directly.

The plugin wraps each one, in every ``amplecones`` module that holds it,
and queues every result built during a test.  After the test and its
fixtures are torn down, it rebuilds each queued value through its public
constructor, which validates, and compares the two: a scalar, matrix,
action or unit slot by slot (a matrix's lazily filled LDL* aside); a cone
by its rays, the set of rays tight on each normal, its incidence masks,
and whether its normals cut out exactly the cone its rays span.  A
mismatch fails the test and names the builder and its arguments.  The
rebuilds run after the test, so no test sees the audit's own calls.

Run tier-1 under it with ``tests`` on the import path:

    PYTHONPATH=src:tests python -m pytest -q -p audit

Its name does not match ``test_*.py``, so pytest does not collect it, and
tier-1 run without ``-p audit`` is not wrapped.
"""

from __future__ import annotations

import functools
import sys
from operator import mul

import pytest

from amplecones import hermitian, polyhedral, reduction, scalars
from amplecones.errors import _Record, _repr
from amplecones.polyhedral import PolyhedralCone, _extreme_rays
from amplecones.reduction import GroupAction2D
from amplecones.scalars import QuadIrrational, UnitElement, _RationalAlgebra

# slots that a value fills later, which equality ignores
LAZY = frozenset(["_ldl"])


class Audit:
    """The queue of trusted results built during the current test."""

    def __init__(self) -> None:
        self.queue = []  # (builder name, arguments, result)
        self.depth = 0  # trusted builds in progress; only the outermost queues
        self.builds = {}  # builder name: results checked
        self.on = True

    def wrap(self, name: str, builder):
        @functools.wraps(builder)
        def wrapper(*args):
            if not self.on:
                return builder(*args)
            self.depth += 1
            try:
                result = builder(*args)
            finally:
                self.depth -= 1
            if not self.depth:
                self.queue.append((name, args, result))
            return result

        return wrapper

    def check(self) -> list[str]:
        """Rebuild and compare every queued result; the mismatches."""
        queue, self.queue = self.queue, []
        for name, _, _ in queue:
            self.builds[name] = self.builds.get(name, 0) + 1
        self.on = False
        try:
            return [
                f"{name}({', '.join(map(_repr, args))}) built {_repr(result)}: {problem}"
                for name, args, result in queue
                for problem in [mismatch(result)]
                if problem
            ]
        finally:
            self.on = True


def state(value):
    """Every filled slot of ``value`` down its class hierarchy, nested
    records included, lazily filled slots aside."""
    if not isinstance(value, _Record):
        return value
    names = [n for c in type(value).__mro__ for n in getattr(c, "__slots__", ()) if n not in LAZY]
    return type(value), tuple([(n, state(getattr(value, n))) for n in names])


def rebuild(value):
    """``value`` built again through its public constructor."""
    if isinstance(value, UnitElement):
        v = value.value
        return UnitElement(QuadIrrational(v.d, v.a, v.b), value.norm)
    if isinstance(value, GroupAction2D):
        return GroupAction2D(value.generator, value.a, value.b)
    if isinstance(value, PolyhedralCone):
        return PolyhedralCone(value.dim, value.rays)
    cls, args = value.__reduce__()  # scalars and matrices
    return cls(*args)


def tight_sets(cone: PolyhedralCone) -> set:
    return {
        frozenset([r for r in cone.rays if sum(map(mul, n, r)) == 0])
        for n in cone._normals
    }


def cone_mismatch(cone: PolyhedralCone, public: PolyhedralCone) -> str:
    if cone.dim != public.dim or cone.rays != public.rays:
        return f"rays differ from {_repr(public)}"
    if tight_sets(cone) != tight_sets(public):
        return "the sets of rays tight on the normals differ"
    masks = tuple(
        [
            sum(1 << i for i, n in enumerate(cone._normals) if sum(map(mul, n, r)) == 0)
            for r in cone.rays
        ]
    )
    if cone._masks != masks:
        return f"masks {_repr(cone._masks)} are not the incidence {_repr(masks)}"
    lin, found = _extreme_rays(list(cone._normals), cone.dim)
    if lin or sorted(v for v, _ in found) != sorted(cone.rays):
        return f"normals {_repr(cone._normals)} do not cut out the cone"
    return ""


def mismatch(value) -> str:
    """Why ``value`` differs from its public rebuild, or ""."""
    try:
        public = rebuild(value)
    except Exception as exc:  # the public constructor refuses the value
        return f"the public constructor raises {type(exc).__name__}: {exc}"
    if isinstance(value, PolyhedralCone):
        return cone_mismatch(value, public)
    if state(value) != state(public):
        return f"its state differs from that of {_repr(public)}"
    return ""


def builders():
    """(name, owner, attribute) of each builder, as the library defines it."""
    return [
        ("_RationalAlgebra._make", _RationalAlgebra, "_make"),
        ("QuadIrrational._make", QuadIrrational, "_make"),
        ("hermitian._trusted", hermitian, "_trusted"),
        ("polyhedral._trusted", polyhedral, "_trusted"),
        ("reduction._trusted", reduction, "_trusted"),
        ("fundamental_unit", scalars, "fundamental_unit"),
    ]


AUDIT = Audit()


def pytest_configure(config):
    # every module of the package that holds a builder gets the wrapper
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "amplecones"]
    for name, owner, attribute in builders():
        original = owner.__dict__[attribute]
        wrapper = AUDIT.wrap(name, original)
        setattr(owner, attribute, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    result = yield  # the test's fixtures are torn down first
    problems = AUDIT.check()
    if problems:
        shown = "\n".join(problems[:5])
        pytest.fail(f"{len(problems)} trusted build(s) differ from their public rebuild:\n{shown}")
    return result


def pytest_terminal_summary(terminalreporter):
    counts = ", ".join(f"{n} {name}" for name, n in sorted(AUDIT.builds.items()))
    terminalreporter.write_line(f"audit: {sum(AUDIT.builds.values())} trusted builds checked ({counts})")
