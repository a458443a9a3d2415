"""Mutation checks for the safety code of the library and its command line.

Each row names a file under ``src/amplecones``, an exact piece of its text,
the text that replaces it, and the pytest selection that must catch the
change.  For each row the script copies ``src/``, ``tests/``, README.md and
pyproject.toml to a temporary directory, applies the one change there,
never to the working tree, and runs the selection on the copy in a
subprocess.  A mutant survives when its selection passes.  A selection that
runs past ``TIMEOUT`` seconds is stopped and its mutant counts as killed,
printed as ``killed (timeout)``: a mutant that makes a loop never end is
caught, not left to hang the run.

Run it from anywhere; it finds the repository from its own path:

    python tests/mutants.py           # every row
    python tests/mutants.py ID ...    # the named rows

It exits nonzero when a mutant survives, when a row's old text does not
occur exactly once in its file (a refactor that moved the code is then
flagged, not skipped), or when a selection fails on the unchanged copy.
Its name does not match ``test_*.py``, so pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READERS = ["tests/test_readers.py", "tests/test_arguments.py"]
CLI = ["tests/test_cli.py"]
HERMITIAN = ["tests/test_hermitian.py"]
SCALARS = ["tests/test_scalars.py"]
REDUCTION = ["tests/test_reduction.py"]
POLYHEDRAL = ["tests/test_polyhedral.py"]
PICARD = 'lambda m: {"picard_number": abelian.picard_number(m)}'  # cli's picard report
# seconds a selection may run; past it the mutant counts as killed, since
# the unchanged selections all finish in well under a minute
TIMEOUT = 300

# (id, file under src/amplecones, exact old text, new text, pytest selection)
MUTANTS = [
    (
        "integer-reader-accepts-bool",
        "errors.py",
        "(isinstance(value, bool) or not isinstance(value, int))",
        "(not isinstance(value, int))",
        READERS,
    ),
    (
        "rational-reader-lets-nan-and-type-errors-escape",
        "errors.py",
        "except (TypeError, ValueError, OverflowError, ZeroDivisionError):",
        "except (OverflowError, ZeroDivisionError):",
        READERS,
    ),
    (
        "rational-reader-exponent-bound-off-by-one",
        "errors.py",
        "too_large = abs(int(exponent)) > _MAX_EXPONENT",
        "too_large = abs(int(exponent)) >= _MAX_EXPONENT",
        READERS,
    ),
    (
        "rational-reader-skips-decimal-exponent",
        "errors.py",
        "if isinstance(c, (str, Decimal)):",
        "if isinstance(c, str):",
        READERS,
    ),
    (
        "point-reader-lets-non-iterables-escape",
        "errors.py",
        "        except TypeError:\n            pass\n",
        "        except ZeroDivisionError:\n            pass\n",
        READERS,
    ),
    (
        "integer-reader-bound-off-by-one",
        "errors.py",
        "if low is not None and value < low:",
        "if low is not None and value < low - 1:",
        ["tests/test_records.py"],
    ),
    (
        "repr-prints-a-huge-int-with-str",
        "errors.py",
        "return _format_integer(value) if type(value) is int else repr(value)",
        "return repr(value)",
        ["tests/test_records.py"],
    ),
    (
        "sequence-reader-lets-none-through",
        "errors.py",
        "    if not isinstance(v, (str, bytes, bytearray)):\n",
        "    if v is None:\n"
        "        return ()\n"
        "    if not isinstance(v, (str, bytes, bytearray)):\n",
        READERS,
    ),
    (
        "model-table-swaps-two-report-builders",
        "cli.py",
        f'{PICARD}),\n    "amplecone": ("ample cone block structure of a model", _cone_report)',
        f'_cone_report),\n    "amplecone": ("ample cone block structure of a model", {PICARD})',
        CLI,
    ),
    (
        "range-check-lower-bound-exclusive",
        "cli.py",
        "if not low <= value <= high:",
        "if not low < value <= high:",
        CLI,
    ),
    (
        "quaternion-kernel-k-component-sign-flipped",
        "hermitian.py",
        "        z += a * h + b * g - c * f + d * e\n",
        "        z += a * h + b * g + c * f + d * e\n",
        HERMITIAN,
    ),
    (
        "complex-kernel-drops-cross-term",
        "hermitian.py",
        "        im += a * d + b * c\n",
        "        im += a * d\n",
        HERMITIAN,
    ),
    (
        "elimination-cache-kept-in-one-module-variable",
        "hermitian.py",
        '    result = getattr(D, "_ldl", None)\n'
        "    if result is None:\n"
        "        result = _elimination(D)\n"
        "        D._set(_ldl=result)\n",
        "    global _LAST_LDL\n"
        '    result = globals().get("_LAST_LDL")\n'
        "    if result is None:\n"
        "        result = _LAST_LDL = _elimination(D)\n",
        HERMITIAN,
    ),
    (
        "locate-direction-read-off-the-lower-ray",
        "reduction.py",
        "    g21 = action._fwd[1][0]\n",
        "    g21 = _cross(low, _mat_vec(action._fwd, low))\n",
        REDUCTION,
    ),
    (
        "locate-skips-the-step-down-to-the-least-k",
        "reduction.py",
        "            while k > -max_word:\n",
        "            while False:\n",
        REDUCTION,
    ),
    (
        "disjointness-stops-after-first-step",
        "reduction.py",
        "        if not overlapped:\n            break\n",
        "        break\n",
        REDUCTION,
    ),
    (
        "translate-row-below-zero-uses-forward-generator",
        "reduction.py",
        "step, m = (1, self._fwd) if k > 0 else (-1, self._bwd)",
        "step, m = (1, self._fwd) if k > 0 else (-1, self._fwd)",
        REDUCTION,
    ),
    (
        "sampler-redraw-bound-off-by-one",
        "reduction.py",
        "        while n1 >= 60:\n",
        "        while n1 > 60:\n",
        REDUCTION,
    ),
    (
        "generator-check-skips-the-off-diagonal-term",
        "reduction.py",
        "if q11 <= 0 or q12 != 0 or q22 * A != -q11 * B:",
        "if q11 <= 0 or q22 * A != -q11 * B:",
        REDUCTION,
    ),
    (
        "locate-upper-cross-sign-flipped",
        "reduction.py",
        "        elif x * hy - y * hx < open_high:  # p lies above g^k pi\n",
        "        elif y * hx - x * hy < open_high:  # p lies above g^k pi\n",
        REDUCTION,
    ),
    (
        "sampler-offset-on-the-wrong-denominator",
        "reduction.py",
        "x, y = (n1 + 1) * (d2 + 1), (n2 - 60) * (d1 + 1)",
        "x, y = (n1 + 1) * (d1 + 1), (n2 - 60) * (d2 + 1)",
        REDUCTION,
    ),
    (
        "slope-range-skips-samples-past-a-gap",
        "reduction.py",
        "    widen = not witnesses\n",
        "    widen = True\n",
        REDUCTION,
    ),
    (
        "slope-range-widened-by-an-unlocated-sample",
        "reduction.py",
        "            words_used = max(words_used, abs(k))\n"
        "            if widen:\n"
        "                if lx * y - ly * x < 0:\n"
        "                    lx, ly = x, y\n"
        "                if x * hy - y * hx < 0:\n"
        "                    hx, hy = x, y\n"
        "        else:\n",
        "            words_used = max(words_used, abs(k))\n"
        "        if widen:\n"
        "            if lx * y - ly * x < 0:\n"
        "                lx, ly = x, y\n"
        "            if x * hy - y * hx < 0:\n"
        "                hx, hy = x, y\n"
        "        if k is None:\n",
        REDUCTION,
    ),
    (
        "adjacency-pre-check-threshold-off-by-one",
        "polyhedral.py",
        "                if common.bit_count() < need:\n",
        "                if common.bit_count() < need + 1:\n",
        POLYHEDRAL,
    ),
    (
        "double-description-leaves-zero-rays-unmarked",
        "polyhedral.py",
        "            elif s == 0:\n                r[1] |= bit\n",
        "            elif s == 0:\n",
        POLYHEDRAL,
    ),
    (
        "intersection-drops-the-implicit-normals",
        "polyhedral.py",
        "            kept[n] = t\n",
        "            pass\n",
        POLYHEDRAL,
    ),
    (
        "intersection-treats-implicit-normals-as-facets",
        "polyhedral.py",
        "    every = (1 << len(vectors)) - 1\n",
        "    every = -1\n",
        POLYHEDRAL,
    ),
    (
        "intersection-keeps-the-first-normal-per-tight-set",
        "polyhedral.py",
        "elif t not in least or n < least[t]:",
        "elif t not in least:",
        POLYHEDRAL,
    ),
    (
        "intersection-skips-the-maximality-scan",
        "polyhedral.py",
        "        if not any(m & t == t for m in maximal):\n",
        "        if True:\n",
        POLYHEDRAL,
    ),
    (
        "cone-eq-or",
        "polyhedral.py",
        "return self.dim == other.dim and set(self.rays) == set(other.rays)",
        "return self.dim == other.dim or set(self.rays) == set(other.rays)",
        POLYHEDRAL,
    ),
    (
        "point-reader-passes-a-mixed-point-unscaled",
        "errors.py",
        "    if set(map(type, v)) != _INT:\n",
        "    if int not in map(type, v):\n",
        READERS,
    ),
    (
        "member-passes-a-mixed-point-unscaled",
        "polyhedral.py",
        "or set(map(type, v)) != _INT:",
        "or int not in map(type, v):",
        READERS + POLYHEDRAL,
    ),
    (
        "kind-check-accepts-any-value",
        "hermitian.py",
        "    if not isinstance(kind, ScalarKind):\n"
        '        raise InvalidInput(f"unknown scalar kind {kind!r}; expected a ScalarKind")\n',
        "",
        HERMITIAN,
    ),
    (
        "simple-factor-accepts-any-albert",
        "abelian.py",
        "        if not isinstance(albert, AlbertRealType):\n"
        '            raise InvalidInput(f"albert must be an AlbertRealType, not {type(albert).__name__}")\n',
        "",
        ["tests/test_records.py", "tests/test_arguments.py"],
    ),
    (
        "bauer-counts-with-ge",
        "abelian.py",
        "return picard_number(model) == len(model.factors)",
        "return picard_number(model) >= len(model.factors)",
        ["tests/test_abelian.py"],
    ),
    (
        "block-accepts-any-origin",
        "abelian.py",
        "        if not isinstance(origin, str):\n"
        '            raise InvalidInput("block origin must be a string")\n',
        "",
        ["tests/test_records.py", "tests/test_arguments.py"],
    ),
    (
        "inverse-skips-the-conjugate",
        "scalars.py",
        "tuple(c * self._den for c in self._conjugate(self._num))",
        "tuple(c * self._den for c in self._num)",
        SCALARS,
    ),
    (
        "rsub-adds-self-not-its-negation",
        "scalars.py",
        "return (-self).__add__(other)",
        "return self.__add__(other)",
        SCALARS,
    ),
    (
        "action-skips-the-invertibility-check",
        "hermitian.py",
        "    if not on_cone and not _is_invertible(M):\n",
        "    if False:\n",
        HERMITIAN,
    ),
    (
        "invertibility-accepts-semidefinite",
        "hermitian.py",
        "    return _in_cone(_image(M, HermitianMatrix.identity(M.kind, M.size)), False)\n",
        "    return _in_cone(_image(M, HermitianMatrix.identity(M.kind, M.size)), True)\n",
        HERMITIAN,
    ),
    (
        "action-on-a-positive-definite-matrix-skips-the-result-check",
        "hermitian.py",
        "    if on_cone and not _in_cone(image, False):\n",
        "    if False:\n",
        HERMITIAN,
    ),
    (
        "complex-conjugate-keeps-the-imaginary-sign",
        "scalars.py",
        "        return (num[0], -num[1])\n",
        "        return (num[0], num[1])\n",
        SCALARS,
    ),
    (
        "quaternion-conjugate-drops-one-sign",
        "scalars.py",
        "        return (a, -b, -c, -d)\n",
        "        return (a, -b, -c, d)\n",
        SCALARS,
    ),
    (
        "trusted-matrix-swaps-the-rows-and-denominator-setters",
        "hermitian.py",
        "    _set_rows(m, rows)\n    _set_den(m, den)\n",
        "    _set_den(m, rows)\n    _set_rows(m, den)\n",
        HERMITIAN,
    ),
    (
        "trial-division-has-no-limit",
        "scalars.py",
        "        if p > _TRIAL_LIMIT:\n",
        "        if False:\n",
        # a 100-bit prime then takes about 5 * 10^8 divisions; the CLI test
        # runs it in a subprocess with a 10 s timeout, so the row fails fast
        ["tests/test_cli.py::TestExitCodes::test_integer_too_large_to_factor_is_two"],
    ),
    (
        "totally-positive-zero",
        "scalars.py",
        "return x.sign() > 0 and x.conjugate().sign() > 0",
        # both compares: 0 is the one element of sign 0, and so is its
        # conjugate, so either compare alone still calls 0 not positive
        "return x.sign() >= 0 and x.conjugate().sign() >= 0",
        SCALARS,
    ),
    (
        "unit-centre-formulas-swapped",
        "scalars.py",
        "            k, norm = k * k + k_prev * k_prev, -1\n"
        "            break\n"
        "        if m_next == m:  # L = 2s, and k_{s-2} = k - a * k_prev\n"
        "            k, norm = k_prev * (2 * k - a * k_prev), 1\n",
        "            k, norm = k_prev * (2 * k - a * k_prev), -1\n"
        "            break\n"
        "        if m_next == m:  # L = 2s, and k_{s-2} = k - a * k_prev\n"
        "            k, norm = k * k + k_prev * k_prev, 1\n",
        SCALARS,
    ),
    (
        "unit-odd-centre-test-starts-one-step-late",
        "scalars.py",
        "        if q_next == q:  # L = 2s + 1\n",
        "        if q_next == q and m:  # L = 2s + 1\n",
        SCALARS,
    ),
    (
        "unit-odd-centre-norm-sign-flipped",
        "scalars.py",
        "            k, norm = k * k + k_prev * k_prev, -1\n",
        "            k, norm = k * k + k_prev * k_prev, 1\n",
        SCALARS,
    ),
    (
        "trusted-action-backward-matrix-loses-a-sign",
        "reduction.py",
        "        _bwd=((g22, -g12), (-g21, g11)),\n",
        "        _bwd=((g22, g12), (-g21, g11)),\n",
        ["tests/test_abelian.py"],
    ),
    (
        "translate-slope-order-reversed",
        "reduction.py",
        "    if len(rays) == 2 and _cross(*rays) < 0:  # listed high, then low\n",
        "    if len(rays) == 2 and _cross(*rays) > 0:  # listed high, then low\n",
        REDUCTION,
    ),
    (
        "sampler-reach-one-short",
        "reduction.py",
        "    reach = math.isqrt((A * 1440000 - 1) // B)\n",
        "    reach = math.isqrt((A * 1440000 - 1) // B) - 1\n",
        # where b/a >= 1200^2 the short reach is -1 and the sampler never
        # returns, so the selection is the stream test alone, whose cases
        # at those ratios come last and are not reached under -x
        ["tests/test_reduction.py::TestVerifyFundamentalDomain::test_reach_cut_keeps_the_sample_stream"],
    ),
    (
        "domain-cone-masks-swapped",
        "abelian.py",
        "((-y, x), (v[1], -v[0])), (1, 2))",
        "((-y, x), (v[1], -v[0])), (2, 1))",
        ["tests/test_abelian.py"],
    ),
    (
        "domain-cone-low-normal-negated",
        "abelian.py",
        "((-y, x), (v[1], -v[0]))",
        "((y, -x), (v[1], -v[0]))",
        ["tests/test_abelian.py"],
    ),
    (
        "cone-member-ignores-closed",
        "hermitian.py",
        "_in_cone(part, closed)",
        "_in_cone(part, False)",
        HERMITIAN,
    ),
]


def _copy(target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, target / name)


def _passes(copy: Path, selection) -> bool | None:
    """Whether the selection passes on the copy; None when it runs past
    ``TIMEOUT`` seconds, as a mutant that makes a loop never end does."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection],
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None
    return result.returncode == 0


def run(rows) -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="amplecones-mutants-") as tmp:
        baseline = Path(tmp) / "baseline"
        _copy(baseline)
        selections = sorted({path for *_, selection in rows for path in selection})
        if not _passes(baseline, selections):
            print(f"baseline: selection fails on the unchanged code: {selections}")
            return 1
        for index, (ident, name, old, new, selection) in enumerate(rows):
            copy = Path(tmp) / f"mutant{index}"
            _copy(copy)
            path = copy / "src" / "amplecones" / name
            text = path.read_text(encoding="utf-8")
            found = text.count(old)
            if found != 1:
                print(f"{ident}: old text occurs {found} times in {name}")
                failures += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            survived = _passes(copy, selection)
            verdict = {True: "SURVIVED", False: "killed", None: "killed (timeout)"}[survived]
            print(f"{ident}: {verdict}")
            failures += survived is True
            shutil.rmtree(copy)
    return 1 if failures else 0


def main(argv) -> int:
    rows = [row for row in MUTANTS if not argv or row[0] in argv]
    unknown = set(argv) - {row[0] for row in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {sorted(unknown)}")
        return 2
    return run(rows)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
