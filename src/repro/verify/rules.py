"""Lint rule catalog: torus-discipline and transform-usage rules.

Every rule flags a construct that historically breaks TFHE fixed-point
reproductions (FPT and MATCHA both call this class of bug out): torus
numerators silently leaving exact mod-2^32 arithmetic, precision-losing
dtypes, or transform code bypassing the instrumented, tested wrappers in
:mod:`repro.transforms`.

Scopes
------
``RPR001``/``RPR002`` apply to ``repro/tfhe`` outside ``torus.py`` (the
one module allowed to spell out raw reductions - it *defines* the
discipline).  ``RPR003`` applies to all tfhe modules.  ``RPR004``
applies everywhere except ``repro/transforms/negacyclic.py`` (the one
module that runs a transform, so nothing else imports ``numpy.fft``).  ``RPR005``
applies package-wide.  ``RPR006`` shares RPR001's scope: ``torus.py``
owns the rounding conventions, so truncating divisions elsewhere are
suspect.  ``RPR004``/``RPR005`` resolve names through the module's
numpy imports (:func:`numpy_uses`).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .diagnostics import Severity
from .lint import ModuleScope, lint_rule

__all__ = ["NARROW_DTYPES", "FLOAT_DTYPES", "LEGACY_RNG_FUNCS", "numpy_uses"]

_NUMPY_NAMES = ("np", "numpy")

FLOAT_DTYPES = ("float64", "float32", "float16")
NARROW_DTYPES = ("float32", "float16", "int8", "uint8", "int16", "uint16")
LEGACY_RNG_FUNCS = (
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "choice", "shuffle", "permutation", "normal", "uniform",
    "binomial", "poisson", "exponential",
)

_Q = 1 << 32
_MASK = _Q - 1


def _is_numpy(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in _NUMPY_NAMES


def _numpy_attr(node: ast.AST) -> str:
    """``'x'`` when ``node`` is ``np.x``/``numpy.x``, else ``''``."""
    if isinstance(node, ast.Attribute) and _is_numpy(node.value):
        return node.attr
    return ""


def _const_value(node: ast.AST) -> Optional[int]:
    """Fold the handful of constant spellings of q/masks: ``2**32``,
    ``1 << 32``, ``0x100000000``, ``0xFFFFFFFF``, optionally wrapped in a
    ``np.uint32``/``np.uint64`` cast."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.BinOp):
        left = _const_value(node.left)
        right = _const_value(node.right)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.LShift):
            return left << right
        if isinstance(node.op, ast.Pow):
            return left ** right
        if isinstance(node.op, ast.Sub):
            return left - right
        return None
    if (isinstance(node, ast.Call) and not node.keywords
            and len(node.args) == 1
            and _numpy_attr(node.func) in ("uint32", "uint64", "int64")):
        return _const_value(node.args[0])
    return None


def numpy_uses(tree: ast.AST) -> List[Tuple[int, str, str, bool]]:
    """``(line, numpy path, spelling, is_call)`` of every maximal
    ``Name``/``Attribute`` chain in ``tree`` whose base name means numpy,
    in line order.

    A name means what a numpy import anywhere in the module binds it to:
    ``import numpy.fft as F`` and ``from numpy import fft as F`` both
    make ``F.rfft`` mean ``numpy.fft.rfft``.  Assignments, ``del`` and
    parameters never rebind a name for the lint.  ``np`` and ``numpy``
    mean numpy unless the module imports those names itself, so
    ``import torch as np`` leaves ``np`` untracked.
    """
    table: Dict[str, str] = {}
    imported: Set[str] = set()
    inner: Set[int] = set()
    callees: Set[int] = set()
    chains: List[ast.expr] = []
    for node in ast.walk(tree):  # yields a chain before its inner links
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in inner:
            chains.append(node)
        if isinstance(node, ast.Attribute):
            inner.add(id(node.value))
        elif isinstance(node, ast.Call):
            callees.add(id(node.func))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if isinstance(node, ast.Import):
                    path = alias.name if alias.asname else name
                else:  # a relative import binds the name, never to numpy
                    path = "" if node.level else f"{node.module}.{alias.name}"
                imported.add(name)
                if path == "numpy" or path.startswith("numpy."):
                    table[name] = path
    table.update({n: "numpy" for n in ("np", "numpy") if n not in imported})
    uses: List[Tuple[int, str, str, bool]] = []
    for node in chains:
        attrs: List[str] = []
        base = node
        while isinstance(base, ast.Attribute):
            attrs.insert(0, base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in table:
            uses.append((node.lineno, ".".join([table[base.id]] + attrs),
                         ".".join([base.id] + attrs), id(node) in callees))
    return sorted(uses)


# ----------------------------------------------------------------------
# RPR001 - raw mod-2^32 reduction outside repro.tfhe.torus
# ----------------------------------------------------------------------
@lint_rule(
    "RPR001", "raw-torus-reduction",
    "raw `% 2**32` / `& 0xFFFFFFFF` outside repro.tfhe.torus; use "
    "to_torus/torus_dot so the reduction convention stays centralized",
    applies=lambda s: s.in_tfhe and not s.is_torus,
)
def _raw_reduction(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.BinOp):
            continue
        if isinstance(node.op, ast.Mod) and _const_value(node.right) == _Q:
            yield (node.lineno,
                   "raw modulo-2**32 reduction; use repro.tfhe.torus.to_torus")
        elif isinstance(node.op, ast.BitAnd) and _MASK in (
                _const_value(node.left), _const_value(node.right)):
            yield (node.lineno,
                   "raw & 0xFFFFFFFF mask; use repro.tfhe.torus helpers "
                   "(to_torus / torus_dot / torus_scalar_mul)")


# ----------------------------------------------------------------------
# RPR002 - float conversion of torus data outside repro.tfhe.torus
# ----------------------------------------------------------------------
@lint_rule(
    "RPR002", "float-escape",
    ".astype(float) on torus arrays outside repro.tfhe.torus; floats "
    "lose the exact mod-2**32 discipline - use to_double or justify the "
    "transform boundary with a suppression",
    applies=lambda s: s.in_tfhe and not s.is_torus,
)
def _float_escape(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args):
            continue
        arg = node.args[0]
        is_float = (
            (isinstance(arg, ast.Name) and arg.id == "float")
            or _numpy_attr(arg) in FLOAT_DTYPES
        )
        if is_float:
            yield (node.lineno,
                   "float conversion of a torus-typed array; route through "
                   "repro.tfhe.torus.to_double or suppress at a declared "
                   "transform boundary")


# ----------------------------------------------------------------------
# RPR003 - precision-losing dtype literal in tfhe modules
# ----------------------------------------------------------------------
@lint_rule(
    "RPR003", "narrow-dtype",
    "narrow dtype literal (float32/float16/int8/...) in a tfhe module; "
    "torus numerators need full uint32/uint64 (or int64 intermediary) width",
    applies=lambda s: s.in_tfhe,
)
def _narrow_dtype(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        attr = _numpy_attr(node)
        if attr in NARROW_DTYPES:
            yield (node.lineno,
                   f"np.{attr} cannot hold 32-bit torus numerators exactly")


# ----------------------------------------------------------------------
# RPR004 - numpy.fft bypassing repro.transforms
# ----------------------------------------------------------------------
@lint_rule(
    "RPR004", "direct-numpy-fft",
    "direct numpy.fft usage outside repro.transforms; use its negacyclic "
    "wrappers so transform counts stay observable (names resolve through "
    "the module's imports: `import numpy as xp` is caught)",
    applies=lambda s: not s.is_negacyclic,
)
def _direct_fft(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "numpy.fft" or module.startswith("numpy.fft."):
                yield (node.lineno, "import from numpy.fft; use repro.transforms")
            elif module == "numpy" and any(a.name == "fft" for a in node.names):
                yield (node.lineno, "import of numpy's fft; use repro.transforms")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if (alias.name == "numpy.fft"
                        or alias.name.startswith("numpy.fft.")):
                    yield (node.lineno,
                           "import of numpy.fft; use repro.transforms")
    for lineno, path, spelled, _ in numpy_uses(tree):
        # Strict children only: holding a reference to the module
        # (`F = np.fft`) is fine until a transform is actually called.
        if path.startswith("numpy.fft."):
            alias_note = ("" if spelled in (path, path.replace("numpy", "np", 1))
                          else f" (= {path})")
            yield (lineno,
                   f"{spelled}{alias_note} bypasses repro.transforms "
                   f"(the instrumented negacyclic FFT)")


# ----------------------------------------------------------------------
# RPR005 - legacy global numpy RNG
# ----------------------------------------------------------------------
@lint_rule(
    "RPR005", "global-rng",
    "legacy np.random.* global-state call; experiments must stay "
    "reproducible - thread a seeded np.random.Generator instead "
    "(names resolve through the module's imports: `import numpy as xp` "
    "is caught)",
    applies=lambda s: True,
    severity=Severity.WARNING,
)
def _global_rng(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    for lineno, path, spelled, is_call in numpy_uses(tree):
        if not is_call or not path.startswith("numpy.random."):
            continue
        if path[len("numpy.random."):] in LEGACY_RNG_FUNCS:
            yield (lineno,
                   f"{spelled}() draws from hidden global state; use "
                   f"np.random.default_rng(seed)")


# ----------------------------------------------------------------------
# RPR006 - unchecked int() truncation of a torus division
# ----------------------------------------------------------------------
#: Calls whose results are already correctly rounded: wrapping a division
#: in one of these before ``int()`` is the sanctioned pattern.
ROUNDING_FUNCS = (
    "round", "floor", "ceil", "rint",
    "modswitch", "decode_message", "round_to_multiple",
)


def _is_rounding_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ROUNDING_FUNCS
    if isinstance(func, ast.Attribute):
        return func.attr in ROUNDING_FUNCS
    return False


def _has_bare_division(node: ast.AST) -> bool:
    """True when the subtree contains a ``/`` not guarded by a rounding call.

    Floor division (``//``) stays exact in integer arithmetic and the
    half-step-offset idiom ``(t + s // 2) // s`` is the *correct* decode
    spelling, so only true division counts.
    """
    if _is_rounding_call(node):
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    return any(_has_bare_division(child) for child in ast.iter_child_nodes(node))


@lint_rule(
    "RPR006", "int-truncation",
    "int() around a bare `/` division truncates toward zero instead of "
    "rounding to nearest - the classic off-by-half-step decode bug; wrap "
    "the division in round()/np.rint() or use the repro.tfhe.torus "
    "helpers (modswitch, decode_message, round_to_multiple)",
    applies=lambda s: s.in_tfhe and not s.is_torus,
)
def _int_truncation(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "int"
                and len(node.args) == 1
                and not node.keywords
                and _has_bare_division(node.args[0])):
            yield (node.lineno,
                   "int() truncation of a true division; torus decoding "
                   "must round to nearest (round(), np.rint, or a "
                   "repro.tfhe.torus helper)")
