"""Templated function type signatures (paper section 4.2).

Every built-in that consumes or produces vectors/matrices declares a
signature such as::

    matrix_multiply(MATRIX[a][b], MATRIX[b][c]) -> MATRIX[a][c]
    diag(MATRIX[a][a]) -> VECTOR[a]

where lower-case letters are *dimension variables*. Binding a signature
against the declared types of the actual arguments:

* binds each variable to the concrete dimension it meets;
* raises :class:`TypeCheckError` when a variable would need two different
  values, or when a concrete dimension in the signature conflicts with the
  arguments — this is the paper's compile-time size checking;
* leaves a variable unbound when the argument dimension is unspecified in
  the schema (``VECTOR[]``), in which case the check is deferred to run
  time and the corresponding result dimension is unknown.

The bound result type gives the optimizer the exact size of the function's
output, which drives size-aware plan costing (section 4.1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import TypeCheckError
from .tensor import Matrix, Vector
from .scalar import (
    BOOLEAN,
    DOUBLE,
    INTEGER,
    LABELED_SCALAR,
    STRING,
    DataType,
    DoubleType,
    IntegerType,
    LabeledScalarType,
    MatrixType,
    VectorType,
)

#: A dimension inside a signature: a concrete size, a variable name, or
#: None meaning "anything" (used rarely; variables are preferred).
SigDim = Union[int, str, None]


@dataclass(frozen=True)
class SigScalar:
    """A scalar parameter/result in a signature.

    ``kind`` is one of ``INTEGER``, ``DOUBLE``, ``BOOLEAN``, ``STRING``,
    ``LABELED_SCALAR`` or ``NUMERIC`` (any numeric scalar; arguments of
    integer type are implicitly promoted where a DOUBLE is expected).
    """

    kind: str

    def __repr__(self):
        return self.kind


@dataclass(frozen=True)
class SigVector:
    dim: SigDim

    def __repr__(self):
        return f"VECTOR[{_dim_str(self.dim)}]"


@dataclass(frozen=True)
class SigMatrix:
    rows: SigDim
    cols: SigDim

    def __repr__(self):
        return f"MATRIX[{_dim_str(self.rows)}][{_dim_str(self.cols)}]"


SigType = Union[SigScalar, SigVector, SigMatrix]


def _dim_str(dim: SigDim) -> str:
    return "" if dim is None else str(dim)


_SCALAR_KINDS = {"INTEGER", "DOUBLE", "BOOLEAN", "STRING", "LABELED_SCALAR", "NUMERIC"}

_SIG_RE = re.compile(
    r"^\s*(?P<name>\w+)\s*\(\s*(?P<params>.*?)\s*\)\s*->\s*(?P<result>.+?)\s*$"
)
_SIG_VECTOR_RE = re.compile(r"^VECTOR\s*\[\s*([a-z]\w*|\d+)?\s*\]$", re.IGNORECASE)
_SIG_MATRIX_RE = re.compile(
    r"^MATRIX\s*\[\s*([a-z]\w*|\d+)?\s*\]\s*\[\s*([a-z]\w*|\d+)?\s*\]$", re.IGNORECASE
)


def _parse_sig_dim(token: Optional[str]) -> SigDim:
    if token is None or token == "":
        return None
    if token.isdigit():
        return int(token)
    return token  # a dimension variable such as 'a'


def parse_sig_type(text: str) -> SigType:
    """Parse one signature-side type, e.g. ``MATRIX[a][b]`` or ``DOUBLE``."""
    stripped = text.strip()
    upper = stripped.upper()
    if upper in _SCALAR_KINDS:
        return SigScalar(upper)
    match = _SIG_VECTOR_RE.match(stripped)
    if match:
        return SigVector(_parse_sig_dim(match.group(1)))
    match = _SIG_MATRIX_RE.match(stripped)
    if match:
        return SigMatrix(_parse_sig_dim(match.group(1)), _parse_sig_dim(match.group(2)))
    raise ValueError(f"malformed signature type {text!r}")


def _split_params(text: str) -> List[str]:
    """Split a parameter list on top-level commas (brackets never nest
    here, but commas can appear inside none of our types, so a plain split
    suffices after trimming)."""
    if not text.strip():
        return []
    return [part for part in (piece.strip() for piece in text.split(",")) if part]


class Signature:
    """A parsed, bindable function signature."""

    def __init__(self, name: str, params: Sequence[SigType], result: SigType):
        self.name = name
        self.params = list(params)
        self.result = result

    @classmethod
    def parse(cls, text: str) -> "Signature":
        """Parse e.g. ``"diag(MATRIX[a][a]) -> VECTOR[a]"``."""
        match = _SIG_RE.match(text)
        if not match:
            raise ValueError(f"malformed signature {text!r}")
        params = [parse_sig_type(part) for part in _split_params(match.group("params"))]
        result = parse_sig_type(match.group("result"))
        return cls(match.group("name"), params, result)

    @property
    def arity(self) -> int:
        return len(self.params)

    def bind(self, arg_types: Sequence[DataType]) -> DataType:
        """Type-check ``arg_types`` against this signature and return the
        concrete result type (with unknown dims where undecidable).

        Raises :class:`TypeCheckError` on any compile-time mismatch.
        """
        if len(arg_types) != len(self.params):
            raise TypeCheckError(
                f"{self.name} expects {len(self.params)} argument(s), "
                f"got {len(arg_types)}"
            )
        bindings: Dict[str, int] = {}
        for position, (param, arg) in enumerate(zip(self.params, arg_types), start=1):
            self._check_param(param, arg, position, bindings)
        return self._resolve_result(bindings)

    # -- checking one parameter ------------------------------------------

    def _check_param(
        self,
        param: SigType,
        arg: DataType,
        position: int,
        bindings: Dict[str, int],
    ) -> None:
        if isinstance(param, SigScalar):
            self._check_scalar(param, arg, position)
            return
        if isinstance(param, SigVector):
            if not isinstance(arg, VectorType):
                self._fail(position, param, arg)
            self._unify(param.dim, arg.length, position, "length", bindings)
            return
        if isinstance(param, SigMatrix):
            if not isinstance(arg, MatrixType):
                self._fail(position, param, arg)
            self._unify(param.rows, arg.rows, position, "row count", bindings)
            self._unify(param.cols, arg.cols, position, "column count", bindings)
            return
        raise AssertionError(f"unhandled signature type {param!r}")

    def _check_scalar(self, param: SigScalar, arg: DataType, position: int) -> None:
        kind = param.kind
        if kind == "NUMERIC":
            if not arg.is_numeric() or arg.is_tensor():
                self._fail(position, param, arg)
            return
        if kind == "DOUBLE":
            # integers and labeled scalars promote to double
            if not isinstance(arg, (DoubleType, IntegerType, LabeledScalarType)):
                self._fail(position, param, arg)
            return
        if kind == "INTEGER":
            if not isinstance(arg, IntegerType):
                self._fail(position, param, arg)
            return
        expected = {
            "BOOLEAN": BOOLEAN,
            "STRING": STRING,
            "LABELED_SCALAR": LABELED_SCALAR,
        }[kind]
        if arg != expected:
            self._fail(position, param, arg)

    def _fail(self, position: int, param: SigType, arg: DataType) -> None:
        raise TypeCheckError(
            f"{self.name}: argument {position} must be {param!r}, got {arg!r}"
        )

    def _unify(
        self,
        sig_dim: SigDim,
        arg_dim: Optional[int],
        position: int,
        what: str,
        bindings: Dict[str, int],
    ) -> None:
        if sig_dim is None:
            return
        if isinstance(sig_dim, int):
            if arg_dim is not None and arg_dim != sig_dim:
                raise TypeCheckError(
                    f"{self.name}: argument {position} {what} must be "
                    f"{sig_dim}, got {arg_dim}"
                )
            return
        # sig_dim is a dimension variable
        if arg_dim is None:
            return  # unknown at compile time; checked at run time
        bound = bindings.get(sig_dim)
        if bound is None:
            bindings[sig_dim] = arg_dim
        elif bound != arg_dim:
            raise TypeCheckError(
                f"{self.name}: dimension mismatch — variable '{sig_dim}' "
                f"bound to {bound} but argument {position} has {what} {arg_dim}"
            )

    # -- producing the result type ---------------------------------------

    def _resolve_dim(self, dim: SigDim, bindings: Dict[str, int]) -> Optional[int]:
        if dim is None:
            return None
        if isinstance(dim, int):
            return dim
        return bindings.get(dim)

    def _resolve_result(self, bindings: Dict[str, int]) -> DataType:
        result = self.result
        if isinstance(result, SigScalar):
            return {
                "INTEGER": INTEGER,
                "DOUBLE": DOUBLE,
                "BOOLEAN": BOOLEAN,
                "STRING": STRING,
                "LABELED_SCALAR": LABELED_SCALAR,
                "NUMERIC": DOUBLE,
            }[result.kind]
        if isinstance(result, SigVector):
            return VectorType(self._resolve_dim(result.dim, bindings))
        if isinstance(result, SigMatrix):
            return MatrixType(
                self._resolve_dim(result.rows, bindings),
                self._resolve_dim(result.cols, bindings),
            )
        raise AssertionError(f"unhandled signature result {result!r}")

    def __repr__(self) -> str:
        params = ", ".join(repr(param) for param in self.params)
        return f"{self.name}({params}) -> {self.result!r}"


def value_shape(value) -> tuple:
    """A runtime value's tensor shape: ``(length,)`` for a Vector,
    ``(rows, cols)`` for a Matrix, ``()`` for anything else."""
    if isinstance(value, (Vector, Matrix)):
        return value.data.shape
    return ()


def runtime_shape_check(
    signature: Signature, args: Sequence[object]
) -> Tuple[bool, str]:
    """Check *values* (Vector/Matrix instances) against a signature's
    dimension constraints; used for dims left unspecified in the schema.

    Returns ``(ok, message)``; ``message`` is empty when ``ok``.
    """
    return shape_check(signature, [value_shape(arg) for arg in args])


def shape_check(signature: Signature, shapes: Sequence[tuple]) -> Tuple[bool, str]:
    """:func:`runtime_shape_check` over argument shapes (see
    :func:`value_shape`), so a whole dense column is checked at once."""
    bindings: Dict[str, int] = {}

    def check(sig_dim: SigDim, actual: int, position: int, what: str):
        if sig_dim is None:
            return True, ""
        if isinstance(sig_dim, int):
            if actual != sig_dim:
                return False, (
                    f"{signature.name}: argument {position} {what} must "
                    f"be {sig_dim}, got {actual}"
                )
            return True, ""
        bound = bindings.get(sig_dim)
        if bound is None:
            bindings[sig_dim] = actual
            return True, ""
        if bound != actual:
            return False, (
                f"{signature.name}: dimension mismatch at run time — "
                f"'{sig_dim}' was {bound} but argument {position} has "
                f"{what} {actual}"
            )
        return True, ""

    for position, (param, shape) in enumerate(zip(signature.params, shapes), start=1):
        if isinstance(param, SigVector) and len(shape) == 1:
            ok, message = check(param.dim, shape[0], position, "length")
            if not ok:
                return ok, message
        elif isinstance(param, SigMatrix) and len(shape) == 2:
            ok, message = check(param.rows, shape[0], position, "row count")
            if not ok:
                return ok, message
            ok, message = check(param.cols, shape[1], position, "column count")
            if not ok:
                return ok, message
    return True, ""
