"""Exception types shared across the solver suite."""

import operator


class GrinblatError(Exception):
    """Base class for all errors raised by this package."""


class HypothesisViolation(GrinblatError):
    """The kernel-size hypothesis required by the constructive solver fails."""


class InternalLogicError(GrinblatError):
    """A step that is guaranteed to succeed did not.

    This always indicates an implementation bug, never bad input.  The
    message carries the failing step's name and a digest of the state.
    """

    def __init__(self, step: str, detail: str = ""):
        self.step = step
        self.detail = detail
        super().__init__(f"{step}: {detail}" if detail else step)


_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


def certify(step: str, name: str, lhs, op: str, rhs) -> None:
    """Check one counting inequality of the argument, ``lhs op rhs`` with
    ``op`` one of "<=", ">=" and "==".  If it fails, raise
    InternalLogicError(step) naming the inequality and both sides."""
    if not _OPS[op](lhs, rhs):
        raise InternalLogicError(step, f"{name} fails: {lhs} {op} {rhs}")


class CompletionImpossible(GrinblatError):
    """The completion engine could not fill in the remaining relations."""


class ParseError(GrinblatError):
    """Malformed instance or matching file."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")
