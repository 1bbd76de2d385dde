"""Exception and warning types shared across the package."""

from __future__ import annotations

from contextlib import contextmanager


class ConfigurationError(ValueError):
    """Invalid model, schedule, or run parameters.

    Carries an optional dotted JSON path so config errors can point at the
    offending field. A spec's ``validate`` names fields relative to the spec;
    :func:`error_path` puts the spec's own path in front.
    """

    def __init__(self, message: str, path: str | None = None):
        self.message = message
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def join_path(prefix: str, rel: str | None) -> str:
    """``rel`` below ``prefix``: a key after a dot, an index directly; the
    sections of the scenario root ``$`` are named bare."""
    if rel is None:
        return prefix
    if rel.startswith("["):
        return prefix + rel
    return rel if prefix == "$" else f"{prefix}.{rel}"


@contextmanager
def error_path(prefix: str):
    """Re-raise a :class:`ConfigurationError` with its path below
    ``prefix``."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(exc.message,
                                 join_path(prefix, exc.path)) from exc


class BudgetExceededError(RuntimeError):
    """A simulation exceeded its cycle or event budget."""


class HypothesisError(RuntimeError):
    """A time schedule fails the divergence/ratio hypotheses and no override
    was requested."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__("schedule fails the ratio hypotheses; "
                         "pass allow_hypothesis_fail=True to run anyway")


class ArithmeticCyclesWarning(UserWarning):
    """Cycle lengths live on a lattice; the limit theory assumes a
    nonarithmetic law, so results are for negative controls only."""
