"""Exception hierarchy shared across the package.

Every error raised by library code derives from MolhamError so the CLI can
map library failures to a single exit code.
"""

from __future__ import annotations


class MolhamError(Exception):
    """Base class for all package errors."""


# --- SMILES handling ---

class SmilesError(MolhamError):
    """Base for tokenizer/parser failures."""


class UnknownSymbol(SmilesError):
    pass


class UnterminatedBracket(SmilesError):
    pass


class UnmatchedRingClosure(SmilesError):
    pass


class UnbalancedBranch(SmilesError):
    pass


class ValenceExceeded(SmilesError):
    pass


class LengthMismatch(MolhamError):
    pass


# --- numeric engine ---

class ShapeMismatch(MolhamError):
    pass


class NonFiniteValue(MolhamError):
    pass


class TapeConsumed(MolhamError):
    """backward was called again on a tape that has already released its nodes."""


# --- encoders / embedding plumbing ---

class UnknownTokenKind(MolhamError):
    pass


class NonFiniteCoordinate(MolhamError):
    pass


class ZeroNormRow(MolhamError):
    pass


class IndexOutOfRange(MolhamError):
    pass


class EmptyBatch(MolhamError):
    pass


# --- matrices and spectra ---

class UnsupportedElement(MolhamError):
    pass


class DimensionMismatch(MolhamError):
    pass


class NotSymmetric(MolhamError):
    pass


class NoConvergence(MolhamError):
    pass


class NotPositiveDefinite(MolhamError):
    pass


class OddElectronCount(MolhamError):
    pass


class NoVirtualOrbital(MolhamError):
    """All orbitals occupied: the gap is undefined for this system."""


# --- data generation ---

class EmbedFailure(MolhamError):
    pass


class EmptySplit(MolhamError):
    pass


# --- training / checkpoints ---

class VersionMismatch(MolhamError):
    pass


class CorruptFile(MolhamError):
    pass


class AuditFailed(MolhamError):
    """A run broke one of its own invariants, e.g. string-only training read coordinates."""


class TrainingAborted(MolhamError):
    """Non-finite loss or gradient; carries the offending record index, or None
    when a gradient shared by the whole batch is to blame."""

    def __init__(self, message: str, record_index: int | None = None):
        super().__init__(message)
        self.record_index = record_index


# --- screening ---

class EmptyThresholds(MolhamError):
    pass
