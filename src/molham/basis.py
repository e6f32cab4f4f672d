"""Toy orbital basis: per-element orbital definitions and electron counts.

Hydrogen carries a single s orbital; the supported heavy elements carry an
s orbital plus one effective p orbital. Onsite energies follow conventional
valence-state ionization potentials (hydrogen pinned at the hydrogenic
-0.5 Hartree); Gaussian exponents set the range of the overlap model. These
constants define the built-in ground-truth generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedElement

HARTREE_TO_EV = 27.2114  # single conversion constant for the whole package
ANGSTROM_TO_BOHR = 1.8897259886

_EV = HARTREE_TO_EV


@dataclass(frozen=True)
class Orbital:
    label: str       # "s" or "p"
    exponent: float  # Gaussian exponent, bohr^-2
    onsite: float    # onsite energy, Hartree


@dataclass(frozen=True)
class OrbitalBasisSpec:
    orbitals: dict[str, tuple[Orbital, ...]]
    electrons: dict[str, int]

    def orbitals_for(self, element: str) -> tuple[Orbital, ...]:
        try:
            return self.orbitals[element]
        except KeyError:
            raise UnsupportedElement(f"element {element!r} has no basis entry") from None

    def electrons_for(self, element: str) -> int:
        try:
            return self.electrons[element]
        except KeyError:
            raise UnsupportedElement(f"element {element!r} has no electron count") from None

    @property
    def elements(self) -> tuple[str, ...]:
        return tuple(self.orbitals)


# Onsite energies in eV (s, p), converted to Hartree below.
_ONSITE_EV = {
    "C": (-21.4, -11.4),
    "N": (-26.0, -13.4),
    "O": (-32.3, -14.8),
    "F": (-40.0, -18.1),
    "P": (-18.6, -14.0),
    "S": (-20.0, -13.3),
}

# Gaussian exponents (bohr^-2) controlling overlap decay, (s, p). The s/p
# ratio near 4 keeps the same-center cross overlap around 0.75, which keeps
# the overlap matrix comfortably positive definite.
_EXPONENTS = {
    "C": (0.90, 0.25),
    "N": (1.00, 0.28),
    "O": (1.10, 0.31),
    "F": (1.20, 0.34),
    "P": (0.70, 0.20),
    "S": (0.75, 0.22),
}

# Electrons contributed per atom: the typical bonding valence. Lone pairs are
# not counted, which keeps every molecule in the supported set with at least
# one virtual orbital.
_ELECTRONS = {"H": 1, "C": 4, "N": 3, "O": 2, "F": 1, "P": 3, "S": 2}


def _default_basis() -> OrbitalBasisSpec:
    orbitals: dict[str, tuple[Orbital, ...]] = {
        "H": (Orbital("s", 0.60, -0.5),),
    }
    for elem, (es, ep) in _ONSITE_EV.items():
        as_, ap = _EXPONENTS[elem]
        orbitals[elem] = (Orbital("s", as_, es / _EV), Orbital("p", ap, ep / _EV))
    return OrbitalBasisSpec(orbitals, dict(_ELECTRONS))


DEFAULT_BASIS = _default_basis()


def electron_count(elements: tuple[str, ...] | list[str]) -> int:
    return sum(DEFAULT_BASIS.electrons_for(e) for e in elements)
