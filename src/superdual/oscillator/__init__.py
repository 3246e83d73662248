"""Brute-force oracle: exact oscillator realisations on (deformed) Fock spaces."""

from .algebra import OscillatorSpec, basis_states, generator_action
from .capelli import capelli_identity_check, capelli_norm_factor, delta_ladder_norms
from .inner import inner_product
from .module import GramReport, build_u0, gram_positivity, verify_hws
from .su22 import helicity, is_massless
from .tensor import tensor_decompose

__all__ = [
    "OscillatorSpec",
    "basis_states",
    "build_u0",
    "capelli_identity_check",
    "capelli_norm_factor",
    "delta_ladder_norms",
    "generator_action",
    "gram_positivity",
    "GramReport",
    "helicity",
    "inner_product",
    "is_massless",
    "tensor_decompose",
    "verify_hws",
]
