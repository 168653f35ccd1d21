"""
Character-level invariants of Bott-Samelson-Demazure-Hansen varieties.

Build a root system, pick a reduced word, and compute: Demazure/Euler
characters of line bundles, the tangent-bundle section character, the
combinatorial sets J(w, i) / supp(w) / R_w, and the classification of the
connected automorphism group as a parabolic subgroup — with verification
suites that check the underlying theorems exhaustively at small rank.

>>> from bsdh import RootSystem, BsdhWord, classify
>>> rs = RootSystem.of("A3")
>>> report = classify(BsdhWord(rs, (0, 1, 0, 2, 1, 0)))
>>> report.status, report.J, report.parabolic_dim
('ExactParabolic', (0,), 10)
"""

from .roots import (CartanType, Root, RootSystem, Weight, build_root_system,
                    dominance_leq, dot_action, pairing, reflect)
from .weyl import (WeylElement, WordCapExceeded, all_elements,
                   alpha0_criterion, bruhat_leq, canonical_word,
                   completions_to_w0, count_words, format_word, from_word,
                   inversions, is_reduced, length, longest_element,
                   parse_word, reduced_words, unreduced_prefix)
from .characters import (Character, demazure_character, demazure_step,
                         euler_char, reference_chars)
from .tangent import (BsdhWord, KernelReport, TangentReport,
                      adjoint_containment, h1_w0_char, kernel_char,
                      root_subset_R_w, schubert_tangent_char,
                      tangent_euler_char, tangent_h0_char)
from .autgroup import (AutReport, VerifyReport, W0Classes, classify,
                       classify_all_w0, verify)

__version__ = "0.1.0"
