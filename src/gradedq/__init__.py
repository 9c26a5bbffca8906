"""Exact symbolic engine for graded symplectic supermanifolds T*[p]T[1]R^d.

Constructs Darboux charts (including the exceptional chart with an extra
odd degree-3 generator), homological hamiltonians and their master
equations, derived Dorfman brackets with mechanical Courant-axiom
verification, an exterior-calculus oracle, and the exact-rational
generalised-metric O(d,d) toolkit.  All arithmetic is over Q.
"""

from .algebroid import (SectionError, anchor, decode_section, derived_sign,
                        dorfman, encode_section, lambda_rank, module_rank,
                        pairing, rho_star, verify_courant, verify_leibniz)
from .chart import ChartError, ChartSpec, Generator, make_chart
from .config import Config, ConfigError, parse_config, render_config
from .element import GradedElement, monomial_at, monomial_basis, monomial_count
from .forms import (DiffForm, FormError, Section, classical_dorfman, ext_d,
                    homotopy, interior, lie_deriv, poincare_primitive,
                    sort_indices, vec_lie_bracket, wedge)
from .genmetric import (Background, GenMetric, MatrixError, act, b_shift,
                        block_swap, build_gen_metric, eta_matrix, extract,
                        gl_embed, odd_check)
from .npq import (Hamiltonian, HamiltonianError, embed_form, extract_form,
                  kinetic_term, master_equation, q_apply, q_square_check,
                  theta_m5, theta_vinogradov)
from .poly import Poly, PolyError, PolyParseError, parse_poly
from .reports import CheckReport, SuiteReport
from .symplectic import GaugeError, gauge_exp, poisson

__version__ = "1.0.0"

__all__ = [
    "Background", "ChartError", "ChartSpec", "CheckReport", "Config",
    "ConfigError", "DiffForm", "FormError", "GaugeError", "GenMetric",
    "Generator", "GradedElement", "Hamiltonian", "HamiltonianError",
    "MatrixError", "Poly", "PolyError", "PolyParseError", "Section",
    "SectionError", "SuiteReport", "act", "anchor", "b_shift", "block_swap",
    "build_gen_metric", "classical_dorfman", "decode_section", "derived_sign",
    "dorfman", "embed_form", "encode_section", "eta_matrix", "ext_d",
    "extract", "extract_form", "gauge_exp", "gl_embed", "homotopy", "interior",
    "kinetic_term", "lambda_rank", "lie_deriv", "make_chart", "master_equation",
    "module_rank", "monomial_at", "monomial_basis", "monomial_count", "odd_check",
    "pairing", "parse_config", "parse_poly", "poincare_primitive", "poisson",
    "q_apply", "q_square_check", "render_config", "rho_star", "sort_indices",
    "theta_m5", "theta_vinogradov", "vec_lie_bracket", "verify_courant",
    "verify_leibniz", "wedge",
]
