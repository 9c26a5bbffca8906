"""Exact symbolic engine for graded symplectic supermanifolds T*[p]T[1]R^d.

Constructs Darboux charts (including the exceptional chart with an extra
odd degree-3 generator), homological hamiltonians and their master
equations, derived Dorfman brackets with mechanical Courant-axiom
verification, an exterior-calculus oracle, and the exact-rational
generalised-metric O(d,d) toolkit.  All arithmetic is over Q.

Importing the package loads no submodule: each public name below is
imported from its module on first access (PEP 562) and then cached
here, so a CLI process loads only the modules its command runs.
"""

import importlib

__version__ = "1.0.0"

_EXPORTS = {
    "algebroid": ("anchor", "decode_section", "derived_sign", "dorfman",
                  "encode_section", "pairing", "verify_courant", "verify_leibniz"),
    "chart": ("ChartError", "ChartSpec", "Generator", "lambda_rank",
              "make_chart"),
    "config": ("Config", "ConfigError", "MatrixError", "parse_config"),
    "element": ("GradedElement", "monomial_at", "monomial_basis",
                "monomial_count"),
    "forms": ("DiffForm", "FormError", "Section", "SectionError",
              "classical_dorfman", "ext_d", "homotopy", "interior", "lie_deriv",
              "poincare_primitive", "sort_indices", "vec_lie_bracket", "wedge"),
    "genmetric": ("Background", "GenMetric", "act", "b_shift", "block_swap",
                  "build_gen_metric", "eta_matrix", "extract", "gl_embed",
                  "odd_check"),
    "npq": ("Hamiltonian", "HamiltonianError", "embed_form", "kinetic_term",
            "master_equation", "q_apply", "q_square_check", "theta_m5",
            "theta_vinogradov"),
    "poly": ("Poly", "PolyError", "PolyParseError", "parse_poly"),
    "reports": ("CheckReport", "SuiteReport"),
    "symplectic": ("GaugeError", "gauge_exp", "poisson"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
