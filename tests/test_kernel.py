"""The coefficient kernel: polynomial and graded-monomial primitives."""

from fractions import Fraction

from gradedq import _kernel_py


class TestPythonKernel:
    def test_poly_add_cancels(self):
        a = {(1, 0): Fraction(2)}
        b = {(1, 0): Fraction(-2), (0, 1): Fraction(1)}
        assert _kernel_py.poly_add(a, b) == {(0, 1): Fraction(1)}

    def test_mono_mul_odd_square_is_zero(self):
        parity = (1, 1)
        assert _kernel_py.mono_mul(((0, 1),), ((0, 1),), parity) == (0, None)

    def test_mono_mul_koszul_sign(self):
        parity = (1, 1)
        sign, mono = _kernel_py.mono_mul(((1, 1),), ((0, 1),), parity)
        assert (sign, mono) == (-1, ((0, 1), (1, 1)))

    def test_mono_partial_signs(self):
        parity = (1, 1, 1)
        m = ((0, 1), (1, 1), (2, 1))
        # left derivative of the middle letter crosses one odd letter
        assert _kernel_py.mono_partial(m, 1, parity, False) == (-1, ((0, 1), (2, 1)))
        # right derivative crosses the one to its right
        assert _kernel_py.mono_partial(m, 1, parity, True) == (-1, ((0, 1), (2, 1)))
        assert _kernel_py.mono_partial(m, 0, parity, False) == (1, ((1, 1), (2, 1)))

    def test_even_partial_brings_down_exponent(self):
        parity = (0,)
        assert _kernel_py.mono_partial(((0, 3),), 0, parity, False) == (3, ((0, 2),))
