"""mpmath reference values shared by the tests, independent of glfock."""

import mpmath as mp


def hermite_fn(n: int, x: float) -> float:
    """Orthonormal Hermite function h_n(x) = H_n(x) e^(-x^2/2) / sqrt(2^n n! sqrt(pi))."""
    with mp.workdps(30):
        x = mp.mpf(x)
        return float(mp.hermite(n, x) * mp.exp(-x * x / 2)
                     / mp.sqrt(2 ** n * mp.factorial(n) * mp.sqrt(mp.pi)))
