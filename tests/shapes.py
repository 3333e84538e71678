"""Test functions that only the tests use: a piecewise-polynomial bump with
exact reference values, and a sine mode that vanishes at the ends of [0, 1]
but not at the first and last sites."""
import numpy as np

from fracgl import TestFunction


class PolyBump(TestFunction):
    """C^2 bump amp * ((u-a)(b-u) / s_max)^3 on [a, b]; piecewise polynomial,
    convenient when exact reference values are wanted."""

    def __init__(self, a: float, b: float, amp: float = 1.0):
        if not (0.0 <= a < b <= 1.0):
            raise ValueError("support must satisfy 0 <= a < b <= 1")
        smax = ((b - a) / 2.0) ** 2

        def parts(u):
            u = np.asarray(u, dtype=float)
            s = (u - a) * (b - u)
            return np.where(s > 0, s, 0.0), a + b - 2.0 * u

        def f(u):
            return amp * (parts(u)[0] / smax) ** 3

        def df(u):
            s, ds = parts(u)
            return amp * 3.0 * s ** 2 * ds / smax ** 3

        def d2f(u):
            s, ds = parts(u)
            return amp * (6.0 * s * ds ** 2 - 6.0 * s ** 2) / smax ** 3

        super().__init__(f=f, df=df, d2f=d2f, support=(a, b))


class SineMode(TestFunction):
    """sin(k pi u); C^2 on [0,1], vanishing at the endpoints but not
    compactly supported."""

    def __init__(self, k: int = 1, amp: float = 1.0):
        kp = k * np.pi

        def f(u):
            return amp * np.sin(kp * np.asarray(u, dtype=float))

        def df(u):
            return amp * kp * np.cos(kp * np.asarray(u, dtype=float))

        def d2f(u):
            return -amp * kp ** 2 * np.sin(kp * np.asarray(u, dtype=float))

        super().__init__(f=f, df=df, d2f=d2f, support=None)
