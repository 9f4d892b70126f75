"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own code paths: the 2-D pipeline
oracle mirrors the published MATLAB listing line by line, the matrix-power
oracle multiplies the listing's dense matrix, and the rational inverse
oracle is a plain Gauss-Jordan over Fractions.
"""

import math
from fractions import Fraction

import numpy as np


def matlab_rcas(n: int) -> np.ndarray:
    # function Z = rcas(N)
    i = np.arange(n)  # i = 0:(N-1);
    j = np.arange(n)  # j = 0:(N-1);
    big_i, big_j = np.meshgrid(i, j)  # [I,J] = meshgrid(i,j);
    arg = 2 * np.pi / n * big_i * big_j
    cas = np.cos(arg) + np.sin(arg)
    # MATLAB round() is half away from zero, unlike np.round
    return np.sign(cas) * np.floor(np.abs(cas) + 0.5)


def matlab_twodrht(a: np.ndarray):
    """[B, AA, PSNR] = twodrht(file), minus the imread."""
    a = np.asarray(a, dtype=np.float64)  # A = double(A);
    n = a.shape[0]
    k = matlab_rcas(n)  # K = rcas(N);
    temp = k @ a @ k  # TEMP = K * A * K;
    # TEMPFLIPCOL = [TEMP(:,1),fliplr(TEMP(:,2:N))];
    temp_flip_col = np.hstack([temp[:, :1], np.fliplr(temp[:, 1:])])
    # TEMPFLIPROW = [TEMP(1,:);flipud(TEMP(2:N,:))];
    temp_flip_row = np.vstack([temp[:1, :], np.flipud(temp[1:, :])])
    # TEMPFLIPRC = [TEMPFLIPCOL(1,:);flipud(TEMPFLIPCOL(2:N,:))];
    temp_flip_rc = np.vstack([temp_flip_col[:1, :], np.flipud(temp_flip_col[1:, :])])
    b = 0.5 * (temp + temp_flip_col + temp_flip_row - temp_flip_rc)

    t = (1.0 / n) * (1.0 / n) * (k @ b @ k)  # temp = (1/N) * (1/N) * K * B * K;
    t_flip_col = np.hstack([t[:, :1], np.fliplr(t[:, 1:])])
    t_flip_row = np.vstack([t[:1, :], np.flipud(t[1:, :])])
    t_flip_rc = np.vstack([t_flip_col[:1, :], np.flipud(t_flip_col[1:, :])])
    aa = 0.5 * (t + t_flip_col + t_flip_row - t_flip_rc)

    mse = (1.0 / n**2) * np.sum((aa - a) ** 2)  # MSE = (1/N^2)*sum(sum((AA-A).^2));
    rmse = np.sqrt(mse)
    psnr = np.inf if rmse == 0 else 20 * np.log10(255 / rmse)
    return b, aa, psnr


def dense_power_traces(n: int, k: int) -> tuple:
    """(||H**k||_F**2, tr(H**k)) from the dense k-th power of the listing's
    rounded matrix.

    Every partial sum of H**k is bounded by n**k, so the power is formed in
    int64 while n**k < 2**63 and over Python ints beyond; the squares are
    summed in Python ints.
    """
    h = matlab_rcas(n).astype(np.int64 if n**k < 2**63 else object)
    power = h
    for _ in range(k - 1):
        power = power @ h
    return int((power.astype(object) ** 2).sum()), int(np.trace(power))


def fraction_inverse(m) -> tuple:
    """Gauss-Jordan over exact rationals: (numerator matrix, denominator).

    Raises ZeroDivisionError on singular input.  Quadratic-time pivot
    search, cubic arithmetic; fine for the small orders tests use.
    """
    m = np.asarray(m)
    n = m.shape[0]
    a = [[Fraction(int(m[i, k])) for k in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    den = 1
    for row in inv:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    nums = np.empty((n, n), dtype=object)
    for i in range(n):
        for k in range(n):
            nums[i, k] = int(inv[i][k] * den)
    return nums, den


def brute_force_dft(v: np.ndarray) -> np.ndarray:
    """Dense DFT matrix product, no FFT involved."""
    n = len(v)
    i, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * i * k / n) @ v
