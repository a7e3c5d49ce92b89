"""Periodic FFT Poisson solver (paper Eq. 2, solved by the convolution
method of Hockney & Eastwood [11]).

Both matter components share this solver: the PM part of the TreePM N-body
code and the velocity-space kick of the Vlasov solver differentiate the
same potential.

Conventions
-----------
The solver works on the *generic* equation  laplacian(phi) = source  on a
periodic box; the physics prefactors live in the callers:

* cosmological gravity (comoving coordinates, canonical velocity
  u = a^2 dx/dt):  source = (4 pi G / a) * (rho_com - mean(rho_com)),
  where rho_com is the comoving mass density.  (Equivalent to the paper's
  Eq. 2 with the proper density rho_proper = rho_com / a^3.)
* electrostatic plasma (normalized units): source = rho_e - rho_ion.

Green's functions
-----------------
``spectral``   exact continuum kernel -1/k^2.
``discrete``   eigenvalues of the 2nd-order finite-difference Laplacian,
               -(2/dx^2)(1 - cos k dx) summed over axes; consistent with
               finite-difference gradients and the classic PM choice.

Gradients: ``spectral`` (ik), ``fd2``, ``fd4`` (2nd/4th-order centered
differences) — the paper's PM force interpolation differentiates the mesh
potential with finite differences.

The fused pipeline
------------------
:meth:`PeriodicPoissonSolver.solve_fields` is the production entry point:
it transforms the source **once**, forms ``phi_k`` in k-space (optionally
multiplied by a caller kernel — the TreePM Gaussian cut / window
deconvolution), and derives *both* the potential and the acceleration
from that single spectrum: spectral gradients are ``ik * phi_k`` (one
extra inverse transform per axis, zero extra forward transforms),
finite-difference gradients are centered differences of the single
inverse ``phi``.  The historical composition ``potential()`` followed by
per-axis ``gradient(..., "spectral")`` paid ``1 + dim`` forward
transforms per solve because each gradient re-transformed phi; the
FFT-budget tests pin the fused path to exactly one.
:meth:`PeriodicPoissonSolver.acceleration` is the force-only variant:
with spectral gradients it also skips the inverse transform of phi
itself (the kick never reads the potential).

All transforms run through :class:`repro.perf.fft.SpectralBackend`
(``numpy.fft`` one axis at a time, pooled k-space workspaces); pass
``backend=`` or rely on the process-wide default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..diagnostics.timers import section

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.timers import StepTimer
    from ..perf.fft import SpectralBackend

_GREENS = ("spectral", "discrete")
_GRADIENTS = ("spectral", "fd2", "fd4")


@dataclass(frozen=True)
class PeriodicPoissonSolver:
    """FFT-based Poisson solver on a periodic rectangular mesh.

    Attributes
    ----------
    nx:
        Mesh points per axis (1 to 3 axes).
    box_size:
        Physical box size per axis (cubic box: same L each axis).
    green:
        Green's function variant (see module docstring).
    backend:
        FFT executor; ``None`` uses the process-wide default
        (:func:`repro.perf.fft.get_default_backend`).
    """

    nx: tuple[int, ...]
    box_size: float
    green: str = "spectral"
    backend: "SpectralBackend | None" = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "nx", tuple(int(n) for n in self.nx))
        if not 1 <= len(self.nx) <= 3:
            raise ValueError("1 to 3 dimensions supported")
        if any(n < 2 for n in self.nx):
            raise ValueError("need at least 2 mesh points per axis")
        if self.box_size <= 0.0:
            raise ValueError("box_size must be positive")
        if self.green not in _GREENS:
            raise ValueError(f"green must be one of {_GREENS}")

    @property
    def dim(self) -> int:
        """Number of axes."""
        return len(self.nx)

    @property
    def dx(self) -> tuple[float, ...]:
        """Mesh spacings."""
        return tuple(self.box_size / n for n in self.nx)

    @property
    def _backend(self) -> "SpectralBackend":
        if self.backend is not None:
            return self.backend
        # deferred: repro.perf pulls in the pencil engine, whose import
        # of repro.core would cycle back into this module at load time
        from ..perf.fft import get_default_backend

        return get_default_backend()

    @cached_property
    def _k_axes(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumbers per axis (rfft layout on the last axis)."""
        ks = []
        for d, n in enumerate(self.nx):
            if d == self.dim - 1:
                k = 2.0 * np.pi * np.fft.rfftfreq(n, d=self.dx[d])
            else:
                k = 2.0 * np.pi * np.fft.fftfreq(n, d=self.dx[d])
            shape = [1] * self.dim
            shape[d] = k.size
            ks.append(k.reshape(shape))
        return tuple(ks)

    @cached_property
    def _ik_axes(self) -> tuple[np.ndarray, ...]:
        """ik per axis — the spectral derivative kernels."""
        return tuple(1j * k for k in self._k_axes)

    @cached_property
    def _inv_laplacian(self) -> np.ndarray:
        """-1/k^2 (or discrete equivalent), with the k=0 mode zeroed."""
        if self.green == "spectral":
            k2 = sum(k**2 for k in self._k_axes)
        else:
            k2 = np.zeros((), dtype=np.float64)
            for d, k in enumerate(self._k_axes):
                h = self.dx[d]
                k2 = k2 + (2.0 / h**2) * (1.0 - np.cos(k * h))
        k2 = np.asarray(k2, dtype=np.float64)
        with np.errstate(divide="ignore"):
            inv = -1.0 / k2
        inv[(0,) * self.dim] = 0.0
        return inv

    # ------------------------------------------------------------------

    def _phi_k(self, source: np.ndarray, kernel: np.ndarray | None) -> np.ndarray:
        """The potential spectrum from one forward transform of the source."""
        if source.shape != self.nx:
            raise ValueError(f"source shape {source.shape} != mesh {self.nx}")
        # the transform allocates a fresh spectrum, so the in-place
        # kernel multiplies below never alias caller data
        phi_k = self._backend.rfftn(source.astype(np.float64, copy=False))
        phi_k *= self._inv_laplacian
        if kernel is not None:
            phi_k *= kernel
        return phi_k

    def potential(
        self, source: np.ndarray, kernel: np.ndarray | None = None
    ) -> np.ndarray:
        """Solve laplacian(phi) = source; the mean of phi is gauged to zero.

        The k = 0 mode of the source is discarded (periodic boxes only
        admit solutions for zero-mean sources; callers subtract the mean
        density — the paper's Eq. 2 subtracts rho_bar for exactly this
        reason).  ``kernel`` is an optional extra k-space multiplier in
        rfft layout (the PM Gaussian cut / window deconvolution).
        """
        phi_k = self._phi_k(source, kernel)
        return self._backend.irfftn(phi_k, s=self.nx)

    def gradient(self, phi: np.ndarray, axis: int, method: str = "fd4") -> np.ndarray:
        """d(phi)/dx_axis on the mesh.

        Note: the ``spectral`` method transforms phi on every call —
        differentiating along all axes this way costs ``dim`` forward
        transforms.  Production field solves use :meth:`solve_fields`,
        which differentiates the already-available spectrum instead.
        """
        if method not in _GRADIENTS:
            raise ValueError(f"method must be one of {_GRADIENTS}")
        if phi.shape != self.nx:
            raise ValueError(f"phi shape {phi.shape} != mesh {self.nx}")
        if method == "spectral":
            be = self._backend
            phi_k = be.rfftn(phi)
            return be.irfftn(
                be.kspace_product("grad", phi_k, self._ik_axes[axis]), s=self.nx
            )
        return self._fd_gradient(phi, axis, method)

    def _fd_gradient(self, phi: np.ndarray, axis: int, method: str) -> np.ndarray:
        """Centered finite-difference d(phi)/dx_axis (fd2 / fd4)."""
        h = self.dx[axis]
        if method == "fd2":
            return (np.roll(phi, -1, axis) - np.roll(phi, 1, axis)) / (2.0 * h)
        # fd4
        return (
            -np.roll(phi, -2, axis)
            + 8.0 * np.roll(phi, -1, axis)
            - 8.0 * np.roll(phi, 1, axis)
            + np.roll(phi, 2, axis)
        ) / (12.0 * h)

    def solve_fields(
        self,
        source: np.ndarray,
        method: str = "fd4",
        kernel: np.ndarray | None = None,
        timer: "StepTimer | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused field solve: ``(phi, accel)`` from one forward transform.

        Solves laplacian(phi) = source and returns both the potential and
        the acceleration ``-grad(phi)`` (shape ``(dim,) + nx``).  The
        source spectrum is computed once; spectral gradients multiply it
        by ``ik`` in k-space, finite-difference gradients differentiate
        the single inverse-transformed phi.

        Parameters
        ----------
        source:
            Poisson source on the mesh (zero mode discarded as in
            :meth:`potential`).
        method:
            Gradient method (``spectral``, ``fd2``, ``fd4``).
        kernel:
            Optional k-space multiplier folded into ``phi_k`` (rfft
            layout) — the PM Gaussian cut / window deconvolution ride
            the same spectrum instead of re-transforming.
        timer:
            Optional :class:`repro.diagnostics.StepTimer`; records the
            transform work under ``fft`` and the differentiation under
            ``grad`` (qualified by any enclosing section, e.g.
            ``poisson/fft``).
        """
        return self._solve(source, method, kernel, timer, need_phi=True)

    def _solve(
        self,
        source: np.ndarray,
        method: str,
        kernel: np.ndarray | None,
        timer: "StepTimer | None",
        need_phi: bool,
    ) -> tuple[np.ndarray | None, np.ndarray]:
        if method not in _GRADIENTS:
            raise ValueError(f"method must be one of {_GRADIENTS}")
        be = self._backend

        with section(timer, "fft"):
            phi_k = self._phi_k(source, kernel)
            # the spectral gradient differentiates phi_k directly, so an
            # accel-only solve never needs phi in real space at all; the
            # fd gradients difference phi, which forces its inverse
            phi = (
                be.irfftn(phi_k, s=self.nx)
                if need_phi or method != "spectral"
                else None
            )

        with section(timer, "grad"):
            accel = np.empty((self.dim,) + self.nx, dtype=np.float64)
            if method == "spectral":
                for d in range(self.dim):
                    grad_k = be.kspace_product("grad", phi_k, self._ik_axes[d])
                    np.negative(be.irfftn(grad_k, s=self.nx), out=accel[d])
            else:
                for d in range(self.dim):
                    np.negative(self._fd_gradient(phi, d, method), out=accel[d])
        return phi, accel

    def acceleration(
        self,
        source: np.ndarray,
        method: str = "fd4",
        kernel: np.ndarray | None = None,
        timer: "StepTimer | None" = None,
    ) -> np.ndarray:
        """-grad(phi) for laplacian(phi) = source; shape (dim,) + nx.

        The lean variant of :meth:`solve_fields` for callers that never
        read the potential (the KDK kick only consumes the force): with
        spectral gradients the inverse transform of phi itself is
        skipped, leaving ``1 + dim`` transforms total instead of
        ``2 + dim``.
        """
        return self._solve(source, method, kernel, timer, need_phi=False)[1]


def gravity_source(
    rho_com: np.ndarray, g_newton: float, a: float
) -> np.ndarray:
    """Source term of the comoving Poisson equation (paper Eq. 2).

    Parameters
    ----------
    rho_com:
        Comoving mass density (mass per comoving volume).
    g_newton:
        Gravitational constant in the caller's unit system.
    a:
        Scale factor.

    Returns
    -------
    numpy.ndarray
        (4 pi G / a) * (rho_com - mean), ready for
        :meth:`PeriodicPoissonSolver.potential`.
    """
    if a <= 0.0:
        raise ValueError("scale factor must be positive")
    rho = np.asarray(rho_com, dtype=np.float64)
    return (4.0 * np.pi * g_newton / a) * (rho - rho.mean())
