"""Exact computer algebra for lump tau polynomials of the Boussinesq equation.

Subpackages:

* polyring: sparse bivariate polynomials over Gaussian rationals with
  exact (x,y) <-> (z,zbar) conversion;
* hirota: bilinear derivative operators, bilinear forms and residuals;
* catalog: explicit tau records, verification and the energy quadrature;
* classify: the J / sigma / gamma obstruction routes and the degree law;
* cm: Calogero-Moser pole locus, tangent space and flow checks;
* lax: spectral data of the third-order Lax system;
* cli: the `lumps` command.
"""

from .polyring import Basis, ExactPoly, QQi

__all__ = ["Basis", "ExactPoly", "QQi"]

__version__ = "0.1.0"
