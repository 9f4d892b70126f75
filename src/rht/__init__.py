"""Rounded Hartley transform toolkit.

The DHT matrix rounded entrywise to {-1, 0, 1} gives an integer,
multiplication-free spectral operator that is its own weak inverse under
symmetric scaling.  This package provides the matrices, the fast
radix-2 evaluation, exact rational inverses, the error-norm analysis
apparatus, the 2-D image pipeline, and raster I/O.
"""

from . import analysis, core, exact, fast, image_io, transform2d
from .analysis import *
from .core import *
from .exact import *
from .fast import *
from .image_io import *
from .transform2d import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *exact.__all__,
    *fast.__all__,
    *analysis.__all__,
    *transform2d.__all__,
    *image_io.__all__,
    "__version__",
]
