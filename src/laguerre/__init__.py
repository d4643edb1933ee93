"""Oriented-sphere (Laguerre) geometry of hypersurfaces in R^n.

Sphere coordinates on the projective light cone, the transformation group
fixing the improper point with its generator factorization, invariant
tensors and the invariant volume of sampled hypersurface patches, the
criticality test for the volume functional, and the Lorentzian and
degenerate space forms with their embeddings.
"""

from .errors import (DegenerateSurfaceError, EmbeddingDomainError,
                     InsufficientInteriorError, InvalidCoordinateError,
                     InvalidElementError, InvalidLineError, LaguerreError,
                     ToleranceBreachError, UsageError)
from .group import (BlockData, Factorization, LaguerreTransform, act_on_contact,
                    act_on_coord, compose_script, decompose, from_blocks,
                    generator, hyperbolic, isometry, parabolic, random_transform,
                    to_blocks)
from .fd import GridAxes
from .hypersurface import (InvariantField, analyze, compare_invariants,
                           laguerre_volume, structural_residuals, transform_patch,
                           volume_via_curvature_quotient)
from .lorentz import causal_type, inner, is_laguerre_matrix, nu, signature_matrix, wp
from .minimality import (MinimalityReport, el_residual, minimality_report,
                         third_form_laplacian_r)
from .patches import (LaguerreLift, ShapeData, SurfacePatch, build_patch, laguerre_lift,
                      shape_data)
from .spaceforms import (embed_element, embed_patch, embed_sphere, proposition_pairings,
                         transfer_check)
from .spheres import (ContactElement, CSphere, LieLine, Plane, PointAtInfinity,
                      ProjectivePoint, Sphere, classify_coord, contact_from_line,
                      lie_line, oriented_contact, sphere_coord,
                      tangential_invariant)

__version__ = "0.1.0"
