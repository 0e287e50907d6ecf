"""Exception types shared across the package."""


class DgtdError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DgtdError, ValueError):
    """A point or parameter lies outside its valid domain."""


class InvalidOrderError(DomainError):
    """Polynomial order outside the supported range."""


class MeshError(DgtdError, ValueError):
    """Mesh file or mesh data failed validation."""


class NonManifoldError(MeshError):
    """An edge is shared by more than two triangles."""


class MaterialError(DgtdError, ValueError):
    """Material tensor is not symmetric positive definite (or related)."""


class ConfigError(DgtdError, ValueError):
    """Run configuration is inconsistent or refers to missing files."""


class SweepError(DgtdError, RuntimeError):
    """The stability sweep harness could not bracket a threshold."""
