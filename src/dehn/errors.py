"""Exception hierarchy. Each error category carries the CLI exit code."""


class DehnError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class PDSyntaxError(DehnError):
    """The PD text could not be parsed."""

    exit_code = 2


class PDLabelError(DehnError):
    """Edge labels are not 1..2k with each label appearing exactly twice, or
    an edge does not run out of one crossing and into another."""

    exit_code = 2


class MultiComponentError(DehnError):
    """The PD code does not describe a single-component knot."""

    exit_code = 2


class NotPlanarError(DehnError):
    """Face tracing of the rotation system does not close up on a sphere."""

    exit_code = 3


class NotExactError(DehnError):
    """The chain complex is not exact, so torsion/defect are undefined."""

    exit_code = 4


class ConfigError(DehnError):
    """Invalid run configuration (bad region override, bad flag combination)."""

    exit_code = 6


class RegionLabelError(DehnError):
    """The region labels of the diagram are inconsistent under the
    representation, so the Dehn graph does not give a chain complex."""

    exit_code = 7
