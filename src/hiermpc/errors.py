"""Exception hierarchy shared across the package."""


class HierMPCError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(HierMPCError):
    pass


class NonzeroSelfCoupling(HierMPCError):
    pass


class NotSchur(HierMPCError):
    pass


class NotContractive(HierMPCError):
    pass


class ComplexDominantMode(HierMPCError):
    pass


class SingularDCGain(HierMPCError):
    pass


class RankDeficient(HierMPCError):
    pass


class DesignFailed(HierMPCError):
    """Gain synthesis did not reach a stabilizing design within the retry budget."""


class DesignIncomplete(HierMPCError):
    """Offline design pipeline aborted; `stage` names the first failing step."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"design stage '{stage}' failed: {message}")
        self.stage = stage


class InfeasibleHL(HierMPCError):
    """Upper-layer optimization infeasible; carries residual diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InfeasibleLL(HierMPCError):
    """Lower-layer correction problem infeasible for one subsystem."""

    def __init__(self, message: str, subsystem: int | None = None,
                 diagnostics: dict | None = None):
        super().__init__(message)
        self.subsystem = subsystem
        self.diagnostics = diagnostics or {}


class InfeasibleTuning(HierMPCError):
    """Radius allocation program has no feasible point."""


class UnboundedProblem(HierMPCError):
    pass


class ConfigInvalid(HierMPCError):
    pass


class UnstableDiscretization(HierMPCError):
    pass
