"""Error types shared across the package."""


class SizeLimitError(ValueError):
    """A size limit or a node/step budget was exceeded."""


class DominanceError(ValueError):
    """Componentwise top-row dominance fails; carries the violating column."""

    def __init__(self, column: int, message: str):
        super().__init__(message)
        self.column = column
