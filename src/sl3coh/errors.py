"""The error raised when two computation routes disagree."""


class CrossCheckError(AssertionError):
    """Two independent routes, or a route and its invariant, disagree.

    Raised explicitly rather than by assert, so the cross-checks also run
    under python -O.  It subclasses AssertionError, so callers that caught
    the old assertion failures still catch it.
    """
