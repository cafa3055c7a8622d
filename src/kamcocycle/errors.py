"""The one failure type of the reduction."""


class KamFailure(Exception):
    """A certified condition failed, so the result is not certified.

    ``step`` is the KAM step at which it failed, or None when unknown.
    """

    def __init__(self, *args, step: int | None = None):
        super().__init__(*args)
        self.step = step
