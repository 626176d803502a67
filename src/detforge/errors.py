"""The toolkit's two error types.

Every input-validation failure is a :class:`ValidationError` whose message
names the bad value, so the CLI maps them all to exit 1 with that one
line. :class:`BadExtent` is the one subclass: it keeps the failing row's
index, which the CLI reads to name the annotation behind it. IO and JSON
parse failures are left to the standard ``OSError`` /
``json.JSONDecodeError`` types.
"""


class ValidationError(Exception):
    """Invalid input values or inconsistent data."""


class BadExtent(ValidationError):
    """A (w, h) row whose width, height or area is not a positive finite float."""

    def __init__(self, row: int, detail: str):
        super().__init__(f"box {row}: {detail}")
        self.row = row
        self.detail = detail
