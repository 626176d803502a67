"""Exception hierarchy shared across the toolkit.

All input-validation failures derive from :class:`ValidationError` so the
CLI can map them to a single exit code; IO and JSON parse failures are
left to the standard ``OSError`` / ``json.JSONDecodeError`` types.
"""


class DetforgeError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DetforgeError):
    """Invalid input values or inconsistent data."""


class MissingKey(ValidationError):
    """A required key is absent from an annotation file."""

    def __init__(self, key: str):
        super().__init__(f"missing required key: {key!r}")
        self.key = key


class DanglingReference(ValidationError):
    """An annotation or detection references an image or category id that does not exist."""

    def __init__(self, record_id: int, ref_kind: str, ref_id: int,
                 record_kind: str = "annotation"):
        super().__init__(
            f"{record_kind} {record_id} references unknown {ref_kind} id {ref_id}"
        )
        self.record_id = record_id
        self.ref_kind = ref_kind
        self.ref_id = ref_id


class NegativeExtent(ValidationError):
    """A box has negative width or height."""

    def __init__(self, record_id, w: float, h: float):
        super().__init__(
            f"annotation {record_id} has negative extent: w={w}, h={h}"
        )
        self.record_id = record_id


class BadExtent(ValidationError):
    """A (w, h) row whose width, height or area is not a positive finite float."""

    def __init__(self, row: int, detail: str):
        super().__init__(f"box {row}: {detail}")
        self.row = row
        self.detail = detail


class InvalidOverlap(ValidationError):
    """Tiling overlap is incompatible with the tile size."""


class TooFewBoxes(ValidationError):
    """Fewer boxes than requested clusters."""


class UnknownConfigKey(ValidationError):
    """A config file contains an unrecognized key."""

    def __init__(self, key_path: str):
        super().__init__(f"unknown config key: {key_path!r}")
        self.key_path = key_path


class ConfigTypeError(ValidationError):
    """A config value has the wrong type."""

    def __init__(self, key_path: str, expected: str, got):
        super().__init__(
            f"config key {key_path!r} expects {expected}, got {type(got).__name__}"
        )
        self.key_path = key_path
