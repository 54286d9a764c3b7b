"""Exception types shared across the toolkit, and the duplicate-id check.

Parse-style errors carry the source name and a 1-based line number when one
is known, so command-line tools can print "file:line: message" diagnostics.
"""


class DamageKitError(Exception):
    """Base class for all toolkit errors; exit_code is the CLI's exit status."""
    exit_code = 2


class ParseError(DamageKitError):
    """Malformed input: a file, a stream or an option's value, named by source."""

    def __init__(self, message, source=None, line=None):
        super().__init__(message)
        self.source = source
        self.line = line

    def __str__(self):
        prefix = ""
        if self.source is not None:
            prefix = str(self.source) + ":"
            if self.line is not None:
                prefix += f"{self.line}:"
            prefix += " "
        return prefix + super().__str__()


class MissingHeaderKey(ParseError):
    """Raster header line is absent, out of order, or has a bad value."""


class NonIntegerCell(ParseError):
    """Raster body token is not an integer."""


class CellCountMismatch(ParseError):
    """Raster body has more or fewer cells than the header declares."""


class InvalidClassCode(ParseError):
    """Raster cell holds a code outside {0, 1, 2, nodata}."""


class UnknownCategory(ParseError):
    """Damage category string is not one of the five known labels."""
    exit_code = 4


class UnwritableOutput(DamageKitError):
    """An output file or directory cannot be created or written."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path


class DuplicateFootprintId(DamageKitError):
    """Two footprints share an id."""
    exit_code = 3


class DuplicatePointId(DamageKitError):
    """Two ground-truth points share an id."""
    exit_code = 3


class MissingEstimate(DamageKitError):
    """A matched footprint has no damage estimate."""
    exit_code = 5


class MissingPoint(DamageKitError, ValueError):
    """A matched point is not in the point list."""


class EmptySampleSet(DamageKitError):
    """Metrics requested over zero samples."""
    exit_code = 6


class NoPositiveSamples(DamageKitError):
    """Metrics requested over samples with no positive labels."""
    exit_code = 6


class SwathOutsideScene(DamageKitError):
    """Synthetic damage swath misses every building in the scene."""
    exit_code = 7


def check_unique(ids, error, kind):
    """Raise error on the first id that repeats an earlier one."""
    seen = set()
    for item_id in ids:
        if item_id in seen:
            raise error(f"duplicate {kind} id {item_id!r}")
        seen.add(item_id)
