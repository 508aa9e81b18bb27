"""The package's one CSV table format, written and read in one place.

A table is ``#`` comment lines, a header line, then one line per row; every
line ends in ``\\n``. Floats are written in ``repr`` form (shortest round
trip), ``None`` as an empty field, anything else with ``str``. Reading goes
through :mod:`csv`, so quoted fields and ``\\r\\n`` line ends are accepted.
"""

import csv

from . import __version__
from .errors import ValidationError


def run_identity(experiment, config_hash, seed=None):
    """The comment line naming a run: ``experiment=… [seed=…] config=… version=…``."""
    seed_part = "" if seed is None else f" seed={seed}"
    return f"experiment={experiment}{seed_part} config={config_hash or 'none'} version={__version__}"


def _field(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def read_lines(path, newline=None):
    """The lines of the UTF-8 text file at path; bytes that do not decode raise ValidationError."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text (byte {exc.start})") from None


def write_table(path, header, rows, comments=()):
    """Write the non-empty comments (each after ``# ``), the header, the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {line}\n" for line in comments if line)
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_field(v) for v in row) + "\n")


def read_table(path, header, what, parse_row):
    """(comment lines without their ``#``, ``parse_row(fields)`` per data row).

    A wrong header, a row of the wrong length, or a ValueError from
    ``parse_row`` raises ValidationError naming the table ``what``. Rows of
    blank fields are skipped.
    """
    lines = read_lines(path, newline="")
    comments = [ln[1:] for ln in lines if ln.startswith("#")]
    reader = csv.reader(ln for ln in lines if not ln.startswith("#"))
    found = next(reader, None)
    if found is None or [h.strip() for h in found] != header:
        raise ValidationError(f"bad {what} header: expected {','.join(header)}")
    rows = []
    for rec in reader:
        if not rec or all(not f.strip() for f in rec):
            continue
        try:
            if len(rec) != len(header):
                raise ValueError
            rows.append(parse_row(rec))
        except ValueError:
            raise ValidationError(f"bad {what} row: {rec}") from None
    return comments, rows
