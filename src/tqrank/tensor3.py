"""Dense 3-order tensors, observation masks, and the t3/m3/q text file formats.

A tensor is a float64 ndarray of shape (n1, n2, n3).  The k-th frontal
slice is ``t[:, :, k]``.  The mode-3 unfolding is the (n1*n2, n3) matrix
whose k-th column is the k-th frontal slice flattened column-major, so
folding and unfolding are plain Fortran-order reshapes of the same data.

Index triples (i, j, k) in mask files and error messages are 1-based.
"""

import math
import os
from dataclasses import dataclass

import numpy as np


class FormatError(ValueError):
    """Raised when a tensor/mask/transform text file is malformed."""


def validate_tensor(t):
    """Coerce ``t`` to a float64 3-order array, rejecting NaN/Inf entries."""
    arr = np.asarray(t, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-order tensor, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite")
    return arr


def unfold3(t):
    """Mode-3 unfolding: (n1*n2, n3) matrix whose column k is slice k.

    Entry (i, j, k) of the tensor lands in row i + j*n1 (0-based) of
    column k.
    """
    n1, n2, n3 = t.shape
    return np.reshape(t, (n1 * n2, n3), order="F")


def fold3(m, dims):
    """Inverse of :func:`unfold3` for the given (n1, n2, n3)."""
    n1, n2, n3 = dims
    m = np.asarray(m, dtype=float)
    if m.shape != (n1 * n2, n3):
        raise ValueError(f"cannot fold shape {m.shape} into dims {dims}")
    return np.reshape(m, (n1, n2, n3), order="F")


def check_transform_rows(q, n3):
    """q as a float64 matrix, after checking that it is 2-D with n3 rows."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != n3:
        raise ValueError(f"transform shape {q.shape} does not have n3={n3} rows")
    return q


def mode3_product(t, q):
    """Mode-3 product: fold back ``unfold3(t) @ q``.

    ``q`` must have n3 rows; the result has q.shape[1] frontal slices.
    """
    n1, n2, n3 = t.shape
    q = check_transform_rows(q, n3)
    return fold3(unfold3(t) @ q, (n1, n2, q.shape[1]))


def frobenius(t):
    """Frobenius norm, i.e. the 2-norm of all entries."""
    return float(np.linalg.norm(np.ravel(t)))


def inf_norm_diff(a, b):
    """Largest absolute entrywise difference between two same-shaped tensors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def _mark_index(values, i, j, k, where="", error=ValueError):
    """Set the 1-based (i, j, k) of a bool array after checking that it is
    in range and not yet set; errors are ``error`` prefixed by ``where``."""
    n1, n2, n3 = values.shape
    if not (1 <= i <= n1 and 1 <= j <= n2 and 1 <= k <= n3):
        raise error(f"{where}index ({i},{j},{k}) out of range for dims {values.shape}")
    if values[i - 1, j - 1, k - 1]:
        raise error(f"{where}duplicate index ({i},{j},{k})")
    values[i - 1, j - 1, k - 1] = True


@dataclass(frozen=True)
class ObservationMask:
    """Boolean observation pattern over an (n1, n2, n3) grid.

    ``values`` is immutable after construction; use the constructors
    below rather than mutating in place.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=bool, copy=True)
        if v.ndim != 3:
            raise ValueError(f"expected 3-order mask, got ndim={v.ndim}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dims(self):
        return self.values.shape

    @property
    def count(self):
        """Number of observed entries."""
        return int(np.count_nonzero(self.values))

    @property
    def rate(self):
        """Fraction of observed entries."""
        return self.count / self.values.size

    def indices(self):
        """Observed positions as sorted, 1-based (i, j, k) triples."""
        return [tuple(row) for row in (np.argwhere(self.values) + 1).tolist()]

    @classmethod
    def from_indices(cls, dims, triples):
        """Build a mask from 1-based (i, j, k) triples.

        Rejects out-of-range indices and duplicates; input order is free.
        """
        values = np.zeros(dims, dtype=bool)
        for (i, j, k) in triples:
            _mark_index(values, i, j, k)
        return cls(values)

    @classmethod
    def full(cls, dims):
        return cls(np.ones(dims, dtype=bool))


def project_omega(t, mask):
    """Copy entries at observed positions, zero elsewhere."""
    t = np.asarray(t, dtype=float)
    if t.shape != mask.dims:
        raise ValueError(f"tensor dims {t.shape} do not match mask dims {mask.dims}")
    return np.where(mask.values, t, 0.0)


def project_omega_complement(t, mask):
    """Copy entries at unobserved positions, zero elsewhere."""
    t = np.asarray(t, dtype=float)
    if t.shape != mask.dims:
        raise ValueError(f"tensor dims {t.shape} do not match mask dims {mask.dims}")
    return np.where(mask.values, 0.0, t)


# ---------------------------------------------------------------------------
# text formats: a tagged header line, then whitespace-separated values

def write_text_atomic(path, text):
    """Write ``text`` to ``path`` via a temp file + rename in one step.

    The temp file is created by ``open`` itself, so it gets the mode a
    plain ``open(path, "w")`` would give it: 0666 less the umask.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    handle = open(tmp, "x")  # "x" never truncates a file that another writer made
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_int(token, what, line_no, least=1):
    try:
        value = int(token)
    except ValueError:
        raise FormatError(f"line {line_no}: {what} is not an integer: {token!r}") from None
    if value < least:
        raise FormatError(f"line {line_no}: {what} must be at least {least}, got {value}")
    return value


def _read_text(path, usage, sizes):
    """The lines of the file at ``path`` and its header's leading positive integers.

    The header line must read like ``usage``, a tag then one name per
    field (e.g. "m3 n1 n2 n3 count"); its first ``sizes`` fields must be
    positive integers, and the caller parses any fields after them.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    tag, *names = usage.split()
    header = lines[0].split() if lines else []
    if not header:
        raise FormatError(f"line 1: missing {tag!r} header")
    if header[0] != tag or len(header) != len(names) + 1:
        raise FormatError(f"line 1: expected header {usage!r}")
    return lines, [_parse_int(tok, name, 1) for tok, name in zip(header[1:sizes + 1], names)]


def parse_floats(lines, expected):
    """Exactly ``expected`` finite floats from the lines after a header line."""
    values = np.empty(expected)
    filled = 0
    for line_no, line in enumerate(lines[1:], start=2):
        for token in line.split():
            if filled >= expected:
                raise FormatError(f"line {line_no}: more than {expected} values")
            try:
                value = float(token)
            except ValueError:
                raise FormatError(f"line {line_no}: bad float {token!r}") from None
            if not math.isfinite(value):
                raise FormatError(f"line {line_no}: non-finite value {token!r}")
            values[filled] = value
            filled += 1
    if filled != expected:
        raise FormatError(f"expected {expected} values, found {filled}")
    return values


def _format_values(header, flat, width):
    """``header``, then the values of ``flat`` ``width`` to a line at full repr precision."""
    lines = [header]
    for start in range(0, flat.size, width):
        lines.append(" ".join(map(repr, flat[start:start + width].tolist())))
    return "\n".join(lines) + "\n"


def format_tensor(t):
    """Serialize a tensor in the ``t3`` format (one slice column per line)."""
    t = validate_tensor(t)
    n1, n2, n3 = t.shape
    return _format_values(f"t3 {n1} {n2} {n3}", np.ravel(t, order="F"), n1)


def write_tensor(path, t):
    write_text_atomic(path, format_tensor(t))


def read_tensor(path):
    """Parse a ``t3`` file into an (n1, n2, n3) tensor."""
    lines, (n1, n2, n3) = _read_text(path, "t3 n1 n2 n3", 3)
    return parse_floats(lines, n1 * n2 * n3).reshape((n1, n2, n3), order="F")


def format_mask(mask):
    """Serialize a mask in the ``m3`` format (sorted 1-based triples)."""
    n1, n2, n3 = mask.dims
    lines = [f"m3 {n1} {n2} {n3} {mask.count}"]
    lines.extend(f"{i} {j} {k}" for (i, j, k) in mask.indices())
    return "\n".join(lines) + "\n"


def write_mask(path, mask):
    write_text_atomic(path, format_mask(mask))


def read_mask(path):
    """Parse an ``m3`` file into an :class:`ObservationMask`."""
    lines, dims = _read_text(path, "m3 n1 n2 n3 count", 3)
    count = _parse_int(lines[0].split()[4], "count", 1, least=0)
    values = np.zeros(dims, dtype=bool)
    seen = 0
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if not fields:
            continue
        if seen >= count:
            raise FormatError(f"line {line_no}: more than {count} index triples")
        if len(fields) != 3:
            raise FormatError(f"line {line_no}: expected 'i j k', got {line!r}")
        i, j, k = (_parse_int(tok, name, line_no)
                   for tok, name in zip(fields, ("i", "j", "k")))
        _mark_index(values, i, j, k, f"line {line_no}: ", FormatError)
        seen += 1
    if seen != count:
        raise FormatError(f"expected {count} index triples, found {seen}")
    return ObservationMask(values)


def format_q(q):
    """Serialize a transform in the ``q`` format (column-major values)."""
    q = np.asarray(q, dtype=float)
    n, r = q.shape
    return _format_values(f"q {n} {r}", np.ravel(q, order="F"), n)


def write_q(path, q):
    write_text_atomic(path, format_q(q))


def read_q(path):
    """Parse a ``q`` file into an (n, r) matrix.

    Orthonormality is checked by ``orth.check_given_q``; only shape and
    finiteness are validated here.
    """
    lines, (n, r) = _read_text(path, "q n r", 2)
    if r > n:
        raise FormatError(f"line 1: need n >= 1 and 1 <= r <= n, got n={n}, r={r}")
    return parse_floats(lines, n * r).reshape(n, r, order="F")
