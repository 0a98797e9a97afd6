"""Dense 3-order tensors, observation masks, and their text file formats.

A tensor is a float64 ndarray of shape (n1, n2, n3).  The k-th frontal
slice is ``t[:, :, k]``.  The mode-3 unfolding is the (n1*n2, n3) matrix
whose k-th column is the k-th frontal slice flattened column-major, so
folding and unfolding are plain Fortran-order reshapes of the same data.

Index triples (i, j, k) in mask files and error messages are 1-based.
"""

import os
import tempfile
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
        return [tuple(int(v) + 1 for v in row) for row in np.argwhere(self.values)]

    @classmethod
    def from_indices(cls, dims, triples):
        """Build a mask from 1-based (i, j, k) triples.

        Rejects out-of-range indices and duplicates; input order is free.
        """
        n1, n2, n3 = dims
        values = np.zeros(dims, dtype=bool)
        for (i, j, k) in triples:
            if not (1 <= i <= n1 and 1 <= j <= n2 and 1 <= k <= n3):
                raise ValueError(f"index ({i},{j},{k}) out of range for dims {tuple(dims)}")
            if values[i - 1, j - 1, k - 1]:
                raise ValueError(f"duplicate index ({i},{j},{k})")
            values[i - 1, j - 1, k - 1] = True
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
# text formats

def _umask():
    # the process umask can only be read by setting it, so set it back at once
    mask = os.umask(0)
    os.umask(mask)
    return mask


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` via a temp file + rename in one step.

    The file gets the mode a plain ``open(path, "w")`` would give it,
    0666 less the umask, not the 0600 of the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        os.fchmod(fd, 0o666 & ~_umask())
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _positive_int(token, what, line_no):
    try:
        value = int(token)
    except ValueError:
        raise FormatError(f"line {line_no}: {what} is not an integer: {token!r}") from None
    if value <= 0:
        raise FormatError(f"line {line_no}: {what} must be positive, got {value}")
    return value


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
            if not np.isfinite(value):
                raise FormatError(f"line {line_no}: non-finite value {token!r}")
            values[filled] = value
            filled += 1
    if filled != expected:
        raise FormatError(f"expected {expected} values, found {filled}")
    return values


def format_tensor(t):
    """Serialize a tensor in the ``t3`` format (one slice column per line)."""
    t = validate_tensor(t)
    n1, n2, n3 = t.shape
    flat = np.ravel(t, order="F")
    lines = [f"t3 {n1} {n2} {n3}"]
    for start in range(0, flat.size, n1):
        lines.append(" ".join(repr(float(v)) for v in flat[start:start + n1]))
    return "\n".join(lines) + "\n"


def write_tensor(path, t):
    write_text_atomic(path, format_tensor(t))


def read_tensor(path):
    """Parse a ``t3`` file into an (n1, n2, n3) tensor."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].split():
        raise FormatError("line 1: missing 't3' header")
    header = lines[0].split()
    if header[0] != "t3" or len(header) != 4:
        raise FormatError("line 1: expected header 't3 n1 n2 n3'")
    n1, n2, n3 = (_positive_int(tok, name, 1)
                  for tok, name in zip(header[1:], ("n1", "n2", "n3")))
    values = parse_floats(lines, n1 * n2 * n3)
    return fold3(values.reshape(n1 * n2, n3, order="F"), (n1, n2, n3))


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
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].split():
        raise FormatError("line 1: missing 'm3' header")
    header = lines[0].split()
    if header[0] != "m3" or len(header) != 5:
        raise FormatError("line 1: expected header 'm3 n1 n2 n3 count'")
    n1, n2, n3 = (_positive_int(tok, name, 1)
                  for tok, name in zip(header[1:4], ("n1", "n2", "n3")))
    try:
        count = int(header[4])
    except ValueError:
        raise FormatError(f"line 1: count is not an integer: {header[4]!r}") from None
    if count < 0:
        raise FormatError(f"line 1: count must be nonnegative, got {count}")
    values = np.zeros((n1, n2, n3), dtype=bool)
    seen = 0
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if not fields:
            continue
        if seen >= count:
            raise FormatError(f"line {line_no}: more than {count} index triples")
        if len(fields) != 3:
            raise FormatError(f"line {line_no}: expected 'i j k', got {line!r}")
        i, j, k = (_positive_int(tok, name, line_no)
                   for tok, name in zip(fields, ("i", "j", "k")))
        if not (i <= n1 and j <= n2 and k <= n3):
            raise FormatError(
                f"line {line_no}: index ({i},{j},{k}) out of range for dims ({n1},{n2},{n3})")
        if values[i - 1, j - 1, k - 1]:
            raise FormatError(f"line {line_no}: duplicate index ({i},{j},{k})")
        values[i - 1, j - 1, k - 1] = True
        seen += 1
    if seen != count:
        raise FormatError(f"expected {count} index triples, found {seen}")
    return ObservationMask(values)
