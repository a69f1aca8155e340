"""The writers and the one record reader of porohom's text artifacts.

Every artifact is ASCII: an optional header line, then one record per
line, fields joined by a comma (blanks in the mesh format).  Floats are
written by repr, so they read back bit for bit.  write_rows writes any
records; write_numbered_table writes a numbered float table, forking
children to format a large one.  The reader skips blank
lines and checks the header, the field count of every record, that
floats are finite and that integers lie in their field's range; every
failure is a FormatError that names the file and the 1-based line.
"""

import os
import shutil
from itertools import repeat

import numpy as np

# A field kind is float (a finite number), POSITIVE (a finite number
# above zero), range(lo, hi) (an integer in it) or a tuple of the
# allowed integers or words.  Counts and indices beyond 2**31 are garbage.
POSITIVE = "positive"
INDEX = range(1, 2 ** 31)

# A numbered table of fewer values is formatted in this process alone:
# forking would cost more than the quarter second of repr it saves.
# Rows are formatted about this many values at a time.
_FORK_MIN_VALUES = 2 ** 18
_BLOCK_VALUES = 2 ** 14


class FormatError(ValueError):
    """A text artifact that breaks its format; line is 1-based or None,
    and path names the file, or is None.  The message reads
    "<path>: line <n>: <message>", without the parts that are None."""

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line
        self.path = path


def write_rows(path, rows, header=None, sep=","):
    """Write the header line, if any, then one line per row of words,
    integers and floats; a generator of rows keeps memory flat."""
    with open(path, "w", encoding="ascii") as handle:
        if header is not None:
            handle.write(header + "\n")
        for row in rows:
            handle.write(sep.join([repr(float(v)) if isinstance(v, float)
                                   else str(v) for v in row]) + "\n")


def numbered_lines(tables, start, stop):
    """Rows start..stop-1 of a numbered table as text: each line is the
    row number, then that row of every table, floats written by repr."""
    block = np.hstack([np.reshape(t[start:stop], (stop - start, -1))
                       for t in tables])
    return "".join([f"{i},{','.join(map(repr, row))}\n"
                    for i, row in zip(range(start, stop), block.tolist())])


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _write_slice(handle, tables, start, stop):
    """Write rows start..stop-1 as numbered_lines, a block at a time."""
    step = max(1, _BLOCK_VALUES // max(1, sum(t[:1].size for t in tables)))
    for first in range(start, stop, step):
        handle.write(numbered_lines(tables, first, min(first + step, stop)))


def _reap(pid):
    """Wait for a child to end: None if it exited 0, else why not."""
    try:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except ChildProcessError as exc:
        return f"ChildProcessError: {exc}"
    return f"child {pid} exit status {code}" if code else None


def write_numbered_table(path, header, tables):
    """Write the header line, then one numbered_lines line per row.

    tables are float arrays whose first axis runs over the rows.  A large
    table is cut into one slice of rows per CPU.  This process writes the
    first; a forked child writes each later slice k to "<path>.<k>", which
    is appended here in order, or formatted here if the fork fails or the
    child does not exit 0.  Returns the number of processes that
    formatted the rows and the reason for a fallback, or None.
    """
    rows = len(tables[0])
    big = sum(t.size for t in tables) >= _FORK_MIN_VALUES
    count = max(1, min(_cpus(), rows)) if big else 1
    cuts = [rows * k // count for k in range(count + 1)]
    sides = {k: f"{path}.{k}" for k in range(2, count + 1)}
    processes, fallback, pids = 1, None, {}
    with open(path, "w", encoding="ascii") as handle:
        handle.write(header + "\n")
        handle.flush()  # a forked child must not inherit unwritten text
        try:
            for k, side in sides.items():
                try:
                    pids[k] = os.fork()
                except (AttributeError, OSError) as exc:  # no os.fork
                    fallback = fallback or f"{type(exc).__name__}: {exc}"
                    continue
                if pids[k] == 0:  # the child; os._exit flushes nothing
                    status = 1
                    try:
                        with open(side, "w", encoding="ascii") as text:
                            _write_slice(text, tables, cuts[k - 1], cuts[k])
                        status = 0
                    finally:
                        os._exit(status)
            _write_slice(handle, tables, 0, cuts[1])
            for k, side in sides.items():
                # a slice that was not forked fails for the fork's reason
                failure = _reap(pids.pop(k)) if k in pids else fallback
                if failure is None:
                    with open(side, encoding="ascii") as text:
                        shutil.copyfileobj(text, handle)
                    processes += 1
                else:
                    fallback = fallback or failure
                    _write_slice(handle, tables, cuts[k - 1], cuts[k])
        finally:
            for pid in pids.values():
                _reap(pid)
            for side in sides.values():
                if os.path.exists(side):
                    os.remove(side)
    return processes, fallback


def _column(tokens, kind):
    """A column converted at once; ValueError if any token breaks kind."""
    if isinstance(kind, tuple) and isinstance(kind[0], str):
        if not set(tokens) <= set(kind):
            raise ValueError(kind)
        return np.array(tokens, dtype=str)
    if kind in (float, POSITIVE):
        values = np.array(list(map(float, tokens)), dtype=float)
        ok = np.isfinite(values) & ((values > 0.0) | (kind is float))
    else:
        values = np.array(list(map(int, tokens)), dtype=np.int64)
        ok = np.isin(values, kind) if isinstance(kind, tuple) else (
            (values >= kind.start) & (values < kind.stop))
    if not ok.all():
        raise ValueError(kind)
    return values


def _fault(token, name, kind):
    """What is wrong with a token that _column rejects."""
    if isinstance(kind, tuple) and isinstance(kind[0], str):
        return f"unknown {name} {token!r}, expected {' or '.join(kind)}"
    try:
        (float if kind in (float, POSITIVE) else int)(token)
    except ValueError:
        return f"bad {name} {token!r}"
    if isinstance(kind, range):
        return f"{name} {token} out of range [{kind.start}, {kind.stop})"
    if isinstance(kind, tuple):
        return f"{name} must be {' or '.join(map(str, kind))}, got {token}"
    need = "finite and positive" if kind == POSITIVE else "finite"
    return f"{name} must be {need}, got {token}"


class Records:
    """The nonblank lines of an artifact, handed out in order; faults are
    raised as error, FormatError or a subclass, naming the file and the
    line."""

    def __init__(self, path, header=None, sep=",", error=FormatError):
        self._path, self._error = path, error
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise self.error("not ASCII text",
                             data.count(b"\n", 0, exc.start) + 1) from None
        lines = text.splitlines()
        self.end = len(lines)
        self._numbers = range(1, self.end + 1)
        if "" in lines or any(map(str.isspace, lines)):
            self._numbers = [n for n in self._numbers if lines[n - 1].strip()]
            lines = [lines[n - 1] for n in self._numbers]
        self._lines = lines
        self._sep = sep
        self._pos = 0
        if header is not None:
            [line], [text] = self._take(1)
            if text.split(sep) != header.split(sep):
                raise self.error(f"bad header {text.strip()!r}, expected "
                                 f"{header!r}", line)

    def error(self, message, line=None):
        """The fault, naming this file, to raise."""
        return self._error(message, line, self._path)

    def _take(self, count):
        start = self._pos
        stop = len(self._lines) if count is None else start + count
        if stop > len(self._lines):
            raise self.error("unexpected end of file", self.end)
        self._pos = stop
        return self._numbers[start:stop], self._lines[start:stop]

    def table(self, fields, count=None):
        """The next count records (default: all left) as columns.

        fields holds one (name, kind) pair per column.  Returns the line
        numbers and one array per column.  Columns convert in bulk; only
        a failure scans the tokens to name a line.
        """
        numbers, lines = self._take(count)
        sep, width = self._sep, len(fields)
        if set(map(len, map(str.split, lines, repeat(sep)))) - {width}:
            for line, text in zip(numbers, lines):
                if len(text.split(sep)) != width:
                    raise self.error(f"expected {width} fields, got "
                                     f"{len(text.split(sep))}", line)
        # Flat tokens of a chunk of lines at a time: no per-line lists for
        # the garbage collector to walk, and little memory held at once.
        parts = []
        try:
            for i in range(0, max(len(lines), 1), 1024):
                tokens = (sep or " ").join(lines[i:i + 1024]).split(sep)
                parts.append([_column(tokens[k::width] if lines else [], kind)
                              for k, (_, kind) in enumerate(fields)])
            return numbers, [np.concatenate(p) for p in zip(*parts)]
        except (ValueError, OverflowError):
            for line, text in zip(numbers, lines):
                for token, (name, kind) in zip(text.split(sep), fields):
                    try:
                        _column([token], kind)
                    except (ValueError, OverflowError):
                        raise self.error(_fault(token, name, kind),
                                         line) from None
            raise

    def tensor(self, *prefix):
        """The next four records: the prefix fields, then i, j and the
        value of entries 1,1 / 1,2 / 2,1 / 2,2 of a symmetric tensor."""
        out = np.empty((2, 2))
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            [line], columns = self.table(
                prefix + (("i", (i,)), ("j", (j,)), ("value", float)), 1)
            out[i - 1, j - 1] = columns[-1][0]
            if i > j and out[1, 0] != out[0, 1]:
                raise self.error("entry 2,1 differs from entry 1,2", line)
        return out

    def finish(self):
        """Reject records left after the last table."""
        if self._pos < len(self._lines):
            raise self.error("unexpected trailing content "
                             f"{self._lines[self._pos].strip()!r}",
                             self._numbers[self._pos])
