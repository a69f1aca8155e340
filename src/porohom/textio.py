"""The writers and the one record reader of porohom's text artifacts.

Every artifact is ASCII: an optional header line, then one record per
line, fields joined by a comma (blanks in the mesh format).  Floats are
written by repr, so they read back bit for bit.  write_rows writes any
records; write_numbered_table writes a numbered float table, formatting
a large one in forked worker processes.  The reader skips blank
lines and checks the header, the field count of every record, that
floats are finite and that integers lie in their field's range; every
failure is a FormatError that names the 1-based line.
"""

import os
from collections import deque
from itertools import repeat

import numpy as np

# A field kind is float (a finite number), POSITIVE (a finite number
# above zero), range(lo, hi) (an integer in it) or a tuple of the
# allowed integers or words.  Counts and indices beyond 2**31 are garbage.
POSITIVE = "positive"
INDEX = range(1, 2 ** 31)

# A numbered table of fewer values is formatted in this process: forking
# the workers would cost more than the quarter second of repr it saves.
# A worker formats about this many values per task.
_POOL_MIN_VALUES = 2 ** 18
_BLOCK_VALUES = 2 ** 14
# The tables a forked worker formats from, set only in the worker.
_worker_tables = None


class FormatError(ValueError):
    """A text artifact that breaks its format; line is 1-based or None."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


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


def _adopt(tables):
    global _worker_tables
    _worker_tables = tables


def _worker_lines(start, stop):
    return numbered_lines(_worker_tables, start, stop)


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _write_in_workers(handle, tables, blocks, workers):
    """Write the blocks' lines in order, formatted by forked workers.

    The workers inherit the tables through fork, so a task is a
    (start, stop) pair and no array is pickled; at most two tasks per
    worker are in flight.  Fork, not spawn: a worker only copies numbers
    and calls repr, touching no lock a BLAS thread could hold, where a
    spawned one would import the package again and be sent the arrays.
    Returns the number of blocks written and, if the pool could not
    start or broke, why.
    """
    # Imported here: these modules hold 2.6 MB of resident memory, which
    # only a process that forks should pay.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return 0, "no fork start method"
    others = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(workers, mp_context=context,
                               initializer=_adopt, initargs=(tables,))
    todo = iter(blocks)
    queued = deque()
    done, failure = 0, None
    try:
        while True:
            try:
                for block in todo:
                    queued.append(pool.submit(_worker_lines, *block))
                    if len(queued) == 2 * workers:
                        break
                if not queued:
                    break
                text = queued.popleft().result()
            except (OSError, BrokenProcessPool) as exc:
                failure = f"{type(exc).__name__}: {exc}"
                break
            handle.write(text)
            done += 1
    finally:
        pool.shutdown(cancel_futures=True)
    if failure is not None:
        # A fork that fails after the first leaves the workers already
        # started waiting for tasks, and shutdown does not join them.
        for child in set(multiprocessing.active_children()) - others:
            child.terminate()
            child.join()
    return done, failure


def write_numbered_table(path, header, tables):
    """Write the header line, then one numbered_lines line per row.

    tables are float arrays whose first axis runs over the rows.  A large
    table is formatted by one forked worker per CPU this process may run
    on, in blocks of rows written in order, so the bytes do not depend on
    the number of workers; a pool that cannot start or breaks leaves the
    rest to this process.  Returns the number of processes that
    formatted the rows and the reason for a fallback, or None.
    """
    rows = len(tables[0])
    width = max(1, sum(t[:1].size for t in tables))
    step = max(1, _BLOCK_VALUES // width)
    blocks = [(start, min(start + step, rows))
              for start in range(0, rows, step)]
    workers = min(_cpus(), len(blocks))
    processes, done, fallback = 1, 0, None
    with open(path, "w", encoding="ascii") as handle:
        handle.write(header + "\n")
        if workers > 1 and rows * width >= _POOL_MIN_VALUES:
            # a forked worker must not inherit unwritten text
            handle.flush()
            done, fallback = _write_in_workers(handle, tables, blocks,
                                               workers)
            if fallback is None:
                processes = workers
        for start, stop in blocks[done:]:
            handle.write(numbered_lines(tables, start, stop))
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
    raised as error, FormatError or a subclass, naming the line."""

    def __init__(self, path, header=None, sep=",", error=FormatError):
        self.error = error
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise error("not ASCII text",
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
                raise error(f"bad header {text.strip()!r}, expected "
                            f"{header!r}", line)

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
